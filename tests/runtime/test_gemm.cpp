#include "runtime/gemm.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "nn/model.h"
#include "runtime/ops.h"
#include "runtime/weights.h"

namespace sqz::runtime {
namespace {

TEST(Gemm, KnownSmallProduct) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  const std::int16_t a[] = {1, 2, 3, 4};
  const std::int16_t b[] = {5, 6, 7, 8};
  std::int64_t c[4];
  gemm_i16(a, b, c, 2, 2, 2);
  EXPECT_EQ(c[0], 19);
  EXPECT_EQ(c[1], 22);
  EXPECT_EQ(c[2], 43);
  EXPECT_EQ(c[3], 50);
}

TEST(Gemm, RectangularShapes) {
  // 1x3 times 3x2.
  const std::int16_t a[] = {1, -1, 2};
  const std::int16_t b[] = {1, 0, 0, 1, 1, 1};
  std::int64_t c[2];
  gemm_i16(a, b, c, 1, 3, 2);
  EXPECT_EQ(c[0], 1 - 0 + 2);
  EXPECT_EQ(c[1], 0 - 1 + 2);
}

TEST(Gemm, OverwritesOutput) {
  const std::int16_t a[] = {0};
  const std::int16_t b[] = {0};
  std::int64_t c[1] = {12345};
  gemm_i16(a, b, c, 1, 1, 1);
  EXPECT_EQ(c[0], 0);
}

TEST(Im2col, IdentityKernelIsFlatten) {
  Tensor in(nn::TensorShape{2, 2, 2});
  for (int i = 0; i < 8; ++i) in.data()[i] = static_cast<std::int16_t>(i + 1);
  nn::ConvParams p;
  p.out_channels = 1;
  p.kh = p.kw = 1;
  const auto cols = im2col(in, p, 0);
  ASSERT_EQ(cols.size(), 8u);  // K = 2, N = 4
  for (int i = 0; i < 8; ++i) EXPECT_EQ(cols[static_cast<std::size_t>(i)], i + 1);
}

TEST(Im2col, PaddingYieldsZeros) {
  Tensor in(nn::TensorShape{1, 2, 2});
  in.set(0, 0, 0, 7);
  nn::ConvParams p;
  p.out_channels = 1;
  p.kh = p.kw = 3;
  p.pad_h = p.pad_w = 1;
  const auto cols = im2col(in, p, 0);
  ASSERT_EQ(cols.size(), 9u * 4u);
  // Tap (0,0) for output (0,0) reads input (-1,-1) -> 0.
  EXPECT_EQ(cols[0], 0);
  // Tap (1,1) (the centre) for output (0,0) reads input (0,0) -> 7.
  EXPECT_EQ(cols[4u * 4u + 0u], 7);
}

// The core property: conv2d_gemm must agree bit-exactly with the direct
// loop-nest reference on a grid of layer shapes.
using Shape = std::tuple<int, int, int, int, int>;

class GemmVsDirect : public ::testing::TestWithParam<Shape> {};

// (cin, cout, kernel, stride, groups) over the grid, keeping only the
// shapes whose group count divides both channel counts.
std::vector<Shape> feasible_shape_grid() {
  std::vector<Shape> out;
  for (const int cin : {1, 4, 12})
    for (const int cout : {3, 8})
      for (const int kernel : {1, 3, 5})
        for (const int stride : {1, 2})
          for (const int groups : {1, 2, 4})
            if (cin % groups == 0 && cout % groups == 0)
              out.emplace_back(cin, cout, kernel, stride, groups);
  return out;
}

TEST_P(GemmVsDirect, BitExact) {
  const auto [cin, cout, kernel, stride, groups] = GetParam();
  nn::Model m("g", nn::TensorShape{cin, 15, 15});
  nn::ConvParams p;
  p.out_channels = cout;
  p.kh = p.kw = kernel;
  p.stride = stride;
  p.pad_h = p.pad_w = kernel / 2;
  p.groups = groups;
  m.add_conv("c", p);
  m.finalize();

  WeightGenConfig wc;
  wc.sparsity = 0.4;
  const WeightTensor w = generate_weights(m, 1, wc);
  const Tensor in = generate_input(m, 77);
  const Requant rq{.shift = 7, .relu = true};
  EXPECT_EQ(conv2d_gemm(in, w, p, rq), conv2d(in, w, p, rq));
}

INSTANTIATE_TEST_SUITE_P(ShapeGrid, GemmVsDirect,
                         ::testing::ValuesIn(feasible_shape_grid()));

TEST(GemmVsDirect, DepthwiseAgrees) {
  nn::Model m("dw", nn::TensorShape{6, 12, 12});
  m.add_depthwise("d", 3, 1, 1);
  m.finalize();
  const WeightTensor w = generate_weights(m, 1, WeightGenConfig{});
  const Tensor in = generate_input(m, 5);
  const Requant rq;
  EXPECT_EQ(conv2d_gemm(in, w, m.layer(1).conv, rq),
            conv2d(in, w, m.layer(1).conv, rq));
}

TEST(GemmVsDirect, NegativeOutputsWithoutRelu) {
  nn::Model m("n", nn::TensorShape{4, 9, 9});
  nn::ConvParams p;
  p.out_channels = 4;
  p.kh = p.kw = 3;
  p.pad_h = p.pad_w = 1;
  p.relu = false;
  m.add_conv("c", p);
  m.finalize();
  const WeightTensor w = generate_weights(m, 1, WeightGenConfig{});
  const Tensor in = generate_input(m, 6);
  const Requant rq{.shift = 7, .relu = false};
  const Tensor a = conv2d_gemm(in, w, p, rq);
  EXPECT_EQ(a, conv2d(in, w, p, rq));
  bool negative = false;
  for (std::int64_t i = 0; i < a.size(); ++i)
    if (a.data()[i] < 0) negative = true;
  EXPECT_TRUE(negative);
}

TEST(GemmConv, RejectsMismatchedWeights) {
  Tensor in(nn::TensorShape{2, 4, 4});
  WeightTensor w(1, 1, 1, 1);
  nn::ConvParams p;
  p.out_channels = 1;
  p.kh = p.kw = 1;
  EXPECT_THROW(conv2d_gemm(in, w, p, Requant{}), std::invalid_argument);
}

}  // namespace
}  // namespace sqz::runtime
