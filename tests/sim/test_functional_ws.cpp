// The strongest correctness evidence in the repository: the functional WS
// emulator executes the literal schedule and must (a) compute bit-exactly
// what the reference runtime computes, and (b) report exactly the cycles and
// accesses the analytical mapper predicts.
#include <gtest/gtest.h>

#include <tuple>

#include "nn/model.h"
#include "runtime/ops.h"
#include "runtime/weights.h"
#include "sim/functional/engines.h"
#include "sim/mappers.h"

namespace sqz::sim::functional {
namespace {

struct Case {
  nn::Model model;
  runtime::Tensor input;
  runtime::WeightTensor weights;
  runtime::Requant requant;
  runtime::Tensor reference;
};

Case make_case(nn::Model m, double sparsity = 0.40) {
  runtime::WeightGenConfig wc;
  wc.sparsity = sparsity;
  runtime::WeightTensor w = runtime::generate_weights(m, 1, wc);
  runtime::Tensor in = runtime::generate_input(m, 42);
  const nn::Layer& l = m.layer(1);
  runtime::Requant rq;
  rq.relu = l.is_conv() ? l.conv.relu : l.fc.relu;
  runtime::Tensor ref = l.is_conv()
                            ? runtime::conv2d(in, w, l.conv, rq)
                            : runtime::fully_connected(in, w, l.fc, rq);
  return Case{std::move(m), std::move(in), std::move(w), rq, std::move(ref)};
}

nn::Model conv_model(int cin, int hw, int cout, int k, int stride, int pad,
                     int groups = 1) {
  nn::Model m("t", nn::TensorShape{cin, hw, hw});
  nn::ConvParams p;
  p.out_channels = cout;
  p.kh = p.kw = k;
  p.stride = stride;
  p.pad_h = p.pad_w = pad;
  p.groups = groups;
  m.add_conv("c", p);
  m.finalize();
  return m;
}

void expect_ws_exact(Case c, const AcceleratorConfig& cfg) {
  const nn::Layer& l = c.model.layer(1);
  const FunctionalResult f =
      run_weight_stationary(l, c.input, c.weights, c.requant, cfg);
  EXPECT_EQ(f.output, c.reference) << "numerical mismatch vs reference runtime";
  const MappingResult a = map_weight_stationary(l, cfg);
  EXPECT_EQ(f.compute_cycles, a.compute_cycles) << "cycle model drift";
  EXPECT_EQ(f.counts, a.counts) << "access-count model drift";
}

TEST(WsFunctional, Standard3x3) {
  expect_ws_exact(make_case(conv_model(8, 20, 16, 3, 1, 1)),
                  AcceleratorConfig::squeezelerator());
}

TEST(WsFunctional, FirstLayerStylePacked) {
  expect_ws_exact(make_case(conv_model(3, 33, 20, 7, 2, 0)),
                  AcceleratorConfig::squeezelerator());
}

TEST(WsFunctional, Depthwise) {
  nn::Model m("dw", nn::TensorShape{6, 17, 17});
  m.add_depthwise("d", 3, 1, 1);
  m.finalize();
  expect_ws_exact(make_case(std::move(m)), AcceleratorConfig::squeezelerator());
}

TEST(WsFunctional, GroupedStrided) {
  expect_ws_exact(make_case(conv_model(8, 16, 12, 5, 2, 2, 2)),
                  AcceleratorConfig::squeezelerator());
}

TEST(WsFunctional, SeparatedFilters) {
  for (auto [kh, kw] : {std::pair{1, 3}, {3, 1}}) {
    nn::Model m("sep", nn::TensorShape{4, 18, 18});
    nn::ConvParams p;
    p.out_channels = 9;
    p.kh = kh;
    p.kw = kw;
    p.pad_h = kh / 2;
    p.pad_w = kw / 2;
    m.add_conv("c", p);
    m.finalize();
    expect_ws_exact(make_case(std::move(m)), AcceleratorConfig::squeezelerator());
  }
}

TEST(WsFunctional, FullyConnected) {
  nn::Model m("fc", nn::TensorShape{5, 6, 6});
  m.add_fc("f", 37);
  m.finalize();
  expect_ws_exact(make_case(std::move(m)), AcceleratorConfig::squeezelerator());
}

TEST(WsFunctional, ChannelsNotMultipleOfArray) {
  // 40 input channels on a 32-wide array: partial second row block.
  expect_ws_exact(make_case(conv_model(40, 9, 70, 1, 1, 0)),
                  AcceleratorConfig::squeezelerator());
}

TEST(WsFunctional, SmallArrayConfig) {
  AcceleratorConfig cfg;
  cfg.array_n = 8;
  cfg.preload_width = 8;
  cfg.drain_width = 4;
  cfg.psum_accum_words = 64;  // forces many pixel chunks
  expect_ws_exact(make_case(conv_model(12, 14, 10, 3, 1, 1)), cfg);
}

TEST(WsFunctional, NaivePsumInGbVariant) {
  AcceleratorConfig cfg = AcceleratorConfig::reference_ws();
  expect_ws_exact(make_case(conv_model(8, 20, 16, 3, 1, 1)), cfg);
}

TEST(WsFunctional, DenseWeights) {
  expect_ws_exact(make_case(conv_model(8, 12, 8, 3, 1, 1), /*sparsity=*/0.0),
                  AcceleratorConfig::squeezelerator());
}

TEST(WsFunctional, NoReluPreservesNegatives) {
  nn::Model m("t", nn::TensorShape{4, 10, 10});
  nn::ConvParams p;
  p.out_channels = 8;
  p.kh = p.kw = 3;
  p.pad_h = p.pad_w = 1;
  p.relu = false;
  m.add_conv("c", p);
  m.finalize();
  Case c = make_case(std::move(m));
  bool has_negative = false;
  for (std::int64_t i = 0; i < c.reference.size(); ++i)
    if (c.reference.data()[i] < 0) has_negative = true;
  EXPECT_TRUE(has_negative) << "test vector should exercise negative outputs";
  expect_ws_exact(std::move(c), AcceleratorConfig::squeezelerator());
}

// Property sweep: exactness over a random-ish grid of shapes and configs.
class WsFunctionalSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(WsFunctionalSweep, ExactVsMapperAndReference) {
  const auto [cin, cout, k, stride] = GetParam();
  const int hw = 13;
  expect_ws_exact(make_case(conv_model(cin, hw, cout, k, stride, k / 2)),
                  AcceleratorConfig::squeezelerator());
}

INSTANTIATE_TEST_SUITE_P(ShapeGrid, WsFunctionalSweep,
                         ::testing::Combine(::testing::Values(1, 3, 33),
                                            ::testing::Values(2, 34),
                                            ::testing::Values(1, 3),
                                            ::testing::Values(1, 2)));

}  // namespace
}  // namespace sqz::sim::functional
