// Functional OS emulator: bit-exact vs the reference runtime and
// cycle/access-exact vs the analytical OS mapper under measured sparsity.
#include <gtest/gtest.h>

#include <tuple>

#include "nn/model.h"
#include "runtime/ops.h"
#include "runtime/weights.h"
#include "sim/functional/engines.h"
#include "sim/mappers.h"

namespace sqz::sim::functional {
namespace {

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

void expect_os_exact(nn::Model m, AcceleratorConfig cfg, double sparsity = 0.40) {
  runtime::WeightGenConfig wc;
  wc.sparsity = sparsity;
  const runtime::WeightTensor w = runtime::generate_weights(m, 1, wc);
  const runtime::Tensor in = runtime::generate_input(m, 42);
  const nn::Layer& l = m.layer(1);
  runtime::Requant rq;
  rq.relu = l.conv.relu;
  const runtime::Tensor ref = runtime::conv2d(in, w, l.conv, rq);

  const FunctionalResult f = run_output_stationary(l, in, w, rq, cfg);
  EXPECT_EQ(f.output, ref) << "numerical mismatch vs reference runtime";

  const SparsityInfo sp = cfg.os_zero_skip ? SparsityInfo::measured(w)
                                           : SparsityInfo::dense(l);
  const MappingResult a = map_output_stationary(l, cfg, sp);
  EXPECT_EQ(f.compute_cycles, a.compute_cycles) << "cycle model drift";
  EXPECT_EQ(f.counts, a.counts) << "access-count model drift";
}

TEST(OsFunctional, Standard3x3) {
  expect_os_exact(conv_model(8, 20, 16, 3, 1, 1),
                  AcceleratorConfig::squeezelerator());
}

TEST(OsFunctional, FirstLayerStyle) {
  expect_os_exact(conv_model(3, 33, 20, 7, 2, 0),
                  AcceleratorConfig::squeezelerator());
}

TEST(OsFunctional, PointwiseOverlappedLoads) {
  expect_os_exact(conv_model(40, 9, 70, 1, 1, 0),
                  AcceleratorConfig::squeezelerator());
}

TEST(OsFunctional, Depthwise) {
  nn::Model m("dw", nn::TensorShape{6, 17, 17});
  m.add_depthwise("d", 3, 1, 1);
  m.finalize();
  expect_os_exact(std::move(m), AcceleratorConfig::squeezelerator());
}

TEST(OsFunctional, GroupedStrided) {
  expect_os_exact(conv_model(8, 16, 12, 5, 2, 2, 2),
                  AcceleratorConfig::squeezelerator());
}

TEST(OsFunctional, MultiTileOutput) {
  // Output larger than the PE array: several spatial tiles, edge tiles ragged.
  AcceleratorConfig cfg;
  cfg.array_n = 8;
  cfg.preload_width = 8;
  cfg.drain_width = 4;
  expect_os_exact(conv_model(4, 21, 6, 3, 1, 1), cfg);
}

TEST(OsFunctional, RfSmallerThanFilters) {
  AcceleratorConfig cfg;
  cfg.rf_entries = 4;  // 16 output channels -> 4 chunks
  expect_os_exact(conv_model(8, 12, 16, 3, 1, 1), cfg);
}

TEST(OsFunctional, ZeroSkipDisabled) {
  AcceleratorConfig cfg;
  cfg.os_zero_skip = false;
  expect_os_exact(conv_model(8, 12, 16, 3, 1, 1), cfg);
}

TEST(OsFunctional, ZeroSkipDoesNotChangeNumbers) {
  // Skipping zero weights must be numerically invisible.
  const nn::Model m = conv_model(8, 14, 8, 3, 1, 1);
  runtime::WeightGenConfig wc;
  wc.sparsity = 0.6;
  const runtime::WeightTensor w = runtime::generate_weights(m, 1, wc);
  const runtime::Tensor in = runtime::generate_input(m, 9);
  runtime::Requant rq;
  AcceleratorConfig skip, noskip;
  noskip.os_zero_skip = false;
  const auto a = run_output_stationary(m.layer(1), in, w, rq, skip);
  const auto b = run_output_stationary(m.layer(1), in, w, rq, noskip);
  EXPECT_EQ(a.output, b.output);
  EXPECT_LT(a.compute_cycles, b.compute_cycles);
}

TEST(OsFunctional, SeparatedFilters) {
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
    expect_os_exact(std::move(m), AcceleratorConfig::squeezelerator());
  }
}

TEST(OsFunctional, DenseWeights) {
  expect_os_exact(conv_model(8, 12, 8, 3, 1, 1),
                  AcceleratorConfig::squeezelerator(), /*sparsity=*/0.0);
}

// Property sweep over shapes and strides.
class OsFunctionalSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(OsFunctionalSweep, ExactVsMapperAndReference) {
  const auto [cin, cout, k, stride] = GetParam();
  const int hw = 13;
  expect_os_exact(conv_model(cin, hw, cout, k, stride, k / 2),
                  AcceleratorConfig::squeezelerator());
}

INSTANTIATE_TEST_SUITE_P(ShapeGrid, OsFunctionalSweep,
                         ::testing::Combine(::testing::Values(1, 3, 33),
                                            ::testing::Values(2, 34),
                                            ::testing::Values(1, 3),
                                            ::testing::Values(1, 2)));

}  // namespace
}  // namespace sqz::sim::functional
