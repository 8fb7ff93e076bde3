// Seeded request generation for the four workloads (perfbench/README.md,
// "Workloads"). Every request is a pure function of (workload, seed, index),
// so the same seed sends the same bytes, and the server sees only them.
#include <algorithm>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "core/cli.h"
#include "nn/serialize.h"
#include "nn/zoo/zoo.h"
#include "util/json.h"

namespace pb {

const std::vector<ModelEntry>& models() {
  static const std::vector<ModelEntry> table = [] {
    std::vector<ModelEntry> out;
    for (const char* name : {"alexnet", "squeezenet10", "squeezenet11",
                             "mobilenet", "tinydarknet"}) {
      nn::Model m = core::zoo_model_by_name(name);
      std::string text = nn::serialize_model(m);
      out.push_back({name, false, std::move(m), std::move(text)});
    }
    for (int v = 1; v <= 5; ++v) {
      nn::Model m = nn::zoo::squeezenext(static_cast<nn::zoo::SqNxtVariant>(v));
      std::string text = nn::serialize_model(m);
      out.push_back({"sqnxt23-v" + std::to_string(v), true, std::move(m),
                     std::move(text)});
    }
    return out;
  }();
  return table;
}

namespace {

const char* knob_name(Knob k) {
  switch (k) {
    case Knob::Rf: return "rf_entries";
    case Knob::ArrayN: return "array_n";
    case Knob::Sparsity: return "sparsity";
    case Knob::Dram: return "dram_bytes_per_cycle";
  }
  return "?";
}

}  // namespace

sim::AcceleratorConfig config_of(const PointSpec& p) {
  sim::AcceleratorConfig c = sim::AcceleratorConfig::squeezelerator();
  c.array_n = p.array_n;
  c.rf_entries = p.rf_entries;
  c.weight_sparsity = p.sparsity;
  c.dram_bytes_per_cycle = p.dram;
  return c;
}

sched::SimulationOptions options_of(const PointSpec& p) {
  sched::SimulationOptions o;
  o.objective = p.energy_objective ? sched::Objective::Energy
                                   : sched::Objective::Cycles;
  o.tile_timeline = p.timeline || p.tile_search;
  o.tile_search = p.tile_search;
  return o;
}

std::vector<sim::AcceleratorConfig> sweep_point_configs(const Request& r) {
  std::vector<sim::AcceleratorConfig> out;
  for (const double v : r.values) {
    sim::AcceleratorConfig c = config_of(r.point);
    switch (r.knob) {
      case Knob::Rf: c.rf_entries = static_cast<int>(v); break;
      case Knob::ArrayN: c.array_n = static_cast<int>(v); break;
      case Knob::Sparsity: c.weight_sparsity = v; break;
      case Knob::Dram: c.dram_bytes_per_cycle = v; break;
    }
    out.push_back(c);
  }
  return out;
}

void render_body(Request& r) {
  const PointSpec& p = r.point;
  const ModelEntry& m = models().at(static_cast<std::size_t>(p.model));
  std::ostringstream os;
  util::JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  if (m.inline_text) w.member("model_text", m.text);
  else w.member("model", m.label);
  w.key("config");
  w.begin_object();
  w.member("array_n", p.array_n);
  w.member("rf_entries", p.rf_entries);
  w.member("weight_sparsity", p.sparsity);
  w.member("dram_bytes_per_cycle", p.dram);
  w.end_object();
  w.key("options");
  w.begin_object();
  w.member("objective", p.energy_objective ? "energy" : "cycles");
  w.member("timeline", p.timeline);
  w.member("tile_search", p.tile_search);
  w.end_object();
  if (r.sweep) {
    w.key("sweep");
    w.begin_object();
    w.member("knob", knob_name(r.knob));
    w.key("values");
    w.begin_array();
    for (const double v : r.values) w.value(v);
    w.end_array();
    if (r.screen) {
      w.member("screen", true);
      w.member("screen_keep", r.screen_keep);
    }
    w.end_object();
  }
  w.end_object();
  r.body = os.str();
}

namespace {

// Knob values shared by the workloads. Every combination is a valid design
// for every network (no request is refused).
const int kArrayN[] = {8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32};
const int kRf[] = {4, 8, 12, 16, 24, 32, 48};
const double kSparsity[] = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7};
const double kDram[] = {4, 8, 12, 16, 24, 32};

const int kSweepArrayN[] = {16, 20, 24, 28, 32};
const int kSweepRf[] = {8, 12, 16, 24, 32};
const double kSweepSparsity[] = {0.2, 0.4};
const double kSweepDram[] = {8, 16};

// Two disjoint eight-value lists per knob; labels stay unique within a list.
const double kKnobValues[4][2][8] = {
    {{4, 8, 12, 16, 24, 32, 48, 64}, {6, 10, 14, 20, 28, 40, 56, 72}},
    {{8, 12, 16, 20, 24, 28, 32, 36}, {10, 14, 18, 22, 26, 30, 34, 40}},
    {{0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7},
     {0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75}},
    {{2, 4, 6, 8, 12, 16, 24, 32}, {3, 5, 10, 14, 20, 28, 40, 64}},
};

constexpr std::size_t kModels = 10;
static_assert(sizeof kSweepArrayN == sizeof kSweepRf,
              "the sweep grid walks array size and register file together");

template <typename T, std::size_t N>
constexpr std::size_t count(const T (&)[N]) {
  return N;
}

/// A seeded mixed-radix counter over a knob grid. Index j is offset + j
/// (mod the grid size), fastest digit first, and each digit's values are
/// rotated by a seeded amount. Consecutive indices step the fast digits
/// through all their values in turn, so every run covers the costly knobs
/// evenly whatever the seed; the seed picks the starting point and the
/// rotations.
class Counter {
 public:
  Counter(std::vector<std::size_t> radices, std::mt19937_64& rng)
      : radices_(std::move(radices)) {
    for (const std::size_t r : radices_) {
      size_ *= r;
      rotations_.push_back(rng() % r);
    }
    offset_ = rng() % size_;
  }

  std::uint64_t size() const { return size_; }

  /// The value index of every digit at position j.
  std::vector<std::size_t> operator()(std::uint64_t j) const {
    std::uint64_t x = (offset_ + j) % size_;
    std::vector<std::size_t> out;
    for (std::size_t d = 0; d < radices_.size(); ++d) {
      out.push_back((x % radices_[d] + rotations_[d]) % radices_[d]);
      x /= radices_[d];
    }
    return out;
  }

 private:
  std::vector<std::size_t> radices_;
  std::vector<std::size_t> rotations_;
  std::uint64_t size_ = 1, offset_ = 0;
};

/// The simulate grid: model is the fast digit (every ten consecutive
/// indices cover the ten networks once); array size and register file,
/// which set most of a simulation's cost, step next, then the objective.
class SimulateGrid {
 public:
  explicit SimulateGrid(std::mt19937_64 rng)
      : rest_({count(kArrayN), count(kRf), 2, count(kSparsity), count(kDram)},
              rng) {}

  std::uint64_t size() const { return kModels * rest_.size(); }

  PointSpec point(std::uint64_t g) const {
    PointSpec p;
    p.model = static_cast<int>(g % kModels);
    const std::vector<std::size_t> d = rest_(g / kModels);
    p.array_n = kArrayN[d[0]];
    p.rf_entries = kRf[d[1]];
    p.energy_objective = d[2] == 1;
    p.sparsity = kSparsity[d[3]];
    p.dram = kDram[d[4]];
    return p;
  }

 private:
  Counter rest_;
};

Request simulate_request(const PointSpec& p, int key = -1) {
  Request r;
  r.point = p;
  r.key = key;
  render_body(r);
  return r;
}

class SimulateCold final : public Workload {
 public:
  static constexpr std::size_t kRound = 20;
  static constexpr std::size_t kWarmupRounds = 20;

  explicit SimulateCold(std::uint64_t seed) : grid_(std::mt19937_64(seed)) {}

  ServerShape shape() const override { return {}; }
  Round warmup() override {
    Phase p;
    for (std::size_t i = 0; i < kWarmupRounds * kRound; ++i)
      p.push_back(simulate_request(grid_.point(i)));
    return {p};
  }
  Round round(std::size_t r) override {
    const std::uint64_t first = (kWarmupRounds + r) * kRound;
    if (first + kRound > grid_.size())
      throw std::runtime_error("simulate-cold: design grid exhausted");
    Phase p;
    for (std::size_t i = 0; i < kRound; ++i)
      p.push_back(simulate_request(grid_.point(first + i)));
    return {p};
  }
  std::size_t traced_rounds() const override { return 12; }
  Expected expected(std::size_t rounds) const override {
    const std::uint64_t n = (kWarmupRounds + rounds) * kRound;
    return {0, 0, n};
  }
  std::string describe() const override {
    return "distinct flat /v1/simulate requests, 20 per round (each network "
           "twice), stepping through 10 networks x 13 array_n x 7 rf_entries x "
           "8 sparsity x 6 DRAM bandwidths x 2 objectives";
  }

 private:
  SimulateGrid grid_;
};

// simulate-repeat: a working set of 80 design points — 16 hot, and two
// revisit sets A and B of 32 — against a 24-entry result cache and a
// 256-entry plan cache. Each round sends: every hot point once (result
// miss, plan hit: the revisit phase before it inserted >= 24 other keys),
// the hot points 7 more times each (result hits: nothing else is inserted
// in between), then revisit set A (even rounds) or B (odd rounds), each
// point once (result miss, plan hit: the other set was inserted since).
// Phases are separated by barriers and a point is never in flight twice,
// so the hit pattern holds whatever the interleaving of the connections.
class SimulateRepeat final : public Workload {
 public:
  static constexpr int kHot = 16, kRevisit = 32, kRepeats = 8;
  static constexpr std::size_t kCacheEntries = 24;

  // Slot k holds network k % 10 on a design whose costly knobs (array size,
  // register file, timeline) follow from k alone, so every seed's working
  // set, hot set and revisit sets cost the same to serve. The seed draws the
  // cheap knobs (objective, sparsity, DRAM bandwidth) and the send order.
  explicit SimulateRepeat(std::uint64_t seed) : seed_(seed) {
    std::mt19937_64 rng(seed);
    for (int k = 0; k < kHot + 2 * kRevisit; ++k) {
      const int m = k % static_cast<int>(kModels), j = k / static_cast<int>(kModels);
      PointSpec p;
      p.model = m;
      p.array_n = kArrayN[static_cast<std::size_t>(m + 3 * j) % count(kArrayN)];
      p.rf_entries = kRf[static_cast<std::size_t>(m + 2 * j) % count(kRf)];
      p.timeline = (m + j) % 2 == 1;
      p.energy_objective = rng() % 2 == 1;
      p.sparsity = kSparsity[rng() % count(kSparsity)];
      p.dram = kDram[rng() % count(kDram)];
      requests_.push_back(simulate_request(p, k));
    }
  }

  ServerShape shape() const override {
    ServerShape s;
    s.cache_entries = kCacheEntries;
    return s;
  }
  // Passes over the working set: the first simulates every point and fills
  // the plan cache, the others replay every plan once. Each pass ends with
  // set B, which evicts the hot set and set A from the result cache.
  static constexpr int kWarmupPasses = 4;
  Round warmup() override {
    Phase first, second;
    for (int k = 0; k < kHot + kRevisit; ++k) first.push_back(at(k));
    for (int k = kHot + kRevisit; k < kHot + 2 * kRevisit; ++k)
      second.push_back(at(k));
    Round out;
    for (int i = 0; i < kWarmupPasses; ++i) {
      out.push_back(first);
      out.push_back(second);
    }
    return out;
  }
  Round round(std::size_t r) override {
    std::mt19937_64 rng(seed_ * 1000003u + r);
    Phase hot_first, hot_repeat, revisit;
    for (int k = 0; k < kHot; ++k) {
      hot_first.push_back(at(k));
      for (int j = 1; j < kRepeats; ++j) hot_repeat.push_back(at(k));
    }
    const int lo = kHot + (r % 2 == 0 ? 0 : kRevisit);
    for (int k = lo; k < lo + kRevisit; ++k) revisit.push_back(at(k));
    std::shuffle(hot_first.begin(), hot_first.end(), rng);
    std::shuffle(hot_repeat.begin(), hot_repeat.end(), rng);
    std::shuffle(revisit.begin(), revisit.end(), rng);
    return {hot_first, hot_repeat, revisit};
  }
  std::size_t traced_rounds() const override { return 2; }
  Expected expected(std::size_t rounds) const override {
    const std::uint64_t working_set = kHot + 2 * kRevisit;
    return {rounds * kHot * (kRepeats - 1),
            (kWarmupPasses - 1) * working_set + rounds * (kHot + kRevisit),
            working_set};
  }
  std::string describe() const override {
    return "80 /v1/simulate points (8 per network, half flat, half timeline): 16 hot sent 8x "
           "per round, revisit sets A/B of 32 alternating by round; result "
           "cache 24 entries, plan cache 256; warm-up simulates the working set, then replays it 3 times";
  }

 private:
  Request at(int k) const { return requests_[static_cast<std::size_t>(k)]; }

  std::uint64_t seed_;
  std::vector<Request> requests_;
};

// The Figure-3 sweep space: network x knob x value list x base config.
// The knob, the objective and the value list step fastest. The base array
// size and register file share one digit, walked along diagonals (array
// size steps every index, register file every index and every fifth), so
// any five consecutive values of it cover both knobs' five values.
class SweepGrid {
 public:
  explicit SweepGrid(std::mt19937_64 rng)
      : rest_({4, 2, 2, count(kSweepArrayN) * count(kSweepRf),
               count(kSweepSparsity), count(kSweepDram)},
              rng) {}

  std::uint64_t rest_size() const { return rest_.size(); }

  Request sweep(int model, std::uint64_t g, bool timeline, bool screen) const {
    const std::vector<std::size_t> d = rest_(g);
    Request r;
    r.sweep = true;
    r.knob = static_cast<Knob>(d[0]);
    // A screened sweep scores both value lists, its own first: screening
    // makes a point cheap, and with twice the points its latency meets the
    // unscreened sweeps' instead of leaving a gap at the median.
    for (const std::size_t list : {d[2], 1 - d[2]}) {
      if (list != d[2] && !screen) break;
      for (const double v : kKnobValues[d[0]][list]) r.values.push_back(v);
    }
    PointSpec& p = r.point;
    p.model = model;
    p.energy_objective = d[1] == 1;
    const std::size_t n = count(kSweepArrayN);  // == count(kSweepRf)
    p.array_n = kSweepArrayN[d[3] % n];
    p.rf_entries = kSweepRf[(d[3] % n + d[3] / n) % n];
    p.sparsity = kSweepSparsity[d[4]];
    p.dram = kSweepDram[d[5]];
    p.timeline = timeline;
    p.tile_search = timeline;
    r.screen = screen;
    render_body(r);
    return r;
  }

 private:
  Counter rest_;
};

class SweepFlat final : public Workload {
 public:
  static constexpr std::size_t kWarmupRounds = 20;

  explicit SweepFlat(std::uint64_t seed) : grid_(std::mt19937_64(seed)) {}

  ServerShape shape() const override { return {}; }
  Round warmup() override {
    Phase p;
    for (std::size_t r = 0; r < kWarmupRounds; ++r) {
      const Round round = make(r);
      p.insert(p.end(), round.front().begin(), round.front().end());
    }
    return {p};
  }
  Round round(std::size_t r) override { return make(kWarmupRounds + r); }
  std::size_t traced_rounds() const override { return 4; }
  Expected expected(std::size_t rounds) const override {
    return {0, 0, (kWarmupRounds + rounds) * kModels};
  }
  std::string describe() const override {
    return "distinct 8-point one-knob flat /v1/sweep requests, 10 per round "
           "(one per network), over 4 knobs x 2 value lists x 2 objectives x "
           "5 array_n x 5 rf_entries x 2 sparsity x 2 DRAM base configs";
  }

 private:
  Round make(std::size_t r) const {
    if (r >= grid_.rest_size())
      throw std::runtime_error("sweep-flat: sweep grid exhausted");
    Phase p;
    for (std::size_t m = 0; m < kModels; ++m)
      p.push_back(grid_.sweep(static_cast<int>(m), r, false, false));
    return {p};
  }

  SweepGrid grid_;
};

class SweepTimeline final : public Workload {
 public:
  static constexpr std::size_t kWarmupRounds = 5;

  explicit SweepTimeline(std::uint64_t seed) : grid_(std::mt19937_64(seed)) {}

  ServerShape shape() const override { return {}; }
  Round warmup() override {
    Phase p;
    for (std::size_t r = 0; r < kWarmupRounds; ++r) {
      const Round round = make(r);
      p.insert(p.end(), round.front().begin(), round.front().end());
    }
    return {p};
  }
  Round round(std::size_t r) override { return make(kWarmupRounds + r); }
  std::size_t traced_rounds() const override { return 2; }
  Expected expected(std::size_t rounds) const override {
    return {0, 0, (kWarmupRounds + rounds) * 2 * kModels};
  }
  std::string describe() const override {
    return "distinct one-knob timeline+tile_search /v1/sweep requests, 20 "
           "per round: each network's sweep once unscreened (8 points) and "
           "once screened at screen_keep 0.25 (both value lists, 16 points), "
           "over the sweep-flat grid";
  }

 private:
  Round make(std::size_t r) const {
    if (r >= grid_.rest_size())
      throw std::runtime_error("sweep-timeline: sweep grid exhausted");
    Phase p;
    for (std::size_t m = 0; m < kModels; ++m)
      for (const bool screen : {false, true})
        p.push_back(grid_.sweep(static_cast<int>(m), r, true, screen));
    return {p};
  }

  SweepGrid grid_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "simulate-cold") return std::make_unique<SimulateCold>(seed);
  if (name == "simulate-repeat") return std::make_unique<SimulateRepeat>(seed);
  if (name == "sweep-flat") return std::make_unique<SweepFlat>(seed);
  if (name == "sweep-timeline") return std::make_unique<SweepTimeline>(seed);
  return nullptr;
}

}  // namespace pb
