// Response checkers (perfbench/README.md, "Checks"). Each compares what the
// daemon served with a computation made apart from it: MAC counts from the
// layer shapes, energies from the counts and the Eyeriss unit energies, the
// closed-form estimator (docs/ESTIMATOR.md) for cycles and counts, and the
// Pareto front recomputed from the returned (cycles, energy).
#include <cmath>

#include "bench.h"
#include "est/estimator.h"

namespace pb {
namespace {

using util::JsonValue;

/// Eyeriss unit energies, as the harness knows them (MAC-normalized).
struct Eyeriss {
  static constexpr double mac = 1, rf = 1, inter_pe = 1, acc = 2, gb = 6,
                          dram = 200;
};

/// The bound docs/ESTIMATOR.md holds the timeline estimate to, per network.
constexpr double kTimelineBoundPct = 5.0;

struct Counts {
  std::int64_t mac_ops, rf_reads, rf_writes, inter_pe, acc_reads, acc_writes,
      gb_reads, gb_writes, dram_words;
};

Counts counts_of(const JsonValue& c) {
  return {c.at("mac_ops").as_int(),    c.at("rf_reads").as_int(),
          c.at("rf_writes").as_int(),  c.at("inter_pe").as_int(),
          c.at("acc_reads").as_int(),  c.at("acc_writes").as_int(),
          c.at("gb_reads").as_int(),   c.at("gb_writes").as_int(),
          c.at("dram_words").as_int()};
}

Counts counts_of(const sim::AccessCounts& c) {
  return {c.mac_ops,   c.rf_reads, c.rf_writes, c.inter_pe, c.acc_reads,
          c.acc_writes, c.gb_reads, c.gb_writes, c.dram_words};
}

bool operator==(const Counts& a, const Counts& b) {
  return a.mac_ops == b.mac_ops && a.rf_reads == b.rf_reads &&
         a.rf_writes == b.rf_writes && a.inter_pe == b.inter_pe &&
         a.acc_reads == b.acc_reads && a.acc_writes == b.acc_writes &&
         a.gb_reads == b.gb_reads && a.gb_writes == b.gb_writes &&
         a.dram_words == b.dram_words;
}

struct Energy {
  double mac, rf, inter_pe, acc, gb, dram;
  double total() const { return mac + rf + inter_pe + acc + gb + dram; }
};

Energy energy_of(const Counts& c) {
  auto d = [](std::int64_t v) { return static_cast<double>(v); };
  return {d(c.mac_ops) * Eyeriss::mac,
          d(c.rf_reads + c.rf_writes) * Eyeriss::rf,
          d(c.inter_pe) * Eyeriss::inter_pe,
          d(c.acc_reads + c.acc_writes) * Eyeriss::acc,
          d(c.gb_reads + c.gb_writes) * Eyeriss::gb,
          d(c.dram_words) * Eyeriss::dram};
}

bool close(double got, double want) {
  return std::abs(got - want) <= 1e-12 * std::max(1.0, std::abs(want));
}

std::string check_energy(const JsonValue& e, const Counts& c,
                         const std::string& where) {
  const Energy want = energy_of(c);
  const std::pair<const char*, double> levels[] = {
      {"mac", want.mac}, {"rf", want.rf},     {"inter_pe", want.inter_pe},
      {"acc", want.acc}, {"gb", want.gb},     {"dram", want.dram},
      {"total", want.total()}};
  for (const auto& [name, v] : levels)
    if (!close(e.at(name).as_double(), v))
      return where + ": energy." + name + " is " +
             std::to_string(e.at(name).as_double()) + ", counts give " +
             std::to_string(v);
  return "";
}

/// Dense MACs from the layer's shapes: outputs x taps per output.
std::int64_t dense_macs(const nn::Layer& l) {
  if (l.is_conv())
    return l.out_shape.elems() * l.conv.kh * l.conv.kw *
           (l.in_shape.c / l.conv.groups);
  if (l.is_fc()) return l.in_shape.elems() * l.fc.out_features;
  return 0;
}

double pct_off(std::int64_t got, std::int64_t want) {
  return 100.0 * std::abs(static_cast<double>(got - want)) /
         static_cast<double>(std::max<std::int64_t>(1, want));
}

std::string check_report(const Request& r, const JsonValue& doc) {
  const nn::Model& model = models().at(static_cast<std::size_t>(r.point.model)).model;
  const sim::AcceleratorConfig config = config_of(r.point);
  const JsonValue& units = doc.at("unit_energies");
  if (units.at("mac").as_double() != Eyeriss::mac ||
      units.at("rf").as_double() != Eyeriss::rf ||
      units.at("inter_pe").as_double() != Eyeriss::inter_pe ||
      units.at("acc").as_double() != Eyeriss::acc ||
      units.at("gb").as_double() != Eyeriss::gb ||
      units.at("dram").as_double() != Eyeriss::dram)
    return "unit_energies are not the Eyeriss weighting";

  const JsonValue& layers = doc.at("layers");
  if (layers.items.size() != static_cast<std::size_t>(model.layer_count() - 1))
    return "report has " + std::to_string(layers.items.size()) + " layers, model " +
           std::to_string(model.layer_count() - 1);
  const bool flat = !options_of(r.point).tile_timeline;
  sim::NetworkResult est;
  if (flat) est = est::estimate_network(model, config, options_of(r.point));

  const std::int64_t pes = static_cast<std::int64_t>(config.array_n) * config.array_n;
  std::int64_t dense_total = 0;
  Counts sum{};
  for (std::size_t i = 0; i < layers.items.size(); ++i) {
    const JsonValue& l = layers.items[i];
    const int idx = static_cast<int>(l.at("index").as_int());
    const std::string where = "layer " + std::to_string(idx);
    if (idx != static_cast<int>(i) + 1) return where + ": out of order";
    const std::int64_t dense = dense_macs(model.layer(idx));
    dense_total += dense;
    const std::int64_t useful = l.at("useful_macs").as_int();
    if (useful != dense)
      return where + ": useful_macs " + std::to_string(useful) +
             " != dense MACs " + std::to_string(dense);
    const Counts c = counts_of(l.at("counts"));
    if (c.mac_ops > useful) return where + ": mac_ops > useful_macs";
    const std::int64_t compute = l.at("compute_cycles").as_int();
    const std::int64_t total = l.at("total_cycles").as_int();
    if (total < compute) return where + ": total_cycles < compute_cycles";
    if (compute * pes < c.mac_ops)
      return where + ": compute_cycles < mac_ops / array_n^2";
    if (std::string e = check_energy(l.at("energy"), c, where); !e.empty())
      return e;
    if (flat) {
      const sim::LayerResult& el = est.layers.at(i);
      if (compute != el.compute_cycles || total != el.total_cycles ||
          l.at("dram_cycles").as_int() != el.dram_cycles)
        return where + ": cycles differ from est::estimate_network";
      if (!(c == counts_of(el.counts)))
        return where + ": access counts differ from est::estimate_network";
    }
    sum = {sum.mac_ops + c.mac_ops,       sum.rf_reads + c.rf_reads,
           sum.rf_writes + c.rf_writes,   sum.inter_pe + c.inter_pe,
           sum.acc_reads + c.acc_reads,   sum.acc_writes + c.acc_writes,
           sum.gb_reads + c.gb_reads,     sum.gb_writes + c.gb_writes,
           sum.dram_words + c.dram_words};
  }

  const JsonValue& totals = doc.at("totals");
  const std::int64_t useful = totals.at("useful_macs").as_int();
  if (useful != dense_total)
    return "totals.useful_macs " + std::to_string(useful) + " != dense MACs " +
           std::to_string(dense_total);
  const Counts tc = counts_of(totals.at("counts"));
  if (!(tc == sum)) return "totals.counts != sum of layer counts";
  if (tc.mac_ops > useful) return "totals: mac_ops > useful_macs";
  if (std::string e = check_energy(totals.at("energy"), tc, "totals"); !e.empty())
    return e;
  if (flat && totals.at("cycles").as_int() != est.total_cycles())
    return "totals.cycles differ from est::estimate_network";
  return "";
}

std::string check_sweep(const Request& r, const JsonValue& doc) {
  if (doc.has("errors")) return "sweep dump carries errors";
  const JsonValue& points = doc.at("points");
  const std::size_t n = r.values.size();
  if (points.items.size() != n)
    return "sweep holds " + std::to_string(points.items.size()) +
           " points, asked for " + std::to_string(n);

  std::vector<std::int64_t> cycles(n);
  std::vector<double> energy(n);
  for (std::size_t i = 0; i < n; ++i) {
    cycles[i] = points.items[i].at("cycles").as_int();
    energy[i] = points.items[i].at("energy").as_double();
  }
  const nn::Model& model = models().at(static_cast<std::size_t>(r.point.model)).model;
  const sched::SimulationOptions options = options_of(r.point);
  const std::vector<sim::AcceleratorConfig> configs = sweep_point_configs(r);
  if (r.screen) {
    const JsonValue& s = doc.at("screening");
    if (s.at("screen_points").as_int() != static_cast<std::int64_t>(n))
      return "screening.screen_points != points asked for";
    if (s.at("screen_error_max_pct").as_double() > kTimelineBoundPct)
      return "screening.screen_error_max_pct over the estimator bound";
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::string where = "point " + std::to_string(i);
    const sim::NetworkResult e = est::estimate_network(model, configs[i], options);
    const std::int64_t est_cycles = e.total_cycles();
    const JsonValue& p = points.items[i];
    if (!options.tile_timeline) {
      if (cycles[i] != est_cycles)
        return where + ": cycles " + std::to_string(cycles[i]) +
               " != estimator " + std::to_string(est_cycles);
      if (!close(energy[i], energy_of(counts_of(e.total_counts())).total()))
        return where + ": energy differs from the estimator's counts";
    } else if (r.screen && p.at("phase").as_string() == "screen") {
      if (cycles[i] != est_cycles)
        return where + ": screen-phase cycles are not the estimate";
    } else {
      if (r.screen && p.at("est_cycles").as_int() != est_cycles)
        return where + ": est_cycles is not the estimate";
      if (pct_off(est_cycles, cycles[i]) > kTimelineBoundPct)
        return where + ": timeline cycles " + std::to_string(cycles[i]) +
               " outside the estimator bound of " + std::to_string(est_cycles);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < n && !dominated; ++j)
      dominated = cycles[j] <= cycles[i] && energy[j] <= energy[i] &&
                  (cycles[j] < cycles[i] || energy[j] < energy[i]);
    if (points.items[i].at("pareto").as_bool() == dominated)
      return "point " + std::to_string(i) + ": pareto flag disagrees with the "
             "recomputed front";
  }

  return "";
}

}  // namespace

std::string check_body(const Request& r, const std::string& body) {
  try {
    const JsonValue doc = util::parse_json(body);
    return r.sweep ? check_sweep(r, doc) : check_report(r, doc);
  } catch (const std::exception& e) {
    return std::string("malformed response: ") + e.what();
  }
}

std::string RepeatLedger::observe(int key, const std::string& body, bool* first) {
  const auto [it, inserted] = first_.try_emplace(key, body);
  if (first) *first = inserted;
  if (inserted || it->second == body) return "";
  std::size_t at = 0;
  while (at < body.size() && at < it->second.size() && body[at] == it->second[at])
    ++at;
  return "repeated body for slot " + std::to_string(key) +
         " differs from the first at byte " + std::to_string(at);
}

}  // namespace pb
