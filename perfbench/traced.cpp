#include "traced.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "core/dse.h"
#include "core/report.h"
#include "core/validate.h"
#include "energy/model.h"
#include "est/estimator.h"
#include "nn/serialize.h"
#include "sched/compile.h"
#include "sched/plan_io.h"
#include "sched/residency.h"
#include "sched/selector.h"
#include "serve/api.h"
#include "serve/http.h"
#include "serve/plancache.h"
#include "serve/simcache.h"
#include "sim/layer_sim.h"

namespace pb {
namespace {

// --- span recorder -----------------------------------------------------------

struct Span {
  const char* name;
  int parent;
  std::int64_t start, end;
  int request;
  int model;  ///< Index into Tracer::model_names, or -1.
  int layer;  ///< DNN layer index, or -1.
};

struct Tracer {
  std::vector<Span> spans;
  int current = -1;
  int request = 0;
  std::vector<std::string> model_names;
  std::map<std::string, int> model_ids;
  std::uint64_t layers_simulated = 0, layers_estimated = 0;
  std::uint64_t points_screened = 0, points_resimulated = 0;

  int model_id(const std::string& name) {
    const auto [it, inserted] =
        model_ids.try_emplace(name, static_cast<int>(model_names.size()));
    if (inserted) model_names.push_back(name);
    return it->second;
  }
};

class Scope {
 public:
  Scope(Tracer& t, const char* name, int model = -1, int layer = -1)
      : t_(t), id_(static_cast<int>(t.spans.size())) {
    t.spans.push_back({name, t.current, now_ns(), 0, t.request, model, layer});
    t.current = id_;
  }
  ~Scope() {
    Span& s = t_.spans[static_cast<std::size_t>(id_)];
    s.end = now_ns();
    t_.current = s.parent;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// --- sched::simulate_network, call by call -----------------------------------

const char* layer_span(const nn::Layer& l, sim::Dataflow df) {
  if (l.is_fc()) return "sim.fc";
  if (!l.is_conv()) return "sim.simd";
  const bool ws = df == sim::Dataflow::WeightStationary;
  if (l.is_depthwise()) return ws ? "sim.dwconv_ws" : "sim.dwconv_os";
  return ws ? "sim.conv_ws" : "sim.conv_os";
}

sim::LayerResult sim_layer(Tracer& t, int model_id, const nn::Model& model,
                           int i, const sim::AcceleratorConfig& config,
                           sim::Dataflow df, sim::TensorPlacement placement) {
  Scope s(t, layer_span(model.layer(i), df), model_id, i);
  ++t.layers_simulated;
  return sim::simulate_layer(model, i, config, df, placement);
}

// Mirrors sched::simulate_network (residency plan, per-layer dataflow
// selection, optional re-timing) and, with `pins`, the pinned replay of
// sched::simulate_with_plan. Pool-drain fusion is in no workload.
sim::NetworkResult traced_network(Tracer& t, const nn::Model& model,
                                  const sim::AcceleratorConfig& config,
                                  const sched::SimulationOptions& options,
                                  const std::vector<sim::Dataflow>* pins) {
  if (options.fuse_pool_drain)
    throw std::invalid_argument("traced replay: fuse is in no workload");
  config.validate();
  const int mid = t.model_id(model.name());
  sched::ResidencyPlan plan;
  {
    Scope s(t, "sched.residency");
    plan = sched::plan_residency(model, config);
  }
  sim::NetworkResult result;
  result.model_name = model.name();
  result.config = config;
  result.layers.reserve(static_cast<std::size_t>(model.layer_count()));
  for (int i = 1; i < model.layer_count(); ++i) {
    const nn::Layer& l = model.layer(i);
    const sim::TensorPlacement placement = plan.placement_for(model, i);
    const bool has_choice =
        l.is_conv() && config.support == sim::DataflowSupport::Hybrid;
    sim::LayerResult chosen;
    if (has_choice && pins) {
      chosen = sim_layer(t, mid, model, i, config,
                         (*pins)[static_cast<std::size_t>(i)], placement);
    } else if (has_choice) {
      sim::LayerResult ws = sim_layer(t, mid, model, i, config,
                                      sim::Dataflow::WeightStationary, placement);
      sim::LayerResult os = sim_layer(t, mid, model, i, config,
                                      sim::Dataflow::OutputStationary, placement);
      bool take_ws = false;
      if (options.objective == sched::Objective::Cycles) {
        take_ws = static_cast<double>(ws.total_cycles) <=
                  static_cast<double>(os.total_cycles);
      } else {
        Scope s(t, "energy.energy");
        take_ws = energy::energy_of(ws.counts, options.units).total() <=
                  energy::energy_of(os.counts, options.units).total();
      }
      chosen = take_ws ? std::move(ws) : std::move(os);
    } else {
      chosen = sim_layer(
          t, mid, model, i, config,
          sim::effective_dataflow(l, config, sim::Dataflow::WeightStationary),
          placement);
    }
    if (options.tile_timeline) {
      Scope s(t, "sim.timeline", mid, i);
      result.layers.push_back(sim::retime_layer(model, chosen, config, placement,
                                                options.double_buffered,
                                                options.tile_search));
    } else {
      result.layers.push_back(std::move(chosen));
    }
  }
  return result;
}

// --- serve::SimService, call by call ------------------------------------------

struct Caches {
  serve::SimCache results;
  serve::PlanCache plans;
  explicit Caches(const ServerShape& shape)
      : results(shape.cache_entries), plans(shape.plan_cache_entries) {}
};

std::string traced_simulate(Tracer& t, Caches& c, const std::string& body,
                            bool& hit, bool& plan_hit) {
  std::optional<serve::SimulateRequest> req;
  {
    Scope s(t, "serve.parse");
    req.emplace(serve::parse_simulate_request(body));
  }
  std::string key;
  {
    Scope s(t, "serve.canonicalize");
    key = serve::canonical_key(*req);
  }
  std::optional<std::string> cached;
  {
    Scope s(t, "serve.cache");
    cached = c.results.get(key);
  }
  hit = cached.has_value();
  if (hit) return *cached;

  std::optional<sched::PlanArtifact> plan;
  {
    Scope s(t, "serve.cache");
    plan = c.plans.get(key, sched::model_identity_hash(req->model), req->config,
                       req->options);
  }
  plan_hit = plan.has_value();
  std::string out;
  if (plan) {
    Scope s(t, "serve.plan_replay");
    plan->program.validate(req->model.layer_count());
    std::vector<sim::Dataflow> pins(
        static_cast<std::size_t>(req->model.layer_count()),
        sim::Dataflow::WeightStationary);
    for (const sched::LayerCommand& cmd : plan->program.commands)
      if (cmd.unit == sched::LayerCommand::Unit::PeArray)
        pins[static_cast<std::size_t>(cmd.layer_idx)] = cmd.dataflow;
    const sim::NetworkResult result =
        traced_network(t, req->model, req->config, req->options, &pins);
    Scope r(t, "core.report");
    out = core::json_report_string(req->model, result, req->options.units);
  } else {
    const sim::NetworkResult result =
        traced_network(t, req->model, req->config, req->options, nullptr);
    {
      Scope r(t, "core.report");
      out = core::json_report_string(req->model, result, req->options.units);
    }
    Scope s(t, "serve.cache");
    c.plans.put(key, sched::plan_from_result(req->model, req->config,
                                             req->options, result));
  }
  Scope s(t, "serve.cache");
  c.results.put(key, out);
  return out;
}

// Peel successive Pareto fronts (core::pareto_front keeps input order) until
// ceil(keep x n) points are retained — the screened sweep's band.
std::vector<std::size_t> retain_band(const std::vector<core::DesignPoint>& slots,
                                     double keep) {
  const std::size_t target = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(std::clamp(keep, 0.0, 1.0) *
                                            static_cast<double>(slots.size()))));
  std::vector<std::size_t> remaining(slots.size()), kept;
  std::iota(remaining.begin(), remaining.end(), 0);
  while (kept.size() < target && !remaining.empty()) {
    std::vector<core::DesignPoint> pts;
    for (const std::size_t i : remaining) pts.push_back(slots[i]);
    const std::vector<core::DesignPoint> front = core::pareto_front(pts);
    std::vector<std::size_t> rest;
    std::size_t f = 0;
    for (std::size_t k = 0; k < remaining.size(); ++k) {
      if (f < front.size() && front[f].label == pts[k].label) {
        kept.push_back(remaining[k]);
        ++f;
      } else {
        rest.push_back(remaining[k]);
      }
    }
    if (f == 0) break;  // unreachable: a finite set has a front
    remaining = std::move(rest);
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

// Mirrors core::evaluate_designs_checked (no journal, one job) and the dump.
std::string traced_sweep(Tracer& t, Caches& c, const std::string& body, bool& hit) {
  std::optional<serve::SweepRequest> req;
  {
    Scope s(t, "serve.parse");
    req.emplace(serve::parse_sweep_request(body));
  }
  std::string key;
  {
    Scope s(t, "serve.canonicalize");
    key = serve::canonical_key(*req);
  }
  std::optional<std::string> cached;
  {
    Scope s(t, "serve.cache");
    cached = c.results.get(key);
  }
  hit = cached.has_value();
  if (hit) return *cached;

  const auto configs = serve::sweep_configs(*req);
  const nn::Model& model = req->base.model;
  const sched::SimulationOptions& opts = req->base.options;
  const std::size_t n = configs.size();
  std::vector<std::string> keys(n);
  std::string model_text;
  {
    Scope s(t, "core.key");
    model_text = nn::serialize_model(model);
  }
  for (std::size_t i = 0; i < n; ++i) {
    Scope s(t, "core.key");
    keys[i] = core::design_point_key(model_text, configs[i].first,
                                     configs[i].second, opts.objective);
  }

  std::vector<core::DesignPoint> slots(n);
  const auto evaluate = [&](std::size_t i, bool preflight, bool analytical) {
    if (preflight) {
      core::ValidationReport report;
      {
        Scope s(t, "core.validate");
        report = core::validate_design(model, configs[i].second);
      }
      if (!report.ok()) throw core::ValidationError(report.summary());
    }
    sim::NetworkResult net;
    if (analytical) {
      Scope s(t, "est.estimate");
      net = est::estimate_network(model, configs[i].second, opts);
      t.layers_estimated += net.layers.size();
    } else {
      net = traced_network(t, model, configs[i].second, opts, nullptr);
    }
    core::DesignPoint& p = slots[i];
    p.label = configs[i].first;
    p.config = configs[i].second;
    p.cycles = net.total_cycles();
    {
      Scope s(t, "energy.energy");
      p.energy = energy::network_energy(net, opts.units).total();
    }
    p.utilization = net.utilization();
  };
  for (std::size_t i = 0; i < n; ++i) evaluate(i, true, req->screen);

  core::SweepOutcome outcome;
  if (req->screen) {
    outcome.screened = true;
    for (core::DesignPoint& p : slots) {
      p.phase = core::DesignPoint::Phase::Screen;
      p.est_cycles = p.cycles;
      p.est_energy = p.energy;
    }
    outcome.screen_points = n;
    std::vector<std::size_t> kept;
    {
      Scope s(t, "core.pareto");
      kept = retain_band(slots, req->screen_keep);
    }
    outcome.screen_kept = kept.size();
    t.points_screened += n;
    t.points_resimulated += kept.size();
    for (const std::size_t j : kept) {
      Scope s(t, "core.key");
      keys[j] = core::design_point_key(model_text, configs[j].first,
                                       configs[j].second, opts.objective);
    }
    for (const std::size_t j : kept) {
      evaluate(j, false, false);
      core::DesignPoint& p = slots[j];
      p.phase = core::DesignPoint::Phase::Exact;
      if (p.cycles > 0)
        outcome.screen_error_max_pct = std::max(
            outcome.screen_error_max_pct,
            100.0 * std::abs(static_cast<double>(p.est_cycles - p.cycles)) /
                static_cast<double>(p.cycles));
    }
  }
  outcome.points = std::move(slots);
  {
    // The dump scans the front inline; this times the same scan on its own.
    Scope s(t, "core.pareto");
    if (core::pareto_front(outcome.points).empty())
      throw std::logic_error("empty Pareto front");
  }
  std::ostringstream os;
  {
    Scope s(t, "core.dump");
    core::write_sweep_outcome_json(req->knob + " on " + req->base.model_label,
                                   outcome, os);
  }
  std::string out = os.str();
  Scope s(t, "serve.cache");
  c.results.put(key, out);
  return out;
}

std::string wire_request(const Request& r) {
  return std::string("POST ") + r.path() +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
         "Content-Length: " + std::to_string(r.body.size()) + "\r\n\r\n" + r.body;
}

serve::HttpRequest parse_wire(const std::string& wire) {
  serve::HttpRequest req;
  std::size_t consumed = 0;
  std::string error;
  if (serve::parse_http_request(wire, req, consumed, &error) !=
      serve::ParseStatus::Ok)
    throw std::runtime_error("replay: unparsable request: " + error);
  return req;
}

std::string frame_response(const Request& r, const std::string& body, bool hit,
                           bool plan_hit) {
  serve::HttpResponse resp = serve::make_response(200, "application/json", body);
  resp.headers.emplace_back("X-Sqz-Cache", hit ? "hit" : "miss");
  if (!r.sweep && !hit) resp.headers.emplace_back("X-Sqz-Plan", plan_hit ? "hit" : "miss");
  return resp.serialize();
}

std::string traced_request(Tracer& t, Caches& c, const Request& r,
                           const std::string& wire) {
  Scope root(t, "request");
  serve::HttpRequest http;
  {
    Scope s(t, "serve.http");
    http = parse_wire(wire);
  }
  bool hit = false, plan_hit = false;
  std::string body = r.sweep ? traced_sweep(t, c, http.body, hit)
                             : traced_simulate(t, c, http.body, hit, plan_hit);
  Scope s(t, "serve.http");
  if (frame_response(r, body, hit, plan_hit).empty())
    throw std::logic_error("empty response");
  return body;
}

void untraced_request(serve::SimService& svc, const Request& r,
                      const std::string& wire) {
  const serve::HttpRequest http = parse_wire(wire);
  const serve::SimService::Result res =
      r.sweep ? svc.sweep(http.body) : svc.simulate(http.body);
  if (frame_response(r, res.body, res.cache_hit, res.plan_hit).empty())
    throw std::logic_error("empty response");
}

void write_chrome_trace(const Tracer& t, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  const std::int64_t t0 = t.spans.empty() ? 0 : t.spans.front().start;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  char buf[64];
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const Span& s = t.spans[i];
    out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1";
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start - t0) / 1e3,
                  static_cast<double>(s.end - s.start) / 1e3);
    out << buf << ",\"args\":{\"request\":" << s.request;
    if (s.model >= 0)
      out << ",\"model\":\"" << t.model_names[static_cast<std::size_t>(s.model)]
          << "\",\"layer\":" << s.layer;
    out << "}}";
  }
  out << "\n]}\n";
}

void write_layer_table(const Tracer& t, const std::string& path,
                       const std::vector<std::int64_t>& self_ns) {
  struct Row {
    std::uint64_t calls = 0;
    std::int64_t ns = 0;
  };
  std::map<std::tuple<int, int, std::string>, Row> rows;
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const Span& s = t.spans[i];
    if (s.layer < 0) continue;
    Row& row = rows[{s.model, s.layer, s.name}];
    ++row.calls;
    row.ns += self_ns[i];
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "model,layer,span,calls,self_us,mean_us\n";
  for (const auto& [k, row] : rows) {
    const auto& [model, layer, name] = k;
    out << t.model_names[static_cast<std::size_t>(model)] << "," << layer << ","
        << name << "," << row.calls << ","
        << static_cast<double>(row.ns) / 1e3 << ","
        << static_cast<double>(row.ns) / 1e3 / static_cast<double>(row.calls)
        << "\n";
  }
}

}  // namespace

TraceSummary traced_replay(const ServerShape& shape, const Round& warmup,
                           const std::vector<Round>& rounds,
                           const std::unordered_map<std::string, std::string>& served,
                           const std::string& trace_path,
                           const std::string& layers_path) {
  TraceSummary sum;
  // Wire bytes are the client's work: built before either pass.
  std::vector<std::pair<const Request*, std::string>> warm, timed;
  for (const Phase& p : warmup)
    for (const Request& r : p) warm.emplace_back(&r, wire_request(r));
  for (const Round& round : rounds)
    for (const Phase& p : round)
      for (const Request& r : p) timed.emplace_back(&r, wire_request(r));
  sum.requests = timed.size();

  // Untraced and traced passes alternate twice, each from empty caches and
  // the warm-up; the faster of each pair is kept, and the spans of the last.
  const auto untraced_pass = [&] {
    serve::SimCache results(shape.cache_entries);
    serve::PlanCache plans(shape.plan_cache_entries);
    serve::SimService svc(&results, nullptr, &plans);
    for (const auto& [r, wire] : warm) untraced_request(svc, *r, wire);
    const std::int64_t t0 = now_ns();
    for (const auto& [r, wire] : timed) untraced_request(svc, *r, wire);
    return static_cast<double>(now_ns() - t0) / 1e6;
  };
  Tracer t;
  std::vector<std::string> bodies;
  const auto traced_pass = [&] {
    t = Tracer{};
    bodies.clear();
    Caches caches(shape);
    {
      Tracer warm_tracer;
      for (const auto& [r, wire] : warm) traced_request(warm_tracer, caches, *r, wire);
    }
    t.spans.reserve(1 << 16);
    const std::int64_t t0 = now_ns();
    for (const auto& [r, wire] : timed) {
      bodies.push_back(traced_request(t, caches, *r, wire));
      ++t.request;
    }
    return static_cast<double>(now_ns() - t0) / 1e6;
  };
  sum.untraced_ms = untraced_pass();
  sum.traced_ms = traced_pass();
  sum.untraced_ms = std::min(sum.untraced_ms, untraced_pass());
  sum.traced_ms = std::min(sum.traced_ms, traced_pass());

  for (std::size_t i = 0; i < timed.size() && sum.mismatch.empty(); ++i) {
    const auto it = served.find(timed[i].first->body);
    if (it == served.end())
      sum.mismatch = "request " + std::to_string(i) + " was not served";
    else if (it->second != bodies[i])
      sum.mismatch = "request " + std::to_string(i) +
                     ": traced replay body differs from the served body";
  }

  std::vector<std::int64_t> self_ns(t.spans.size());
  for (std::size_t i = 0; i < t.spans.size(); ++i)
    self_ns[i] += t.spans[i].end - t.spans[i].start;
  for (const Span& s : t.spans)
    if (s.parent >= 0)
      self_ns[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const double ms = static_cast<double>(self_ns[i]) / 1e6;
    sum.self_ms[t.spans[i].name] += ms;
    if (t.spans[i].parent >= 0) sum.stage_ms += ms;
  }
  sum.layers_simulated = t.layers_simulated;
  sum.layers_estimated = t.layers_estimated;
  sum.points_screened = t.points_screened;
  sum.points_resimulated = t.points_resimulated;
  write_chrome_trace(t, trace_path);
  write_layer_table(t, layers_path, self_ns);
  return sum;
}

}  // namespace pb
