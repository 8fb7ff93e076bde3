// sqzbench — end-to-end benchmark of sqzserved (perfbench/README.md).
//
//   sqzbench --workload NAME --seed N --seconds S --trace 0|1
//            --server PATH/sqzserved [--out DIR] [--commit TEXT]
//
// Starts a fresh daemon, sends the workload's warm-up, then whole rounds of
// seeded requests over keep-alive loopback connections in a closed loop for
// S seconds, checks every response, and prints one JSON result line last.
// With --trace 1 it then replays the warm-up and the first rounds in-process
// with spans and reports per-layer metrics instead of end-to-end ones.
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "loadgen.h"
#include "traced.h"
#include "util/threadpool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace pb {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string server;
  std::string out = ".perfbench_out";
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v), have_seed = true;
    else if (k == "--seconds") a.seconds = std::stoi(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--server") a.server = v;
    else if (k == "--out") a.out = v;
    else if (k == "--commit") a.commit = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty() || a.server.empty() || !have_seed || a.seconds < 1)
    throw std::invalid_argument(
        "usage: sqzbench --workload NAME --seed N --seconds S --trace 0|1 "
        "--server PATH [--out DIR] [--commit TEXT]");
  return a;
}

// --- provenance --------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

/// Lines of src/ and tools/ .h/.cpp files, and an FNV-1a digest over their
/// paths and contents (identifies the code when there is no git history).
std::pair<std::size_t, std::string> source_lines() {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const char* dir : {"src", "tools"})
    for (const auto& e : fs::recursive_directory_iterator(dir))
      if (e.is_regular_file() &&
          (e.path().extension() == ".h" || e.path().extension() == ".cpp"))
        files.push_back(e.path());
  std::sort(files.begin(), files.end());
  std::size_t lines = 0;
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&](const std::string& s) {
    for (const unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
  };
  for (const fs::path& f : files) {
    std::ifstream in(f, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    lines += static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
    mix(f.generic_string());
    mix(text);
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return {lines, hex};
}

// --- checking, off the connections' threads ----------------------------------

/// Checks served bodies on its own thread so the connections go straight on
/// to their next request. The queue is bounded: a checker that falls behind
/// slows the load instead of growing memory.
class Checker {
 public:
  Checker() : thread_([this] { loop(); }) {}
  ~Checker() { finish(); }
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  void push(const Request& r, std::string body) {
    std::unique_lock<std::mutex> lock(mu_);
    space_.wait(lock, [&] { return queue_.size() < kCapacity; });
    queue_.push_back({r, std::move(body)});
    ready_.notify_one();
  }

  /// Drain and stop; returns the number of failed checks.
  std::size_t finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    ready_.notify_one();
    if (thread_.joinable()) thread_.join();
    return errors_;
  }
  const std::string& first_error() const { return first_error_; }
  std::size_t checked() const { return checked_; }

 private:
  static constexpr std::size_t kCapacity = 256;
  struct Item {
    Request request;
    std::string body;
  };

  void loop() {
    for (;;) {
      Item item;
      {
        std::unique_lock<std::mutex> lock(mu_);
        ready_.wait(lock, [&] { return closed_ || !queue_.empty(); });
        if (queue_.empty()) return;
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      space_.notify_one();
      std::string error;
      bool first = true;
      if (item.request.key >= 0)
        error = ledger_.observe(item.request.key, item.body, &first);
      if (error.empty() && first) error = check_body(item.request, item.body);
      ++checked_;
      if (!error.empty() && errors_++ == 0) first_error_ = error;
    }
  }

  std::mutex mu_;
  std::condition_variable ready_, space_;
  std::deque<Item> queue_;  // guarded by mu_
  bool closed_ = false;     // guarded by mu_
  // Checker thread only (read after join):
  RepeatLedger ledger_;
  std::size_t errors_ = 0, checked_ = 0;
  std::string first_error_;
  std::thread thread_;  // last: starts after the members above exist
};

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double percentile_ms(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::max<std::size_t>(rank, 1) - 1]) / 1e6;
}

struct RoundStats {
  std::vector<std::int64_t> latencies;
  std::uint64_t points = 0;
  std::int64_t ns = 0;
};

/// Consecutive timed rounds grouped into windows of at least one second; a
/// shorter remainder joins the last window. The end-to-end figures are
/// medians over windows, so a stall of a few seconds on a shared host moves
/// them less than it moves whole-run totals.
std::vector<RoundStats> windows_of(const std::vector<RoundStats>& rounds) {
  constexpr std::int64_t kWindowNs = 1'000'000'000;
  std::vector<RoundStats> out;
  for (const RoundStats& r : rounds) {
    if (out.empty() || out.back().ns >= kWindowNs) out.emplace_back();
    RoundStats& w = out.back();
    w.latencies.insert(w.latencies.end(), r.latencies.begin(), r.latencies.end());
    w.points += r.points;
    w.ns += r.ns;
  }
  if (out.size() > 1 && out.back().ns < kWindowNs) {
    RoundStats last = std::move(out.back());
    out.pop_back();
    out.back().latencies.insert(out.back().latencies.end(), last.latencies.begin(),
                                last.latencies.end());
    out.back().points += last.points;
    out.back().ns += last.ns;
  }
  return out;
}

template <typename F>
double median_over(const std::vector<RoundStats>& windows, F f) {
  std::vector<double> v;
  for (const RoundStats& w : windows) v.push_back(f(w));
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0;
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

int run(const Args& args) {
  std::unique_ptr<Workload> wl = make_workload(args.workload, args.seed);
  if (!wl) throw std::invalid_argument("unknown workload " + args.workload);
  const ServerShape shape = wl->shape();
  std::filesystem::create_directories(args.out);
  const std::string stem =
      args.out + "/" + args.workload + "-" + std::to_string(args.seed);
  (void)models();  // build the model table before timing anything

  const auto [lines, digest] = source_lines();
  utsname host{};
  uname(&host);
  std::cout << "# perfbench " << args.workload << " seed " << args.seed
            << " seconds " << args.seconds << " trace " << args.trace << "\n"
            << "# commit: " << args.commit << "\n"
            << "# src+tools: " << lines << " lines of .h/.cpp, digest " << digest
            << "\n"
            << "# compiler: " << __VERSION__ << ", build " << PERFBENCH_BUILD_TYPE
            << "\n"
            << "# host: " << host.sysname << " " << host.release << ", nproc "
            << sysconf(_SC_NPROCESSORS_ONLN) << ", cpu " << cpu_model() << "\n"
            << "# daemon: --jobs " << shape.jobs << ", " << shape.connections
            << " keep-alive connections, result cache " << shape.cache_entries
            << ", plan cache " << shape.plan_cache_entries << "\n"
            << "# inputs: " << wl->describe() << "\n";

  // Ops that came back as anything but 200 count as failed; every 200 body
  // goes to the checker.
  std::mutex mu;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<RoundStats> timed_rounds;
  std::string first_failure;
  bool timed = false, keep_bodies = false;
  std::unordered_map<std::string, std::string> served;  // request -> body
  Checker checker;
  const std::function<void(Served&&)> sink = [&](Served&& s) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ++attempted;
      if (s.response.status != 200) {
        if (failed++ == 0)
          first_failure = "HTTP " + std::to_string(s.response.status) + " " +
                          s.response.error + s.response.body.substr(0, 200);
        return;
      }
      if (timed) {
        timed_rounds.back().latencies.push_back(s.latency_ns);
        timed_rounds.back().points += s.request->points();
      }
      if (keep_bodies) served.try_emplace(s.request->body, s.response.body);
    }
    checker.push(*s.request, std::move(s.response.body));
  };

  // Set-up: daemon start to the end of the warm-up.
  const Round warmup = wl->warmup();
  const std::int64_t spawn = now_ns();
  Daemon daemon(args.server, shape, stem + ".daemon.log");
  std::optional<LoadRunner> runner(std::in_place, daemon.port(), shape.connections);
  const auto set_flags = [&](bool t, bool keep) {
    std::lock_guard<std::mutex> lock(mu);
    timed = t;
    keep_bodies = keep;
  };
  set_flags(false, args.trace);
  runner->run_round(warmup, sink);
  const double setup_s = static_cast<double>(now_ns() - spawn) / 1e9;

  // Timed: whole rounds until the time is up.
  std::size_t rounds = 0;
  const std::int64_t t0 = now_ns();
  const std::int64_t budget = static_cast<std::int64_t>(args.seconds) * 1'000'000'000;
  do {
    const Round round = wl->round(rounds);
    {
      std::lock_guard<std::mutex> lock(mu);
      timed_rounds.emplace_back();
    }
    set_flags(true, args.trace && rounds < wl->traced_rounds());
    const std::int64_t r0 = now_ns();
    runner->run_round(round, sink);
    timed_rounds.back().ns = now_ns() - r0;
    ++rounds;
  } while (now_ns() - t0 < budget || (args.trace && rounds < wl->traced_rounds()));
  const double elapsed_s = static_cast<double>(now_ns() - t0) / 1e9;
  set_flags(false, false);

  const Response metrics = runner->get("/metrics");
  if (metrics.status != 200) throw std::runtime_error("GET /metrics failed");
  const double peak_rss_mb = daemon.peak_rss_mb();
  runner.reset();
  const int daemon_status = daemon.stop();
  const std::size_t check_errors = checker.finish();

  std::vector<std::string> problems;
  if (check_errors)
    problems.push_back(std::to_string(check_errors) + " responses failed checks; first: " +
                       checker.first_error());
  if (daemon_status != 0)
    problems.push_back("sqzserved exited with status " + std::to_string(daemon_status));

  const double hits = metric_value(metrics.body, "sqzserved_cache_hits_total");
  const double misses = metric_value(metrics.body, "sqzserved_cache_misses_total");
  const double plan_hits = metric_value(metrics.body, "sqzserved_plan_hits_total");
  const double simulations = misses - plan_hits;
  const Expected want = wl->expected(rounds);
  const auto expect = [&](const char* what, double got, std::uint64_t w) {
    if (got != static_cast<double>(w))
      problems.push_back(std::string("/metrics ") + what + " " + number(got) +
                         ", the schedule predicts " + std::to_string(w));
  };
  expect("result hits", hits, want.result_hits);
  expect("plan hits", plan_hits, want.plan_hits);
  expect("simulations", simulations, want.simulations);

  std::vector<std::int64_t> latencies;
  std::uint64_t points = 0;
  for (const RoundStats& r : timed_rounds) {
    latencies.insert(latencies.end(), r.latencies.begin(), r.latencies.end());
    points += r.points;
  }
  const std::vector<RoundStats> windows = windows_of(timed_rounds);
  std::cout << "# run: " << rounds << " timed rounds in " << windows.size()
            << " windows, " << latencies.size() << " timed requests, " << points
            << " design points in " << number(elapsed_s) << " s; attempted "
            << attempted << ", failed " << failed << ", checked "
            << checker.checked() << "\n"
            << "# whole run: " << number(static_cast<double>(points) / elapsed_s)
            << " points/s, latency p50 " << number(percentile_ms(latencies, 0.5))
            << " ms, p90 " << number(percentile_ms(latencies, 0.9)) << " ms, deciles";
  for (int d = 1; d < 10; ++d) std::cout << " " << number(percentile_ms(latencies, d / 10.0));
  std::cout << "\n"
            << "# /metrics: result hits " << number(hits) << ", misses "
            << number(misses) << ", plan hits " << number(plan_hits) << "\n";
  if (failed) std::cerr << "sqzbench: first failed request: " << first_failure << "\n";

  std::vector<Metric> out;
  if (!args.trace) {
    out = {{"points_per_s",
            median_over(windows,
                        [](const RoundStats& w) {
                          return static_cast<double>(w.points) * 1e9 /
                                 static_cast<double>(w.ns);
                        }),
            "1/s"},
           {"latency_p50_ms",
            median_over(windows,
                        [](const RoundStats& w) { return percentile_ms(w.latencies, 0.5); }),
            "ms"},
           {"latency_p90_ms",
            median_over(windows,
                        [](const RoundStats& w) { return percentile_ms(w.latencies, 0.9); }),
            "ms"},
           {"setup_s", setup_s, "s"},
           {"peak_rss_mb", peak_rss_mb, "MiB"}};
  } else {
    util::ThreadPool::set_global_jobs(shape.jobs);  // reports record jobs
    std::vector<Round> replay;
    for (std::size_t r = 0; r < wl->traced_rounds(); ++r) replay.push_back(wl->round(r));
    const TraceSummary t = traced_replay(shape, warmup, replay, served,
                                         stem + ".trace.json", stem + ".layers.csv");
    if (!t.mismatch.empty()) problems.push_back("traced replay: " + t.mismatch);
    for (const char* span :
         {"serve.http", "serve.parse", "serve.canonicalize", "serve.cache",
          "serve.plan_replay", "sim.conv_ws", "sim.conv_os", "sim.dwconv_ws",
          "sim.dwconv_os", "sim.fc", "sim.simd", "sched.residency",
          "sim.timeline", "est.estimate", "energy.energy", "core.report",
          "core.validate", "core.key", "core.pareto", "core.dump"}) {
      const auto it = t.self_ms.find(span);
      out.push_back({std::string(span) + "_ms", it == t.self_ms.end() ? 0.0 : it->second,
                     "ms"});
    }
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    out.push_back({"sim.layers_simulated", d(t.layers_simulated), "count"});
    out.push_back({"est.layers_estimated", d(t.layers_estimated), "count"});
    out.push_back({"core.points_screened", d(t.points_screened), "count"});
    out.push_back({"core.points_resimulated", d(t.points_resimulated), "count"});
    out.push_back({"core.screen_keep_ratio",
                   t.points_screened ? d(t.points_resimulated) / d(t.points_screened) : 0.0,
                   "ratio"});
    out.push_back({"serve.result_hits", hits, "count"});
    out.push_back({"serve.plan_hits", plan_hits, "count"});
    out.push_back({"serve.simulations", simulations, "count"});
    out.push_back({"serve.result_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
                   "ratio"});
    out.push_back({"trace.overhead_pct",
                   100.0 * (t.traced_ms - t.untraced_ms) / t.untraced_ms, "%"});
    out.push_back({"trace.coverage_pct", 100.0 * t.stage_ms / t.untraced_ms, "%"});
    double mean_latency_ms = 0;
    for (const std::int64_t l : latencies) mean_latency_ms += static_cast<double>(l) / 1e6;
    mean_latency_ms /= static_cast<double>(std::max<std::size_t>(1, latencies.size()));
    std::cout << "# traced replay: " << t.requests << " requests, untraced "
              << number(t.untraced_ms) << " ms, traced " << number(t.traced_ms)
              << " ms, stage spans " << number(t.stage_ms)
              << " ms; loopback mean latency " << number(mean_latency_ms)
              << " ms/request vs in-process "
              << number(t.untraced_ms / static_cast<double>(t.requests))
              << " ms/request\n"
              << "# trace files: " << stem << ".trace.json, " << stem
              << ".layers.csv\n";
  }
  for (const std::string& p : problems) std::cerr << "sqzbench: " << p << "\n";

  std::cout << "{\"correct\": " << (problems.empty() ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i)
    std::cout << (i ? ", " : "") << "\"" << out[i].name << "\": {\"value\": "
              << number(out[i].value) << ", \"unit\": \"" << out[i].unit << "\"}";
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  try {
    return pb::run(pb::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "sqzbench: " << e.what() << "\n";
    return 2;
  }
}
