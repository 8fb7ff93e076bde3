// The traced run (perfbench/README.md, "Traced run"): replay a workload's
// inputs in-process through the public functions of serve, nn, sched, sim,
// est, energy and core, with a span around each call, and derive per-layer
// self times from the spans.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>

#include "bench.h"

namespace pb {

struct TraceSummary {
  /// Self time per span name, ms, summed over the replay.
  std::map<std::string, double> self_ms;
  std::uint64_t layers_simulated = 0;
  std::uint64_t layers_estimated = 0;
  std::uint64_t points_screened = 0;
  std::uint64_t points_resimulated = 0;
  /// Wall time of the timed rounds replayed untraced and traced.
  double untraced_ms = 0;
  double traced_ms = 0;
  /// Sum of all stage spans' self time (everything but the per-request root).
  double stage_ms = 0;
  std::size_t requests = 0;
  /// First disagreement with the served bodies, or "".
  std::string mismatch;
};

/// Replay `warmup` (untimed, untraced) and then `rounds`, once untraced
/// through serve::SimService and once traced. Every traced body must equal
/// `served[request body]` byte for byte. Writes a Chrome trace of the
/// traced rounds to `trace_path` and the per-DNN-layer table to
/// `layers_path` (CSV).
TraceSummary traced_replay(const ServerShape& shape, const Round& warmup,
                           const std::vector<Round>& rounds,
                           const std::unordered_map<std::string, std::string>& served,
                           const std::string& trace_path,
                           const std::string& layers_path);

}  // namespace pb
