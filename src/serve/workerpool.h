// Health-checked worker registry for coordinator mode
// (serve/coordinator.h).
//
// The fleet is static: the coordinator's --workers list, fixed for the
// pool's lifetime. Health is tracked per worker through a small state
// machine fed by two signals of equal weight: periodic GET /healthz probes
// and chunk-dispatch outcomes (a failed POST is as strong a death rattle as
// a failed probe):
//
//   Healthy  --fail-->  Suspect  --(consecutive fails >= threshold)--> Ejected
//   Suspect  --ok-->    Healthy
//   Ejected  --(probation_ms elapsed)--> Probation   (a single trial probe)
//   Probation --ok--> Healthy        --fail--> Ejected (the timer restarts)
//
// The machine itself (WorkerStateMachine) is pure — time is a parameter, no
// threads, no sockets — so tests table-drive the full transition graph.
//
// Routing is a consistent-hash ring (kVirtualNodes virtual nodes per
// worker at util/hash.h FNV-1a of "host:port#vnode", each passed through a
// 64-bit finalizer so that addresses differing only in their last bytes
// still spread over the whole ring): a design point's key hashes to the
// first usable worker clockwise, so each worker's simcache/plancache stays
// hot on a stable shard of the design space. An ejected worker keeps its
// arcs; routing skips them, so ejection moves only the dead worker's keys
// and every survivor's shard is untouched.
//
// Fault point (util/faultinject.h): "coord.health" fails probes
// deterministically.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/httpclient.h"

namespace sqz::serve {

class Metrics;

/// Probe cadence and ejection thresholds.
struct ProbePolicy {
  int interval_ms = 500;     ///< Prober pass period.
  int timeout_ms = 2000;     ///< Per-probe HTTP deadline.
  int fail_threshold = 3;    ///< Consecutive failures that eject a worker.
  int probation_ms = 2000;   ///< Ejected -> Probation (trial probe) delay.
};

enum class WorkerHealth { Healthy, Suspect, Ejected, Probation };

/// The pure per-worker state machine. Time enters as `now_ms` (any
/// monotonic millisecond clock) so the transition graph is unit-testable
/// without waiting out real probation windows.
class WorkerStateMachine {
 public:
  explicit WorkerStateMachine(const ProbePolicy& policy) : policy_(policy) {}

  WorkerHealth health() const noexcept { return health_; }

  /// Dispatchable? Healthy and Suspect take chunks; Ejected and Probation
  /// do not.
  bool usable() const noexcept {
    return health_ == WorkerHealth::Healthy || health_ == WorkerHealth::Suspect;
  }

  /// Should the prober contact this worker now? Healthy/Suspect/Probation:
  /// always. Ejected: only once probation_ms has elapsed — at which point
  /// the machine moves to Probation (a single trial) and answers true.
  bool probe_due(std::int64_t now_ms);

  /// Feed one probe (or dispatch) outcome at `now_ms`. Returns true when
  /// this outcome newly ejected the worker.
  bool on_result(bool ok, std::int64_t now_ms);

 private:
  ProbePolicy policy_;
  WorkerHealth health_ = WorkerHealth::Healthy;
  int failures_ = 0;               ///< Consecutive failures observed.
  std::int64_t ejected_at_ms_ = 0; ///< Probation timer origin.
};

/// The thread-safe registry + consistent-hash ring, with an optional
/// background prober.
class WorkerPool {
 public:
  static constexpr int kVirtualNodes = 64;

  /// Builds the fleet and its ring once. `metrics` (may be null) receives
  /// workers_up gauge updates and ejection counts.
  WorkerPool(std::vector<HostPort> workers, const ProbePolicy& policy,
             Metrics* metrics = nullptr);
  ~WorkerPool();  ///< Calls stop().

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Spawn the background prober thread. Idempotent with stop().
  void start();
  void stop();

  std::size_t size() const { return addrs_.size(); }
  const HostPort& address(std::size_t worker) const { return addrs_[worker]; }
  WorkerHealth health(std::size_t worker) const;
  std::size_t usable_count() const;  ///< Healthy or Suspect.

  /// Consistent-hash route: the first usable worker clockwise from `hash`,
  /// skipping workers listed in `exclude`. Returns -1 when no usable
  /// worker remains outside the exclusion set.
  int route(std::uint64_t hash, const std::vector<int>& exclude = {}) const;

  /// Feed one dispatch outcome for `worker` into its state machine.
  void report(std::size_t worker, bool ok);

  /// One synchronous probe pass over every due worker (the prober thread
  /// calls this each interval; tests call it directly for determinism).
  void probe_all(std::int64_t now_ms);

  /// Milliseconds on the steady clock — the `now_ms` the pool itself uses.
  static std::int64_t now_ms();

 private:
  bool probe_worker(std::size_t worker) const;  ///< HTTP probe, fault-gated.
  void apply_result_locked(std::size_t worker, bool ok, std::int64_t now);
  std::size_t usable_count_locked() const;
  void prober_loop();

  struct RingEntry {
    std::uint64_t hash;
    int worker;
  };

  const ProbePolicy policy_;
  Metrics* const metrics_;
  const std::vector<HostPort> addrs_;
  std::vector<RingEntry> ring_;  ///< Sorted by hash; fixed after construction.

  mutable std::mutex mu_;
  std::vector<WorkerStateMachine> machines_;  ///< Guarded by mu_.

  std::thread prober_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;  ///< Guarded by stop_mu_.
};

}  // namespace sqz::serve
