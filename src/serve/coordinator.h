// Coordinator mode: shard POST /v1/sweep across a fleet of stock workers
// (ARCHITECTURE.md "Distributed sweeps").
//
// One sqzserved started with --workers host:port,... stops simulating
// sweeps itself and becomes a dispatcher: the sweep's design points are
// routed over the WorkerPool's consistent-hash ring (so each worker's
// simcache/plancache stays hot on a stable shard), grouped into chunks,
// and posted to workers as ordinary /v1/sweep requests over
// serve/httpclient. The response is assembled from the chunk results and
// re-rendered with the same core/dse writer a single node uses — so by
// the journal round-trip property (util/json.h shortest round-trip
// numbers) the distributed dump is byte-identical to the uninterrupted
// single-node run.
//
// Worker death is a routine event, not an error:
//   * a failed chunk (refused connection, timeout, 5xx, injected
//     "coord.dispatch" fault) is requeued to the next worker on the ring,
//     up to max_requeues; exhaustion surfaces each point as a structured
//     PointError with phase "dispatch" — the sweep never hangs or aborts;
//   * chunks in flight longer than straggler_ms are re-dispatched to a
//     different usable worker (work stealing); the first valid result
//     wins and the loser is discarded by point identity. The
//     "coord.steal" fault point stalls a primary dispatch to force this
//     path deterministically;
//   * identical chunks already in flight are deduplicated (single-flight):
//     a second identical sweep attaches to the running chunk's result
//     instead of re-dispatching it;
//   * with a --sweep-journal, every completed point is appended to the
//     coordinator's own journal as chunk results land, so a coordinator
//     SIGKILL + restart re-dispatches only the unfinished points and the
//     resumed dump is byte-identical.
//
// Screened sweeps (sweep.screen) are rejected with 400: the retained
// Pareto band is a property of the whole point set and does not shard.
// /v1/simulate is always served locally by a coordinator.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/api.h"
#include "serve/workerpool.h"

namespace sqz::core {
class SweepJournal;
}

namespace sqz::serve {

struct CoordinatorOptions {
  /// The fleet, as "host:port" strings (sqzserved --workers). Coordinator
  /// mode is active exactly when this is nonempty.
  std::vector<std::string> workers;

  ProbePolicy probe;  ///< Health-check cadence and ejection thresholds.

  int chunk_points = 4;     ///< Design points per dispatched chunk.
  int straggler_ms = 2000;  ///< In-flight age that triggers work stealing.

  /// Per-dispatch HTTP budget: attempts against one worker (with the
  /// httpclient backoff/jitter discipline) and the response deadline.
  int dispatch_attempts = 2;
  int dispatch_base_ms = 50;
  int dispatch_timeout_ms = 60000;

  /// Re-dispatches of one chunk to other workers after its dispatch
  /// failed; exhaustion turns the chunk's points into "dispatch"
  /// PointErrors.
  int max_requeues = 3;
};

class Coordinator {
 public:
  /// Parses and validates the worker list (throws std::invalid_argument on
  /// a malformed endpoint). `metrics` may be null.
  Coordinator(const CoordinatorOptions& options, Metrics* metrics);
  ~Coordinator();  ///< Calls stop().

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  void start();  ///< Start the worker-health prober.
  void stop();

  WorkerPool& pool() { return pool_; }
  const CoordinatorOptions& options() const { return options_; }

  /// Shard, dispatch, and merge one sweep. Blocking; safe to call from
  /// multiple connection handlers concurrently (identical in-flight chunks
  /// are deduplicated across calls). Journals completed points to
  /// `journal` (may be null) as chunks land. Throws ApiError(400) for
  /// screened sweeps.
  std::string run_sweep(const SweepRequest& req, core::SweepJournal* journal,
                        SweepRunStats* stats);

  /// One chunk's in-flight result record — the single-flight unit. Defined
  /// in coordinator.cpp; public so the dispatch machinery can name it.
  struct Flight;

 private:
  /// The single-flight table: chunk request body -> in-flight result.
  std::shared_ptr<Flight> attach_flight(const std::string& chunk_body,
                                        std::size_t chunk_size, bool& owner);
  void finish_flight(const std::string& chunk_body,
                     const std::shared_ptr<Flight>& flight);

  CoordinatorOptions options_;
  Metrics* metrics_;
  WorkerPool pool_;

  std::mutex flights_mu_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;
};

}  // namespace sqz::serve
