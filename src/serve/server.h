// The sqzserved daemon core: a POSIX-socket HTTP/1.1 server exposing the
// simulator as a long-running service (see ARCHITECTURE.md "Serving").
//
// Endpoints:
//   POST /v1/simulate  JSON request -> core/report run-report JSON,
//                      byte-identical to `sqzsim --json`
//   POST /v1/sweep     JSON request -> core/dse sweep-dump JSON
//   GET  /healthz      readiness JSON: in-flight/queued requests, cache tier
//                      status, journal recovery, coordinator fleet health.
//                      The bare contract is unchanged: 200 means alive, so
//                      probers that only check the status keep working.
//   GET  /metrics      Prometheus text (serve/metrics.h)
//
// With ServerOptions::coordinator.workers non-empty the server runs in
// coordinator mode (serve/coordinator.h): /v1/sweep is sharded across the
// worker fleet instead of simulating locally; /v1/simulate stays local.
//
// One accept thread; each connection is dispatched onto a server-owned
// dispatch pool (see ServerOptions::dispatch_jobs), where the full
// request/response loop runs. The dispatch pool is deliberately separate
// from the process-wide simulation pool: connection handlers are I/O-bound
// (a keep-alive connection parks in poll between requests), so their thread
// count must track max_connections, not core count — on a one-core host the
// global pool has no workers at all and would run handlers inline on the
// accept thread, making keep-alive starve the listener. Simulations
// themselves still fan out on util::ThreadPool::global() (`--jobs`), so
// report provenance — and therefore byte-identity with the local CLI — is
// unchanged. Keep-alive is honored, so a client can issue a design-space
// iteration over one connection. Results flow through the content-addressed
// SimCache; repeated design points never re-simulate.
//
// Fault tolerance (ARCHITECTURE.md "Fault tolerance"): every connection
// carries poll-based deadlines — an idle keep-alive connection is reaped
// after idle_timeout_ms, a request that fails to arrive (or a response that
// fails to drain) within request_timeout_ms is aborted with 408 — bodies
// over max_body_bytes get 413, and connections beyond max_connections are
// shed with 503 + Retry-After instead of queueing. The accept loop backs
// off on EMFILE/ENFILE instead of busy-looping. All of it is counted on
// /metrics and exercised through util/faultinject sites "serve.accept",
// "serve.recv", and "serve.send".
//
// stop() is a graceful drain: the listener closes first, in-flight
// connections finish, then stop() returns. A self-pipe woken by stop() sits
// in the accept loop's and every idle connection's poll set, so neither
// waits out a timer: idle keep-alive connections close at once.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/sweepjournal.h"
#include "serve/api.h"
#include "serve/coordinator.h"
#include "serve/http.h"
#include "serve/metrics.h"
#include "serve/plancache.h"
#include "serve/simcache.h"
#include "util/threadpool.h"

namespace sqz::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";  ///< Bind address (numeric IPv4).
  int port = 8080;                 ///< 0 = ephemeral (see Server::port()).
  std::size_t cache_entries = 1024;
  std::string cache_dir;           ///< Empty = memory tier only.

  /// Compiled-plan cache (serve/plancache.h): result-cache misses replay a
  /// cached plan instead of re-running the compile search. 0 disables it.
  std::size_t plan_cache_entries = 256;
  std::string plan_cache_dir;      ///< Empty = memory tier only.

  /// Non-empty: journal every /v1/sweep design point to
  /// DIR/sweep.sqzj (core/sweepjournal.h) and serve already-journaled
  /// points without re-simulating — crash safety for server-side sweeps.
  std::string sweep_journal_dir;

  /// Deadline for reading one complete request (from its first byte) and,
  /// separately, for draining one response to the peer. Expiry answers 408
  /// (when still possible) and closes the connection.
  int request_timeout_ms = 30000;

  /// Keep-alive connections with no buffered bytes are closed after this
  /// long and counted in sqzserved_idle_closed_total.
  int idle_timeout_ms = 30000;

  /// Request bodies over this cap are refused with 413.
  std::size_t max_body_bytes = 64 * 1024 * 1024;

  /// Concurrent-connection cap; excess connections are shed with
  /// 503 + Retry-After instead of queueing. 0 disables shedding.
  int max_connections = 256;

  /// Connection-handler threads. 0 sizes automatically: max_connections
  /// clamped to [2, 8] (8 when shedding is disabled). Connections beyond
  /// the pool width queue until a handler frees up or the shed cap fires.
  int dispatch_jobs = 0;

  /// Coordinator mode (serve/coordinator.h): with a non-empty worker list,
  /// /v1/sweep is sharded across the fleet instead of simulating locally.
  CoordinatorOptions coordinator;
};

class Server {
 public:
  explicit Server(const ServerOptions& options);
  ~Server();  ///< Calls stop().

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and spawn the accept thread. Throws std::runtime_error
  /// when the address cannot be bound.
  void start();

  /// Graceful shutdown: stop accepting, drain in-flight connections, join.
  /// Idempotent.
  void stop();

  bool running() const { return accepting_.load(); }

  /// The bound port (useful with port 0 in ServerOptions).
  int port() const { return port_; }

  SimCache& cache() { return cache_; }
  /// Null when ServerOptions::plan_cache_entries is 0.
  PlanCache* plan_cache() { return plan_cache_.get(); }
  /// Null unless coordinator mode is on (ServerOptions::coordinator).
  Coordinator* coordinator() { return coordinator_.get(); }
  const Metrics& metrics() const { return metrics_; }

 private:
  void accept_loop();
  void shed_connection(int fd);
  void handle_connection(int fd);
  HttpResponse route(const HttpRequest& request);

  ServerOptions options_;
  SimCache cache_;
  std::unique_ptr<PlanCache> plan_cache_;  ///< May be null (disabled).
  Metrics metrics_;
  std::unique_ptr<core::SweepJournal> sweep_journal_;  ///< May be null.
  std::unique_ptr<Coordinator> coordinator_;           ///< May be null.
  SimService service_;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  ///< Self-pipe: stop() writes, polls read.
  int port_ = 0;
  std::thread accept_thread_;
  std::unique_ptr<util::ThreadPool> dispatch_pool_;  ///< Lives start()..stop().
  std::atomic<bool> accepting_{false};
  std::atomic<bool> stopping_{false};

  std::mutex mu_;
  std::condition_variable drained_cv_;
  int active_connections_ = 0;  ///< Guarded by mu_; drives the drain wait.
};

}  // namespace sqz::serve
