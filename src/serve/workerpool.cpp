#include "serve/workerpool.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "serve/metrics.h"
#include "util/faultinject.h"
#include "util/hash.h"

namespace sqz::serve {

namespace {

// murmur3's 64-bit finalizer. FNV-1a barely moves its high bits when only
// the last input bytes differ ("host:port#0".."#63"), so raw FNV positions
// would bunch one worker's virtual nodes into a few arcs; the finalizer
// spreads every input bit over the whole word.
std::uint64_t fmix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

bool WorkerStateMachine::probe_due(std::int64_t now_ms) {
  if (health_ != WorkerHealth::Ejected) return true;
  if (now_ms - ejected_at_ms_ < policy_.probation_ms) return false;
  health_ = WorkerHealth::Probation;
  return true;
}

bool WorkerStateMachine::on_result(bool ok, std::int64_t now_ms) {
  bool newly_ejected = false;
  if (ok) {
    failures_ = 0;
    // Any success readmits: a Suspect recovers, a Probation trial passes.
    // A success observed while Ejected (a straggling in-flight dispatch
    // that finally landed) readmits too — the worker evidently lives.
    health_ = WorkerHealth::Healthy;
  } else {
    ++failures_;
    if (health_ == WorkerHealth::Probation || failures_ >= policy_.fail_threshold) {
      // A failed trial (or the last straw) ejects; the probation timer
      // restarts so a dead worker is retried ever after at probation_ms
      // cadence, never faster.
      newly_ejected = health_ != WorkerHealth::Ejected;
      health_ = WorkerHealth::Ejected;
      ejected_at_ms_ = now_ms;
      failures_ = 0;
    } else if (health_ == WorkerHealth::Healthy) {
      health_ = WorkerHealth::Suspect;
    }
  }
  return newly_ejected;
}

WorkerPool::WorkerPool(std::vector<HostPort> workers,
                       const ProbePolicy& policy, Metrics* metrics)
    : policy_(policy),
      metrics_(metrics),
      addrs_(std::move(workers)),
      machines_(addrs_.size(), WorkerStateMachine(policy)) {
  for (std::size_t w = 0; w < addrs_.size(); ++w) {
    const std::string base =
        addrs_[w].host + ":" + std::to_string(addrs_[w].port) + "#";
    for (int v = 0; v < kVirtualNodes; ++v)
      ring_.push_back({fmix64(util::fnv1a64(base + std::to_string(v))),
                       static_cast<int>(w)});
  }
  std::sort(ring_.begin(), ring_.end(), [](const RingEntry& a,
                                           const RingEntry& b) {
    return a.hash != b.hash ? a.hash < b.hash : a.worker < b.worker;
  });
  if (metrics_) metrics_->set_coord_workers_up(addrs_.size());
}

WorkerPool::~WorkerPool() { stop(); }

void WorkerPool::start() {
  if (prober_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stopping_ = false;
  }
  prober_ = std::thread([this] { prober_loop(); });
}

void WorkerPool::stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
}

std::int64_t WorkerPool::now_ms() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now() - Clock::time_point{})
      .count();
}

WorkerHealth WorkerPool::health(std::size_t worker) const {
  std::lock_guard<std::mutex> lock(mu_);
  return machines_[worker].health();
}

std::size_t WorkerPool::usable_count_locked() const {
  std::size_t n = 0;
  for (const WorkerStateMachine& m : machines_) n += m.usable() ? 1 : 0;
  return n;
}

std::size_t WorkerPool::usable_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return usable_count_locked();
}

int WorkerPool::route(std::uint64_t hash,
                      const std::vector<int>& exclude) const {
  if (ring_.empty()) return -1;
  // First ring entry clockwise from `hash`, then walk; each distinct worker
  // is considered at most once, so the scan is bounded even when every arc
  // belongs to unusable workers.
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), fmix64(hash),
      [](const RingEntry& e, std::uint64_t h) { return e.hash < h; });
  std::vector<char> seen(addrs_.size(), 0);
  std::size_t considered = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t step = 0;
       step < ring_.size() && considered < addrs_.size(); ++step, ++it) {
    if (it == ring_.end()) it = ring_.begin();
    const int w = it->worker;
    if (seen[w]) continue;
    seen[w] = 1;
    ++considered;
    if (!machines_[w].usable()) continue;
    if (std::find(exclude.begin(), exclude.end(), w) != exclude.end())
      continue;
    return w;
  }
  return -1;
}

void WorkerPool::apply_result_locked(std::size_t worker, bool ok,
                                     std::int64_t now) {
  const bool ejected = machines_[worker].on_result(ok, now);
  if (metrics_) {
    if (ejected) metrics_->record_coord_ejection();
    metrics_->set_coord_workers_up(usable_count_locked());
  }
}

void WorkerPool::report(std::size_t worker, bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  apply_result_locked(worker, ok, now_ms());
}

bool WorkerPool::probe_worker(std::size_t worker) const {
  const util::fault::Action a = util::fault::at("coord.health");
  if (a.kind == util::fault::Kind::Errno) return false;
  const HostPort& addr = addrs_[worker];
  try {
    HttpRequest req;
    req.method = "GET";
    req.target = "/healthz";
    return http_fetch(addr.host, addr.port, std::move(req),
                      policy_.timeout_ms)
               .status == 200;
  } catch (const FetchError&) {
    return false;
  }
}

void WorkerPool::probe_all(std::int64_t now_ms) {
  // Collect the due set under the lock, probe without it (each probe is a
  // blocking HTTP exchange), then feed outcomes back in.
  std::vector<std::size_t> due;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t w = 0; w < machines_.size(); ++w)
      if (machines_[w].probe_due(now_ms)) due.push_back(w);
  }
  for (const std::size_t w : due) {
    const bool ok = probe_worker(w);
    std::lock_guard<std::mutex> lock(mu_);
    apply_result_locked(w, ok, WorkerPool::now_ms());
  }
}

void WorkerPool::prober_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(stop_mu_);
      if (stop_cv_.wait_for(lock,
                            std::chrono::milliseconds(policy_.interval_ms),
                            [this] { return stopping_; }))
        return;
    }
    probe_all(now_ms());
  }
}

}  // namespace sqz::serve
