#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "util/faultinject.h"
#include "util/json.h"
#include "util/threadpool.h"

namespace sqz::serve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kAcceptBackoffStartMs = 50;
constexpr int kAcceptBackoffCapMs = 800;

int ms_until(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left < 0 ? 0 : static_cast<int>(left);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// Send a response with a drain deadline. Connection fds are non-blocking,
// so a peer that stops reading parks us in poll(POLLOUT) until the
// deadline, never forever. `timed_out` (if non-null) tells a failed send
// apart from a dead peer. The head and the body go out through one
// sendmsg() iovec pair, so a body is never copied behind its headers.
// Routed through the "serve.send" fault point: Errno aborts the send,
// ShortIo delivers a partial write and then aborts (a crashed-writer wire).
bool send_response(int fd, const HttpResponse& resp, int timeout_ms,
                   bool* timed_out = nullptr) {
  if (timed_out) *timed_out = false;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  const std::string head = resp.head();
  const std::size_t total = head.size() + resp.body.size();
  std::size_t sent = 0;
  std::size_t cap = total;
  bool abort_after_cap = false;
  if (util::fault::enabled()) {
    const util::fault::Action a = util::fault::at("serve.send");
    if (a.kind == util::fault::Kind::Errno) return false;
    if (a.kind == util::fault::Kind::ShortIo) {
      cap = std::min(cap, a.bytes);
      abort_after_cap = true;
    }
  }
  while (sent < cap) {
    // The unsent part of [head | body], clipped to `cap`.
    iovec iov[2];
    std::size_t parts = 0;
    if (sent < head.size())
      iov[parts++] = {const_cast<char*>(head.data()) + sent,
                      std::min(head.size(), cap) - sent};
    const std::size_t body_from = std::max(sent, head.size()) - head.size();
    const std::size_t body_to = cap - std::min(cap, head.size());
    if (body_from < body_to)
      iov[parts++] = {const_cast<char*>(resp.body.data()) + body_from,
                      body_to - body_from};
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = parts;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd, POLLOUT, 0};
      const int pr = ::poll(&p, 1, ms_until(deadline));
      if (pr < 0 && errno != EINTR) return false;
      if (ms_until(deadline) == 0) {
        if (timed_out) *timed_out = true;
        return false;
      }
      continue;
    }
    return false;  // peer went away; nothing useful to do
  }
  return !abort_after_cap && sent == total;
}

HttpResponse json_error_response(int status, const std::string& message) {
  return make_response(status, "application/json",
                       "{\"error\": \"" + util::json_escape(message) + "\"}\n");
}

}  // namespace

Server::Server(const ServerOptions& options)
    : options_(options),
      cache_(options.cache_entries, options.cache_dir),
      plan_cache_(options.plan_cache_entries == 0
                      ? nullptr
                      : std::make_unique<PlanCache>(options.plan_cache_entries,
                                                    options.plan_cache_dir)),
      sweep_journal_(options.sweep_journal_dir.empty()
                         ? nullptr
                         : std::make_unique<core::SweepJournal>(
                               options.sweep_journal_dir)),
      coordinator_(options.coordinator.workers.empty()
                       ? nullptr
                       : std::make_unique<Coordinator>(options.coordinator,
                                                       &metrics_)),
      service_(&cache_, sweep_journal_.get(), plan_cache_.get(),
               coordinator_.get()) {}

Server::~Server() { stop(); }

void Server::start() {
  if (listen_fd_ >= 0) throw std::runtime_error("server already started");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("server: bad bind address '" + options_.host +
                             "' (numeric IPv4 required)");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error(std::string("server: socket: ") +
                             std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("server: cannot bind " + options_.host + ":" +
                             std::to_string(options_.port) + ": " + why);
  }
  if (::listen(listen_fd_, 128) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("server: listen: " + why);
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  // Dispatch pool for connection handlers. ThreadPool(j) keeps j - 1
  // workers (its parallel_for_index caller is the remaining job); the
  // accept thread never participates, so size +1 to get the wanted width.
  const int width =
      options_.dispatch_jobs > 0
          ? options_.dispatch_jobs
          : options_.max_connections > 0
                ? std::min(std::max(options_.max_connections, 2), 8)
                : 8;
  dispatch_pool_ = std::make_unique<util::ThreadPool>(width + 1);

  if (::pipe(wake_fds_) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("server: pipe: " + why);
  }
  set_nonblocking(wake_fds_[1]);

  stopping_.store(false);
  accepting_.store(true);
  if (coordinator_) coordinator_->start();  // worker-health prober
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  if (listen_fd_ < 0 && !accept_thread_.joinable()) return;

  stopping_.store(true);
  // One byte that is never read keeps the pipe readable, so every poll set
  // holding its read end returns at once from now on.
  if (wake_fds_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Drain: every dispatched connection holds a slot until its loop exits.
  {
    std::unique_lock<std::mutex> lock(mu_);
    drained_cv_.wait(lock, [this] { return active_connections_ == 0; });
  }
  dispatch_pool_.reset();  // joins the (now idle) handler threads
  if (coordinator_) coordinator_->stop();
  for (int& wake : wake_fds_) {
    if (wake >= 0) ::close(wake);
    wake = -1;
  }
  accepting_.store(false);
}

// Answer an over-cap connection with 503 + Retry-After and close it. Runs
// on the accept thread, so the send deadline is short: a peer that will not
// read two hundred bytes promptly forfeits its goodbye note.
void Server::shed_connection(int fd) {
  metrics_.record_shed();
  set_nonblocking(fd);
  HttpResponse resp = json_error_response(
      503, "server at --max-connections; retry with backoff");
  resp.headers.emplace_back("Retry-After", "1");
  resp.headers.emplace_back("Connection", "close");
  send_response(fd, resp, /*timeout_ms=*/1000);
  ::close(fd);
}

void Server::accept_loop() {
  int backoff_ms = kAcceptBackoffStartMs;
  while (!stopping_.load()) {
    pollfd p[2] = {{listen_fd_, POLLIN, 0}, {wake_fds_[0], POLLIN, 0}};
    const int pr = ::poll(p, 2, -1);
    if (pr <= 0 || !(p[0].revents & POLLIN))
      continue;  // EINTR or the wake pipe: re-check stopping_

    int fd;
    const util::fault::Action a = util::fault::at("serve.accept");
    if (a.kind == util::fault::Kind::Errno) {
      errno = a.err;
      fd = -1;
    } else {
      fd = ::accept(listen_fd_, nullptr, nullptr);
    }
    if (fd < 0) {
      // Out of descriptors (or memory): the listener stays healthy, but
      // accepting again immediately would spin at 100% CPU re-failing.
      // Back off — pending connections wait in the backlog meanwhile.
      if (errno == EMFILE || errno == ENFILE || errno == ENOMEM) {
        metrics_.record_accept_backoff();
        pollfd wake{wake_fds_[0], POLLIN, 0};
        ::poll(&wake, 1, backoff_ms);  // cut short by stop()
        backoff_ms = std::min(backoff_ms * 2, kAcceptBackoffCapMs);
      }
      continue;
    }
    backoff_ms = kAcceptBackoffStartMs;

    int active;
    {
      std::lock_guard<std::mutex> lock(mu_);
      active = active_connections_;
    }
    if (options_.max_connections > 0 && active >= options_.max_connections) {
      shed_connection(fd);
      continue;
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      ++active_connections_;
    }
    dispatch_pool_->submit([this, fd] {
      handle_connection(fd);
      ::close(fd);
      {
        std::lock_guard<std::mutex> lock(mu_);
        --active_connections_;
      }
      drained_cv_.notify_all();
    });
  }
  accepting_.store(false);
}

void Server::handle_connection(int fd) {
  set_nonblocking(fd);
  std::string buffer;
  char chunk[16384];
  const ParseLimits limits{64 * 1024, options_.max_body_bytes};
  const auto request_budget =
      std::chrono::milliseconds(options_.request_timeout_ms);
  const auto idle_budget = std::chrono::milliseconds(options_.idle_timeout_ms);

  // Two clocks: `idle_deadline` runs while the buffer is empty (keep-alive
  // lull), `request_deadline` runs from the first byte of a request until
  // it parses completely. Responses get their own drain deadline inside
  // send_response.
  auto idle_deadline = Clock::now() + idle_budget;
  auto request_deadline = Clock::now() + request_budget;

  for (;;) {
    // Try to serve every complete request already buffered.
    for (;;) {
      HttpRequest request;
      std::size_t consumed = 0;
      std::string parse_error;
      const ParseStatus ps =
          parse_http_request(buffer, request, consumed, &parse_error, limits);
      if (ps == ParseStatus::Error || ps == ParseStatus::TooLarge) {
        const int status = ps == ParseStatus::TooLarge ? 413 : 400;
        if (ps == ParseStatus::TooLarge) metrics_.record_oversize();
        HttpResponse resp = json_error_response(status, parse_error);
        resp.headers.emplace_back("Connection", "close");
        send_response(fd, resp, options_.request_timeout_ms);
        return;
      }
      if (ps == ParseStatus::NeedMore) break;
      buffer.erase(0, consumed);
      // Pipelined bytes already buffered start the next request's clock.
      request_deadline = Clock::now() + request_budget;

      metrics_.request_started();
      const auto t0 = Clock::now();
      HttpResponse resp = route(request);
      const double seconds =
          std::chrono::duration<double>(Clock::now() - t0).count();
      metrics_.record_request(seconds, resp.status);
      metrics_.request_finished();

      const bool close_after = request.wants_close() || stopping_.load();
      resp.headers.emplace_back("Connection",
                                close_after ? "close" : "keep-alive");
      bool send_timed_out = false;
      if (!send_response(fd, resp, options_.request_timeout_ms,
                         &send_timed_out)) {
        if (send_timed_out) metrics_.record_timeout();
        return;
      }
      if (close_after) return;
      idle_deadline = Clock::now() + idle_budget;
    }

    // Wait for more bytes, bounded by whichever deadline applies.
    const bool mid_request = !buffer.empty();
    const auto deadline = mid_request ? request_deadline : idle_deadline;
    if (ms_until(deadline) == 0) {
      if (mid_request) {
        // The peer started a request but never finished it in time.
        metrics_.record_timeout();
        HttpResponse resp = json_error_response(
            408, "request not completed within " +
                     std::to_string(options_.request_timeout_ms) + " ms");
        resp.headers.emplace_back("Connection", "close");
        send_response(fd, resp, /*timeout_ms=*/1000);
      } else if (!stopping_.load()) {
        metrics_.record_idle_closed();
      }
      return;
    }

    // Between requests the wake pipe joins the poll set, so stop() closes
    // an idle keep-alive connection at once. A request in progress polls
    // its socket alone and keeps its deadline through the drain.
    pollfd p[2] = {{fd, POLLIN, 0}, {wake_fds_[0], POLLIN, 0}};
    const int pr = ::poll(p, mid_request ? 1 : 2, ms_until(deadline));
    if (pr < 0 && errno != EINTR) return;
    if (pr > 0 && !(p[0].revents & (POLLIN | POLLHUP | POLLERR)))
      return;  // only the wake pipe: idle at shutdown
    if (pr > 0) {
      std::size_t cap = sizeof(chunk);
      if (util::fault::enabled()) {
        const util::fault::Action a = util::fault::at("serve.recv");
        if (a.kind == util::fault::Kind::Errno) return;  // injected I/O error
        if (a.kind == util::fault::Kind::ShortIo)
          cap = std::min(cap, std::max<std::size_t>(1, a.bytes));
      }
      const ssize_t n = ::recv(fd, chunk, cap, 0);
      if (n == 0) return;  // peer closed
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
          continue;
        return;
      }
      if (buffer.empty())  // first byte of a new request starts its clock
        request_deadline = Clock::now() + request_budget;
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
  }
}

HttpResponse Server::route(const HttpRequest& request) {
  try {
    if (request.target == "/healthz") {
      if (request.method != "GET" && request.method != "HEAD")
        return json_error_response(405, "use GET " + request.target);
      // Readiness JSON. The status code is the liveness contract (200 =
      // alive); the body is for operators and the coordinator's prober.
      const core::SweepJournal* journal = sweep_journal_.get();
      Coordinator* coordinator = coordinator_.get();
      const Metrics::Snapshot m = metrics_.snapshot();
      const SimCache::Stats cs = cache_.stats();
      int active;
      {
        std::lock_guard<std::mutex> lock(mu_);
        active = active_connections_;
      }
      const std::uint64_t accepted = static_cast<std::uint64_t>(active);
      std::string body;
      util::JsonWriter w(body, /*indent=*/0);
      w.begin_object();
      w.member("status", "ok");
      w.member("requests_in_flight", m.in_flight);
      // Connections accepted but not currently executing a request: a
      // proxy for dispatch-queue pressure ahead of the handler pool.
      w.member("dispatch_queue_depth",
               accepted > m.in_flight ? accepted - m.in_flight : 0);
      w.key("cache");
      w.begin_object();
      w.member("entries", cs.entries);
      w.member("disk_tier", options_.cache_dir.empty()
                                ? "disabled"
                                : cs.disk_demoted ? "demoted" : "ok");
      w.end_object();
      w.key("plan_cache");
      w.begin_object();
      w.member("enabled", plan_cache_ != nullptr);
      w.member("entries",
               plan_cache_ ? plan_cache_->stats().entries : std::size_t{0});
      w.end_object();
      w.key("journal");
      w.begin_object();
      w.member("enabled", journal != nullptr);
      w.member("recovered_records",
               journal ? journal->recovery().records : std::size_t{0});
      w.end_object();
      w.key("coordinator");
      w.begin_object();
      w.member("enabled", coordinator != nullptr);
      w.member("workers",
               coordinator ? coordinator->pool().size() : std::size_t{0});
      w.member("workers_up", coordinator ? coordinator->pool().usable_count()
                                         : std::size_t{0});
      w.end_object();
      w.end_object();
      body += '\n';
      return make_response(200, "application/json", std::move(body));
    }
    if (request.target == "/metrics") {
      if (request.method != "GET")
        return json_error_response(405, "use GET /metrics");
      return make_response(200, "text/plain; version=0.0.4",
                           metrics_.render(cache_.stats(),
                                           plan_cache_ ? plan_cache_->stats()
                                                       : PlanCache::Stats{}));
    }
    if (request.target == "/v1/simulate" || request.target == "/v1/sweep") {
      if (request.method != "POST")
        return json_error_response(405, "use POST " + request.target);
      SimService::Result result = request.target == "/v1/simulate"
                                      ? service_.simulate(request.body)
                                      : service_.sweep(request.body);
      if (request.target == "/v1/sweep" && !result.cache_hit)
        metrics_.record_sweep(result.sweep.points, result.sweep.point_errors,
                              result.sweep.resumed, result.sweep.screen_points,
                              result.sweep.screen_kept,
                              result.sweep.screen_error_max_pct);
      HttpResponse resp =
          make_response(200, "application/json", std::move(result.body));
      resp.headers.emplace_back("X-Sqz-Cache",
                                result.cache_hit ? "hit" : "miss");
      // Only meaningful on executed requests with a plan cache in play: a
      // result-cache hit never consults it, and a disabled cache has no
      // hit/miss story to tell.
      if (plan_cache_ && request.target == "/v1/simulate" && !result.cache_hit)
        resp.headers.emplace_back("X-Sqz-Plan",
                                  result.plan_hit ? "hit" : "miss");
      return resp;
    }
    return json_error_response(404, "no such endpoint: " + request.target);
  } catch (const ApiError& e) {
    return json_error_response(e.status(), e.what());
  } catch (const std::exception& e) {
    return json_error_response(500, e.what());
  }
}

}  // namespace sqz::serve
