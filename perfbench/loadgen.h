// The loopback half of the benchmark: spawn sqzserved, talk HTTP/1.1 to it
// over keep-alive connections, and drive rounds of requests in a closed loop.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"

namespace pb {

/// A sqzserved child process. The destructor stops it (SIGTERM) and reaps it.
class Daemon {
 public:
  Daemon(const std::string& binary, const ServerShape& shape,
         const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  /// VmHWM of the daemon in MiB (peak resident set so far).
  double peak_rss_mb() const;
  /// SIGTERM, then wait for exit. Returns the exit status; idempotent.
  int stop();

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  int status_ = 0;
};

struct Response {
  int status = 0;  ///< 0 = transport failure.
  std::string body;
  std::string error;
};

/// One keep-alive HTTP/1.1 connection to 127.0.0.1:port.
class Conn {
 public:
  explicit Conn(int port);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  Response exchange(const char* method, const char* path,
                    const std::string& body);

 private:
  void open();
  int port_;
  int fd_ = -1;
  std::string buffer_;
};

/// Parse `name value` lines of Prometheus text.
double metric_value(const std::string& metrics, const std::string& name);

struct Served {
  const Request* request = nullptr;
  Response response;
  std::int64_t latency_ns = 0;
};

/// Drives phases over the connections: every request of a phase is sent
/// exactly once, on whichever connection is free next, and the call returns
/// when the whole phase has been answered. `sink` receives every answer, on
/// the connection's thread.
class LoadRunner {
 public:
  LoadRunner(int port, int connections);
  ~LoadRunner();
  LoadRunner(const LoadRunner&) = delete;
  LoadRunner& operator=(const LoadRunner&) = delete;

  void run_round(const Round& round, const std::function<void(Served&&)>& sink);
  /// GET on connection 0 (between rounds only).
  Response get(const char* path);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pb
