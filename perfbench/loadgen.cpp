#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace pb {

// --- Daemon ------------------------------------------------------------------

Daemon::Daemon(const std::string& binary, const ServerShape& shape,
               const std::string& log_path) {
  const std::vector<std::string> args = {
      binary,
      "--host", "127.0.0.1",
      "--port", "0",
      "--jobs", std::to_string(shape.jobs),
      "--cache-entries", std::to_string(shape.cache_entries),
      "--plan-cache-entries", std::to_string(shape.plan_cache_entries),
      // One dispatch thread per benchmark connection.
      "--max-connections", std::to_string(shape.connections)};
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot start " + binary + ": " + std::strerror(rc));
  }

  // sqzserved prints (and flushes) "sqzserved listening on HOST:PORT ..."
  // once the socket is bound.
  const std::int64_t deadline = now_ns() + 30'000'000'000LL;
  while (port_ == 0) {
    std::ifstream log(log_path);
    std::string line;
    while (std::getline(log, line)) {
      const std::size_t at = line.find("listening on 127.0.0.1:");
      if (at != std::string::npos)
        port_ = std::atoi(line.c_str() + at + std::strlen("listening on 127.0.0.1:"));
    }
    if (port_ != 0) break;
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("sqzserved exited during start-up; see " + log_path);
    }
    if (now_ns() > deadline) {
      stop();
      throw std::runtime_error("sqzserved did not start within 30 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

Daemon::~Daemon() { stop(); }

double Daemon::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
  throw std::runtime_error("no VmHWM for the daemon");
}

int Daemon::stop() {
  if (pid_ <= 0) return status_;
  kill(pid_, SIGTERM);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  status_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  return status_;
}

// --- Conn --------------------------------------------------------------------

Conn::Conn(int port) : port_(port) { open(); }

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

void Conn::open() {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("connect: " + why);
  }
  buffer_.clear();
}

namespace {

// Case-insensitive header lookup in a raw header block.
std::string header_value(const std::string& head, const std::string& name) {
  std::istringstream in(head);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() <= name.size() || line[name.size()] != ':') continue;
    bool same = true;
    for (std::size_t i = 0; i < name.size() && same; ++i)
      same = std::tolower(static_cast<unsigned char>(line[i])) ==
             std::tolower(static_cast<unsigned char>(name[i]));
    if (!same) continue;
    std::string v = line.substr(name.size() + 1);
    while (!v.empty() && (v.front() == ' ')) v.erase(0, 1);
    while (!v.empty() && (v.back() == '\r' || v.back() == ' ')) v.pop_back();
    return v;
  }
  return "";
}

}  // namespace

Response Conn::exchange(const char* method, const char* path,
                        const std::string& body) {
  Response out;
  try {
    if (fd_ < 0) open();
    std::string wire = std::string(method) + " " + path +
                       " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
    if (!body.empty())
      wire += "Content-Type: application/json\r\nContent-Length: " +
              std::to_string(body.size()) + "\r\n";
    wire += "\r\n";
    wire += body;
    for (std::size_t sent = 0; sent < wire.size();) {
      const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send: " + std::string(std::strerror(errno)));
      sent += static_cast<std::size_t>(n);
    }
    char chunk[65536];
    std::size_t head_end = std::string::npos, need = 0;
    for (;;) {
      if (head_end == std::string::npos) {
        head_end = buffer_.find("\r\n\r\n");
        if (head_end != std::string::npos) {
          const std::string head = buffer_.substr(0, head_end);
          if (head.rfind("HTTP/1.1 ", 0) != 0 || head.size() < 12)
            throw std::runtime_error("bad status line");
          out.status = std::atoi(head.c_str() + 9);
          need = head_end + 4 +
                 std::strtoull(header_value(head, "Content-Length").c_str(), nullptr, 10);
        }
      }
      if (head_end != std::string::npos && buffer_.size() >= need) break;
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("connection closed mid-response");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    out.body = buffer_.substr(head_end + 4, need - head_end - 4);
    const bool close_after =
        header_value(buffer_.substr(0, head_end), "Connection") == "close";
    buffer_.erase(0, need);
    if (close_after) {
      ::close(fd_);
      fd_ = -1;
    }
  } catch (const std::exception& e) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    out.status = 0;
    out.error = e.what();
  }
  return out;
}

double metric_value(const std::string& metrics, const std::string& name) {
  std::istringstream in(metrics);
  std::string line;
  while (std::getline(in, line))
    if (line.size() > name.size() && line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ')
      return std::strtod(line.c_str() + name.size() + 1, nullptr);
  throw std::runtime_error("metric " + name + " missing from /metrics");
}

// --- LoadRunner ------------------------------------------------------------------

struct LoadRunner::Impl {
  std::vector<std::unique_ptr<Conn>> conns;
  std::mutex mu;
  std::condition_variable start_cv, done_cv;
  const Phase* phase = nullptr;                      // guarded by mu
  const std::function<void(Served&&)>* sink = nullptr;  // guarded by mu
  std::uint64_t generation = 0;                      // guarded by mu
  int finished = 0;                                  // guarded by mu
  bool stop = false;                                 // guarded by mu
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;  // last: joined before the rest go

  void worker(std::size_t i) {
    std::uint64_t seen = 0;
    for (;;) {
      const Phase* p = nullptr;
      const std::function<void(Served&&)>* s = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu);
        start_cv.wait(lock, [&] { return stop || generation != seen; });
        if (stop) return;
        seen = generation;
        p = phase;
        s = sink;
      }
      for (;;) {
        const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
        if (k >= p->size()) break;
        const Request& r = (*p)[k];
        Served served;
        served.request = &r;
        const std::int64_t t0 = now_ns();
        served.response = conns[i]->exchange("POST", r.path(), r.body);
        served.latency_ns = now_ns() - t0;
        (*s)(std::move(served));
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        ++finished;
      }
      done_cv.notify_one();
    }
  }
};

LoadRunner::LoadRunner(int port, int connections) : impl_(std::make_unique<Impl>()) {
  for (int i = 0; i < connections; ++i)
    impl_->conns.push_back(std::make_unique<Conn>(port));
  for (int i = 0; i < connections; ++i)
    impl_->threads.emplace_back([this, i] { impl_->worker(static_cast<std::size_t>(i)); });
}

LoadRunner::~LoadRunner() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->start_cv.notify_all();
  for (std::thread& t : impl_->threads) t.join();
}

void LoadRunner::run_round(const Round& round,
                       const std::function<void(Served&&)>& sink) {
  for (const Phase& phase : round) {
    std::unique_lock<std::mutex> lock(impl_->mu);
    impl_->phase = &phase;
    impl_->sink = &sink;
    impl_->finished = 0;
    impl_->next.store(0, std::memory_order_relaxed);
    ++impl_->generation;
    impl_->start_cv.notify_all();
    const int n = static_cast<int>(impl_->threads.size());
    impl_->done_cv.wait(lock, [&] { return impl_->finished == n; });
  }
}

Response LoadRunner::get(const char* path) {
  return impl_->conns.front()->exchange("GET", path, "");
}

}  // namespace pb
