#include "serve/netio.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>

#include "common/check.hpp"

namespace mempool::serve {

namespace {

// --- deterministic fault injection ------------------------------------------
// Process-wide counters; every write/read increments its counter and faults
// when the configured period divides it. Relaxed atomics: the exact
// interleaving across threads does not matter for the tests (they drive a
// single connection), only that the schedule is periodic and cannot race to
// a torn value.

// A test may install a new schedule while server reader threads still read
// the previous one, so every access goes through g_faults_mu.
std::mutex g_faults_mu;
NetioFaults g_faults;
std::atomic<uint64_t> g_write_ops{0};
std::atomic<uint64_t> g_read_ops{0};

/// The installed schedule.
NetioFaults current_faults() {
  const std::lock_guard<std::mutex> lock(g_faults_mu);
  return g_faults;
}

bool period_hit(uint32_t every, uint64_t op) {
  return every != 0 && op % every == 0;
}

/// Thread-safe strerror: the plain strerror() may format into a shared
/// static buffer (concurrency-mt-unsafe), and these messages are built on
/// server accept/reader threads. The two strerror_r flavors (XSI returns
/// int and fills buf, GNU returns the message pointer) are disambiguated by
/// overload so the same call compiles against either libc.
[[maybe_unused]] const char* strerror_result(int rc, const char* buf) {
  return rc == 0 ? buf : "unknown error";
}
[[maybe_unused]] const char* strerror_result(const char* msg,
                                             const char* /*buf*/) {
  return msg;
}

std::string errno_text(int err) {
  char buf[128];
  return strerror_result(strerror_r(err, buf, sizeof buf), buf);
}

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  MEMPOOL_CHECK_MSG(path.size() < sizeof(addr.sun_path),
                    "socket path '" << path << "' exceeds the AF_UNIX limit ("
                                    << sizeof(addr.sun_path) - 1 << " bytes)");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

void set_netio_faults(const NetioFaults& f) {
  {
    const std::lock_guard<std::mutex> lock(g_faults_mu);
    g_faults = f;
  }
  g_write_ops.store(0, std::memory_order_relaxed);
  g_read_ops.store(0, std::memory_order_relaxed);
}

int listen_unix(const std::string& path) {
  const sockaddr_un addr = make_addr(path);
  // A leftover socket file is either a live daemon's or a corpse from a
  // crashed one (SIGKILL never unlinks). Probe it: a successful connect
  // means a server answers there — refuse to steal its path; anything else
  // (refused, no such file) means stale — unlink and rebind.
  const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  MEMPOOL_CHECK_MSG(probe >= 0, "socket(): " << errno_text(errno));
  const bool live =
      ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) == 0;
  ::close(probe);
  MEMPOOL_CHECK_MSG(!live, "socket path '"
                               << path
                               << "' already has a live server listening; "
                                  "refusing to unlink it");
  ::unlink(path.c_str());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  MEMPOOL_CHECK_MSG(fd >= 0, "socket(): " << errno_text(errno));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    MEMPOOL_CHECK_MSG(false, "bind('" << path
                                      << "'): " << errno_text(err));
  }
  if (::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    MEMPOOL_CHECK_MSG(false, "listen('" << path
                                        << "'): " << errno_text(err));
  }
  return fd;
}

int connect_unix(const std::string& path, int timeout_ms) {
  const sockaddr_un addr = make_addr(path);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    MEMPOOL_CHECK_MSG(fd >= 0, "socket(): " << errno_text(errno));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    const int err = errno;
    ::close(fd);
    if (std::chrono::steady_clock::now() >= deadline) {
      MEMPOOL_CHECK_MSG(false, "connect('" << path << "'): "
                                           << errno_text(err)
                                           << (timeout_ms > 0
                                                   ? " (retries exhausted)"
                                                   : ""));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

bool write_all(int fd, const std::string& data) {
  const NetioFaults faults = current_faults();
  const uint64_t op = g_write_ops.fetch_add(1, std::memory_order_relaxed) + 1;
  if (period_hit(faults.drop_every, op)) {
    // Injected connection drop: the peer sees EOF mid-stream, exactly like
    // a daemon dying between responses.
    ::shutdown(fd, SHUT_RDWR);
    return false;
  }
  if (period_hit(faults.short_write_every, op)) {
    // Injected short write: a prefix of the frame escapes, then the
    // connection dies — the peer's LineReader must discard the partial
    // line, the writer must report failure.
    const std::size_t half = data.size() / 2;
    if (half > 0) ::send(fd, data.data(), half, MSG_NOSIGNAL);
    ::shutdown(fd, SHUT_RDWR);
    return false;
  }
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool LineReader::read_line(std::string* line) {
  std::size_t scanned = 0;  // bytes of buf_ already searched for '\n'
  for (;;) {
    const std::size_t nl = buf_.find('\n', scanned);
    const std::size_t len = nl != std::string::npos ? nl : buf_.size();
    MEMPOOL_CHECK_MSG(len <= kMaxLineBytes,
                      "line longer than LineReader::kMaxLineBytes ("
                          << kMaxLineBytes << " bytes)");
    if (nl != std::string::npos) {
      line->assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    scanned = buf_.size();
    if (eof_) return false;
    const NetioFaults faults = current_faults();
    const uint64_t op = g_read_ops.fetch_add(1, std::memory_order_relaxed) + 1;
    if (period_hit(faults.delay_every, op) && faults.delay_ms > 0) {
      // Injected latency: exercises client read timeouts without a real
      // slow network.
      std::this_thread::sleep_for(std::chrono::milliseconds(faults.delay_ms));
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      eof_ = true;
      return false;
    }
    if (n == 0) {
      eof_ = true;
      return false;  // partial trailing line (no '\n') is not a request
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace mempool::serve
