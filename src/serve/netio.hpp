#pragma once
// Tiny AF_UNIX + newline-framing helpers shared by the simulation server and
// client. Deliberately minimal: blocking I/O, one helper per failure mode,
// CheckError (with errno text) on anything unexpected.

#include <cstdint>
#include <string>

namespace mempool::serve {

/// Deterministic fault injection for resilience tests: counter-based (the
/// Nth matching operation faults, process-wide), so a test run with fixed
/// request counts sees the exact same fault schedule every time. All zeros
/// (the default) is fault-free production behavior. For example
/// {drop_every = 17, short_write_every = 31, delay_every = 7, delay_ms = 5}
/// drops the connection on every 17th write_all, sends a short prefix then
/// drops on every 31st, and stalls every 7th read by 5 ms first.
struct NetioFaults {
  uint32_t drop_every = 0;         ///< Every Nth write_all: shutdown + fail.
  uint32_t short_write_every = 0;  ///< Every Nth write_all: partial + fail.
  uint32_t delay_every = 0;        ///< Every Nth read: sleep delay_ms first.
  uint32_t delay_ms = 0;
};

/// Install @p f process-wide (tests call this; production never does).
/// Resets the operation counters so schedules are reproducible.
void set_netio_faults(const NetioFaults& f);

/// Create, bind, and listen on a stream socket at @p path. A leftover
/// socket file is probed first: if a server still answers on it, this
/// throws (refusing to steal a live daemon's path); if the connect is
/// refused or the file is stale, it is unlinked and rebound — so a daemon
/// killed with SIGKILL can always be restarted on the same path. Throws
/// CheckError on failure — including paths that exceed sockaddr_un's
/// ~107-byte limit.
int listen_unix(const std::string& path);

/// Connect to the server at @p path. Retries once per 50 ms until
/// @p timeout_ms has elapsed (0 = single attempt), so "start the daemon,
/// then the client" races resolve themselves. Throws CheckError on failure.
int connect_unix(const std::string& path, int timeout_ms = 0);

/// Write all of @p data (MSG_NOSIGNAL — a vanished peer is a return of
/// false, not a SIGPIPE). Returns false on any error.
bool write_all(int fd, const std::string& data);

/// Buffered line reader over a blocking fd. read_line strips the trailing
/// '\n' and returns false on EOF/error with the partial line discarded.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}
  bool read_line(std::string* line);

 private:
  int fd_;
  std::string buf_;
  bool eof_ = false;
};

}  // namespace mempool::serve
