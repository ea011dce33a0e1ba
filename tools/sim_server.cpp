// sim_server: the persistent simulation daemon. Binds an AF_UNIX socket,
// serves SimRequests over newline-delimited JSON (protocol in
// serve/server.hpp), batches cold points onto the runner ThreadPool, and
// answers repeated points from the content-addressed result cache.
//
//   ./sim_server --socket /tmp/mempool_sim.sock --cache-dir /tmp/simcache &
//   ./sim_loadgen --socket /tmp/mempool_sim.sock --requests 1000 --shutdown
//
// Shuts down cleanly on SIGINT/SIGTERM or the client "shutdown" op: stops
// accepting, answers everything already accepted, unlinks the socket.

#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/check.hpp"
#include "common/parse.hpp"
#include "serve/server.hpp"

namespace {

int g_wake_fd = -1;

// Async-signal-safe: just poke the watcher thread, which does the real stop.
void on_signal(int) {
  const char byte = 's';
  [[maybe_unused]] ssize_t n = ::write(g_wake_fd, &byte, 1);
}

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "\n"
      "Persistent simulation server (NDJSON over an AF_UNIX socket).\n"
      "\n"
      "  --socket PATH        socket path (default /tmp/mempool_sim.sock)\n"
      "  --threads N          simulation worker threads (default: "
      "MEMPOOL_THREADS\n"
      "                       env or hardware concurrency)\n"
      "  --cache-capacity N   in-memory result-cache entries (default 1024)\n"
      "  --cache-dir DIR      on-disk result cache (default: memory only)\n"
      "  --max-queue N        shed new points beyond N in flight with a\n"
      "                       structured 'overloaded' response (default:\n"
      "                       unbounded)\n"
      "  --retry-after-ms N   backoff hint on shed responses (default 250)\n"
      "  --checkpoint-every N checkpoint long-running points every N\n"
      "                       simulated cycles; with --cache-dir the images\n"
      "                       persist to <dir>/<key>.ckpt and a restarted\n"
      "                       daemon resumes them (default: off)\n"
      "  --quiet              no per-request stderr log\n"
      "  --help               this text\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using mempool::serve::ServerConfig;
  using mempool::serve::SimServer;

  ServerConfig cfg;
  cfg.socket_path = "/tmp/mempool_sim.sock";
  cfg.log = true;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto number = [&](auto* out) {
      const std::string v = value();
      if (!mempool::parse_number(v, out)) {
        std::fprintf(stderr,
                     "error: %s wants a non-negative integer, got '%s'\n",
                     arg.c_str(), v.c_str());
        std::exit(2);
      }
    };
    if (arg == "--socket") {
      cfg.socket_path = value();
    } else if (arg == "--threads") {
      number(&cfg.service.threads);
    } else if (arg == "--cache-capacity") {
      number(&cfg.service.cache_capacity);
    } else if (arg == "--cache-dir") {
      cfg.service.cache_dir = value();
    } else if (arg == "--max-queue") {
      number(&cfg.service.max_queue);
    } else if (arg == "--retry-after-ms") {
      number(&cfg.service.retry_after_ms);
    } else if (arg == "--checkpoint-every") {
      number(&cfg.service.checkpoint_every);
    } else if (arg == "--quiet") {
      cfg.log = false;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s' (try --help)\n",
                   arg.c_str());
      return 2;
    }
  }

  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    std::perror("pipe");
    return 1;
  }
  g_wake_fd = pipefd[1];
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  try {
    SimServer server(cfg);
    server.start();
    std::thread watcher([&server, read_fd = pipefd[0]] {
      char byte;
      if (::read(read_fd, &byte, 1) == 1 && byte == 's') server.stop();
    });
    server.wait();
    // Wake the watcher in case shutdown came from the client op, not a
    // signal, then join it.
    const char byte = 'q';
    [[maybe_unused]] ssize_t n = ::write(pipefd[1], &byte, 1);
    watcher.join();
  } catch (const mempool::CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
