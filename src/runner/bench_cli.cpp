#include "runner/bench_cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "common/check.hpp"
#include "common/file_io.hpp"
#include "common/parse.hpp"
#include "mem/memsys.hpp"
#include "noc/fabric.hpp"
#include "runner/results.hpp"
#include "serve/request.hpp"
#include "sim/engine.hpp"
#include "verify/drc_matrix.hpp"

namespace mempool::runner {

namespace {

[[noreturn]] void usage(const std::string& bench, int code) {
  std::fprintf(stderr,
               "usage: %s [--threads N] [--sim-threads N] [--engine MODE] "
               "[--json PATH | --no-json] [--quiet] "
               "[--topology NAME] [--list-topologies] "
               "[bench-specific args]\n"
               "  --threads N        sweep worker threads: how many points "
               "run concurrently\n"
               "                     (default: MEMPOOL_THREADS env var, else "
               "all cores)\n"
               "  --sim-threads N    engine threads: how many shards of one "
               "point's cluster\n"
               "                     step concurrently (--engine sharded "
               "only; default 1)\n"
               "  --engine MODE      active (default) | dense | sharded — "
               "bit-identical\n"
               "                     results, different wall-clock\n"
               "  --json PATH        results file (default: %s.results.json)\n"
               "  --no-json          do not write a results file\n"
               "  --quiet            no stderr progress ticker\n"
               "  --topology NAME    fabric topology (available: %s)\n"
               "  --list-topologies  list the registered fabric topologies "
               "and exit\n"
               "  --memory NAME      memory system (available: %s)\n"
               "  --list-memories    list the registered memory systems and "
               "exit\n"
               "  --list-engines     list the engine modes and exit\n"
               "  --drc              run the design-rule checker over every "
               "registered\n"
               "                     topology x memory x engine combination "
               "(paper-scale\n"
               "                     configs, no cycles simulated), write "
               "%s.drc.json,\n"
               "                     and exit 0 iff every case is clean\n"
               "  --drc-out PATH     where --drc writes its report (default: "
               "%s.drc.json)\n"
               "  --stall-horizon N  abort with a mempool.liveness.v1 stall "
               "report if any\n"
               "                     non-empty buffer drains nothing for N "
               "consecutive\n"
               "                     cycles (0 = watchdog disabled)\n"
               "  --checkpoint-every N  (single-point benches) snapshot the "
               "engine every N\n"
               "                     cycles into a mempool.ckpt.v1 file "
               "(atomic write)\n"
               "  --checkpoint-out PATH  checkpoint file (default: "
               "%s.ckpt)\n"
               "  --restore PATH     resume a single point from a "
               "mempool.ckpt.v1 image;\n"
               "                     the result is bit-identical to an "
               "uninterrupted run\n",
               bench.c_str(), bench.c_str(),
               FabricRegistry::available().c_str(),
               MemoryRegistry::available().c_str(), bench.c_str(),
               bench.c_str(), bench.c_str());
  std::exit(code);
}

[[noreturn]] void list_engines() {
  std::fprintf(stderr, "engine modes (all bit-identical; --engine MODE):\n");
  for (EngineMode m :
       {EngineMode::kActive, EngineMode::kDense, EngineMode::kSharded}) {
    std::fprintf(stderr, "  %-8s  %s\n", engine_mode_name(m),
                 engine_mode_description(m));
  }
  std::exit(0);
}

[[noreturn]] void list_topologies() {
  std::fprintf(stderr, "registered fabric topologies:\n");
  for (const std::string& name : FabricRegistry::names()) {
    std::fprintf(stderr, "  %-6s  %s\n", name.c_str(),
                 FabricRegistry::get(name).description().c_str());
  }
  std::exit(0);
}

[[noreturn]] void list_memories() {
  std::fprintf(stderr, "registered memory systems:\n");
  for (const std::string& name : MemoryRegistry::names()) {
    std::fprintf(stderr, "  %-8s  %s\n", name.c_str(),
                 MemoryRegistry::get(name).description().c_str());
  }
  std::exit(0);
}

/// --drc: elaborate every registered topology x memory x engine combination
/// at paper scale, lint each with the design-rule checker (D1..D9, sorted
/// violations), emit the mempool.drc.v1 document to @p path, and exit 0 iff
/// every case is clean. No cycles are simulated — this is the CI design-rule
/// gate, runnable from any bench.
[[noreturn]] void run_drc_matrix(const std::string& bench,
                                 const std::string& path) {
  bool clean = false;
  const Json doc = verify::drc_matrix_report(/*mini=*/false, &clean);
  for (const Json& c : doc.at("cases").items()) {
    const std::size_t violations = c.at("violations").size();
    std::fprintf(stderr, "  %-6s x %-8s x %-8s  %s",
                 c.at("topology").as_string().c_str(),
                 c.at("memory").as_string().c_str(),
                 c.at("engine").as_string().c_str(),
                 violations == 0 ? "clean" : "VIOLATIONS");
    if (violations != 0) {
      std::fprintf(stderr, " (%zu)", violations);
      for (const Json& v : c.at("violations").items()) {
        std::fprintf(stderr, "\n    [%s] %s (%s): %s",
                     v.at("rule").as_string().c_str(),
                     v.at("component").as_string().c_str(),
                     v.at("edge").as_string().c_str(),
                     v.at("detail").as_string().c_str());
      }
    }
    std::fprintf(stderr, "\n");
  }
  write_json_file(path, doc);
  std::fprintf(stderr, "%s: DRC %s over %zu cases; report written to %s\n",
               bench.c_str(), clean ? "clean" : "FAILED",
               doc.at("cases").size(), path.c_str());
  std::exit(clean ? 0 : 1);
}

}  // namespace

TopologySpec parse_topology_or_exit(const std::string& name) {
  if (FabricRegistry::find(name) == nullptr) {
    std::fprintf(stderr, "unknown topology '%s'; available: %s\n",
                 name.c_str(), FabricRegistry::available().c_str());
    std::exit(2);
  }
  return TopologySpec{name};
}

MemorySpec parse_memory_or_exit(const std::string& name) {
  if (MemoryRegistry::find(name) == nullptr) {
    std::fprintf(stderr, "unknown memory system '%s'; available: %s\n",
                 name.c_str(), MemoryRegistry::available().c_str());
    std::exit(2);
  }
  return MemorySpec{name};
}

BenchOptions parse_bench_options(int* argc, char** argv,
                                 const std::string& bench_name,
                                 bool accepts_topology, bool accepts_memory,
                                 bool accepts_checkpoint) {
  BenchOptions opts;
  opts.bench_name = bench_name;
  opts.json_path = bench_name + ".results.json";

  // --drc is collected, not executed, during the loop so --drc-out is
  // honored regardless of flag order on the command line.
  bool want_drc = false;
  std::string drc_out;

  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= *argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", bench_name.c_str(),
                     a);
        usage(bench_name, 2);
      }
      return argv[++i];
    };
    if (std::strcmp(a, "--threads") == 0) {
      if (!parse_number(value(), &opts.threads) || opts.threads == 0) {
        std::fprintf(stderr,
                     "%s: --threads wants a positive integer (sweep workers: "
                     "how many points run concurrently); engine-level "
                     "parallelism is --sim-threads\n",
                     bench_name.c_str());
        usage(bench_name, 2);
      }
    } else if (std::strcmp(a, "--sim-threads") == 0) {
      if (!parse_number(value(), &opts.sim_threads) || opts.sim_threads == 0) {
        std::fprintf(stderr,
                     "%s: --sim-threads wants a positive integer (engine "
                     "threads per point); sweep-level parallelism is "
                     "--threads\n",
                     bench_name.c_str());
        usage(bench_name, 2);
      }
    } else if (std::strcmp(a, "--sim_threads") == 0 ||
               std::strcmp(a, "--engine-threads") == 0 ||
               std::strcmp(a, "--engine_threads") == 0) {
      // The historically ambiguous spellings: refuse instead of guessing
      // which of the two thread axes was meant.
      std::fprintf(stderr,
                   "%s: unknown flag '%s' — use --threads N for sweep "
                   "workers (points in parallel) or --sim-threads N for "
                   "engine threads (shards of one point in parallel)\n",
                   bench_name.c_str(), a);
      std::exit(2);
    } else if (std::strcmp(a, "--engine") == 0) {
      const char* mode = value();
      if (!engine_mode_from_name(mode, &opts.engine)) {
        std::fprintf(stderr, "%s: unknown engine '%s'; available: %s\n",
                     bench_name.c_str(), mode, engine_mode_available());
        std::exit(2);
      }
    } else if (std::strcmp(a, "--json") == 0) {
      opts.json_path = value();
    } else if (std::strcmp(a, "--no-json") == 0) {
      opts.json_path.clear();
    } else if (std::strcmp(a, "--quiet") == 0) {
      opts.progress = false;
    } else if (std::strcmp(a, "--topology") == 0) {
      if (!accepts_topology) {
        std::fprintf(stderr,
                     "%s: --topology is not supported by this bench (its "
                     "topology set is fixed)\n",
                     bench_name.c_str());
        std::exit(2);
      }
      opts.topology = parse_topology_or_exit(value()).name;
    } else if (std::strcmp(a, "--list-topologies") == 0) {
      list_topologies();
    } else if (std::strcmp(a, "--memory") == 0) {
      if (!accepts_memory) {
        std::fprintf(stderr,
                     "%s: --memory is not supported by this bench (its "
                     "memory system is fixed)\n",
                     bench_name.c_str());
        std::exit(2);
      }
      opts.memory = parse_memory_or_exit(value()).name;
    } else if (std::strcmp(a, "--list-memories") == 0) {
      list_memories();
    } else if (std::strcmp(a, "--list-engines") == 0) {
      list_engines();
    } else if (std::strcmp(a, "--drc") == 0) {
      want_drc = true;
    } else if (std::strcmp(a, "--drc-out") == 0) {
      drc_out = value();
    } else if (std::strcmp(a, "--stall-horizon") == 0) {
      if (!parse_number(value(), &opts.stall_horizon)) {
        std::fprintf(stderr,
                     "%s: --stall-horizon wants a non-negative cycle count "
                     "(0 disables the progress watchdog)\n",
                     bench_name.c_str());
        usage(bench_name, 2);
      }
    } else if (std::strcmp(a, "--checkpoint-every") == 0 ||
               std::strcmp(a, "--checkpoint-out") == 0 ||
               std::strcmp(a, "--restore") == 0) {
      if (!accepts_checkpoint) {
        std::fprintf(stderr,
                     "%s: %s is not supported by this bench (checkpointing "
                     "applies to single-point harnesses only)\n",
                     bench_name.c_str(), a);
        std::exit(2);
      }
      if (std::strcmp(a, "--checkpoint-every") == 0) {
        if (!parse_number(value(), &opts.checkpoint_every)) {
          std::fprintf(stderr,
                       "%s: --checkpoint-every wants a non-negative cycle "
                       "count (0 disables checkpointing)\n",
                       bench_name.c_str());
          usage(bench_name, 2);
        }
      } else if (std::strcmp(a, "--checkpoint-out") == 0) {
        opts.checkpoint_out = value();
      } else {
        opts.restore_path = value();
      }
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      usage(bench_name, 0);
    } else {
      argv[out++] = argv[i];  // leave for the bench's own parser
    }
  }
  *argc = out;
  if (want_drc) {
    run_drc_matrix(bench_name,
                   drc_out.empty() ? bench_name + ".drc.json" : drc_out);
  }
  if (!drc_out.empty()) {
    std::fprintf(stderr, "%s: --drc-out only applies with --drc\n",
                 bench_name.c_str());
    std::exit(2);
  }
  if (!opts.checkpoint_out.empty() && opts.checkpoint_every == 0) {
    std::fprintf(stderr, "%s: --checkpoint-out only applies with "
                 "--checkpoint-every\n",
                 bench_name.c_str());
    std::exit(2);
  }
  if (opts.sim_threads > 1 && opts.engine != EngineMode::kSharded) {
    std::fprintf(stderr,
                 "%s: --sim-threads only applies to --engine sharded (the "
                 "sequential engines step one point on one thread; use "
                 "--threads for sweep-level parallelism)\n",
                 bench_name.c_str());
    std::exit(2);
  }
  return opts;
}

TrafficPoint run_checkpointed_point(const BenchOptions& opts,
                                    const TrafficExperimentConfig& cfg) {
  CheckpointOptions ckpt;
  ckpt.checkpoint_every = opts.checkpoint_every;

  // Resume image: read the whole file up front; the restore inside
  // run_point validates the CRC/trailer and the key, so a torn, bit-flipped
  // or foreign file is rejected before any state is loaded.
  std::string image;
  if (!opts.restore_path.empty()) {
    std::optional<std::string> bytes = read_file(opts.restore_path);
    if (!bytes) {
      std::fprintf(stderr, "%s: cannot read --restore image '%s'\n",
                   opts.bench_name.c_str(), opts.restore_path.c_str());
      std::exit(2);
    }
    image = *std::move(bytes);
    ckpt.restore_from = &image;
  }

  const std::string out_path = opts.checkpoint_out.empty()
                                   ? opts.bench_name + ".ckpt"
                                   : opts.checkpoint_out;
  if (opts.checkpoint_every != 0) {
    ckpt.on_checkpoint = [&out_path, &opts](uint64_t cycle,
                                            const std::string& img) {
      if (!write_file_atomic(out_path, img)) {
        std::fprintf(stderr, "%s: failed to write checkpoint %s\n",
                     opts.bench_name.c_str(), out_path.c_str());
        std::exit(1);
      }
      if (opts.progress) {
        std::fprintf(stderr, "%s: checkpoint at cycle %llu -> %s\n",
                     opts.bench_name.c_str(),
                     static_cast<unsigned long long>(cycle), out_path.c_str());
      }
    };
  }

  try {
    // run_point stamps every image with the request key and restores only
    // an image carrying the same key, so an image of any other point (a
    // different λ, seed, topology...) is refused instead of resumed.
    return serve::run_point(serve::SimRequest::from_config(cfg), ckpt).point;
  } catch (const CheckError& e) {
    // A corrupt or mismatched restore image is a CLI error, not a crash.
    std::fprintf(stderr, "%s: %s\n", opts.bench_name.c_str(), e.what());
    std::exit(2);
  }
}

int guarded_bench_main(const std::string& bench_name,
                       const std::function<int()>& body) {
  try {
    return body();
  } catch (const LivenessError& e) {
    // The progress watchdog aborted a wedged point: surface the structured
    // stall attribution instead of an uncaught-exception terminate.
    std::fprintf(stderr, "%s: %s\n%s\n", bench_name.c_str(), e.what(),
                 e.report().dump(2).c_str());
    return 3;
  }
}

void write_bench_results(const BenchOptions& opts, unsigned threads,
                         double wall_seconds, Json results) {
  if (opts.json_path.empty()) return;
  try {
    write_json_file(opts.json_path,
                    bench_envelope(opts.bench_name, threads, wall_seconds,
                                   std::move(results)));
  } catch (const std::exception& e) {
    // The tables already went to stdout; don't let a bad --json path abort
    // the process after minutes of simulation — report and fail cleanly.
    std::fprintf(stderr, "%s: %s\n", opts.bench_name.c_str(), e.what());
    std::exit(1);
  }
  std::fprintf(stderr, "results written to %s\n", opts.json_path.c_str());
}

}  // namespace mempool::runner
