// mempool_bench: one command that measures the simulator end to end and
// layer by layer, and checks its outputs against committed goldens.
//
//   mempool_bench --seed 1 [--seconds 8] [--json out.json] [--trace t.json]
//       runs all five workloads, each in its own child process (so peak RSS
//       is per workload), prints every end-to-end metric per workload and
//       exits non-zero on any failed or mismatching output or invalid run.
//   mempool_bench --workload NAME --seed N --seconds S --trace 0|1|PATH
//       runs one workload in this process. The last stdout line is one JSON
//       object {"correct", "attempted", "failed", "metrics"}: the end-to-end
//       metrics untraced, or with tracing the per-layer metrics of a traced
//       pass that follows an untraced one (their ratio is
//       trace.overhead_frac).
//
// Workloads, metrics and bounds: README.md beside this file.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/check.hpp"
#include "common/json.hpp"
#include "trace.hpp"

namespace mempool_bench {

using mempool::Json;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string sample_note(const std::string& label, std::size_t n,
                        const char* what) {
  return label + " of " + std::to_string(n) + " " + what;
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  MEMPOOL_CHECK_MSG(false, "no VmHWM in " << path);
  return 0;
}

void report_mismatch(const std::string& workload, const std::string& what,
                     const Json& expected, const Json& actual) {
  std::printf(
      "GOLDEN MISMATCH in %s (%s)\n  expected: %s\n  actual block, in "
      "expected.json form:\n\"%s\": %s\n",
      workload.c_str(), what.c_str(), expected.dump(0).c_str(),
      workload.c_str(), actual.dump(2).c_str());
}

namespace {

constexpr const char* kWorkloads[] = {"traffic_idle", "traffic_heavy",
                                      "traffic_scale", "kernels", "service"};

struct Options {
  std::string workload;  ///< Empty = all, each in a child process.
  uint64_t seed = 1;
  double seconds = 8;
  std::string trace;     ///< Empty = off.
  std::string json_path;
  std::string work_dir = ".";
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "\n"
      "  --workload NAME   run one workload in-process: traffic_idle,\n"
      "                    traffic_heavy, traffic_scale, kernels, service\n"
      "                    (default: all five, one child process each)\n"
      "  --seed N          input seed (default 1; goldens exist for 1 and 2)\n"
      "  --seconds S       measurement window per workload (default 8)\n"
      "  --trace T         0 = off, 1 = trace into the work dir, or a path:\n"
      "                    add a traced pass and report per-layer metrics\n"
      "  --json PATH       write the full report as JSON\n"
      "  --work-dir DIR    scratch space for sockets, caches and traces\n",
      argv0);
}

/// A pass whose load generator could not keep to its schedule measured the
/// host, not the program. It is repeated; after this many invalid attempts
/// the run fails.
constexpr int kPassAttempts = 3;

PassOutput run_pass(const std::string& workload, const PassContext& ctx) {
  for (int attempt = 1;; ++attempt) {
    PassOutput out = workload == "kernels"   ? run_kernels(ctx)
                     : workload == "service" ? run_service(ctx)
                                             : run_traffic(workload, ctx);
    if (out.valid || attempt == kPassAttempts) return out;
    for (const std::string& r : out.remarks) std::printf("  %s\n", r.c_str());
    std::printf("  attempt %d of %d was invalid; repeating the pass\n",
                attempt, kPassAttempts);
    std::fflush(stdout);
  }
}

Json metrics_json(const Values& values, const MetricDef* defs,
                  std::size_t count) {
  Json m = Json::object();
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = values.find(defs[i].name);
    Json v = Json::object();
    v.set("value", it == values.end() ? 0.0 : it->second);
    v.set("unit", defs[i].unit);
    m.set(defs[i].name, std::move(v));
  }
  return m;
}

/// Print the metrics of @p defs the pass measured (the JSON result reports
/// the rest as 0).
void print_metrics(const char* title, const Values& values,
                   const std::map<std::string, std::string>& notes,
                   const MetricDef* defs, std::size_t count) {
  std::printf("  %s:\n", title);
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = values.find(defs[i].name);
    if (it == values.end()) continue;
    const double v = it->second;
    const auto note = notes.find(defs[i].name);
    std::printf("    %-30s %16.6g %-14s %s\n", defs[i].name, v, defs[i].unit,
                note == notes.end() ? "" : ("(" + note->second + ")").c_str());
  }
}

/// Print the traced pass's self-time table; returns the unattributed share
/// of the main thread's wall time (the root span's own self time).
double print_self_times(const Tracer& tracer, double wall_s) {
  const std::vector<SelfTimeRow> rows = tracer.self_times();
  std::printf("  self time per span (traced pass, wall %.3f s):\n", wall_s);
  std::printf("    %-28s %6s %8s %12s %12s %8s\n", "span", "thread", "calls",
              "total ms", "self ms", "share");
  double unattributed = 0;
  double layers = 0;
  for (const SelfTimeRow& r : rows) {
    const double share = r.self_s / wall_s;
    std::printf("    %-28s %6u %8llu %12.3f %12.3f", r.name.c_str(), r.thread,
                static_cast<unsigned long long>(r.calls), r.total_s * 1e3,
                r.self_s * 1e3);
    if (r.thread != 0) {
      std::printf(" %8s\n", "-");  // overlaps the main thread
      continue;
    }
    std::printf(" %7.2f%%\n", share * 100);
    (r.name == "workload" ? unattributed : layers) += share;
  }
  std::printf(
      "    layer spans on the main thread cover %.2f%% of wall, %.2f%% is "
      "unattributed (%s)\n",
      layers * 100, unattributed * 100,
      unattributed <= 0.05 ? "within 5%" : "OVER 5%");
  return unattributed;
}

int run_one(const Options& o) {
  thread_index();  // the main thread is thread 0 in traces

  Json goldens;
  {
    std::ifstream in(MEMPOOL_BENCH_EXPECTED);
    MEMPOOL_CHECK_MSG(in.good(),
                      "cannot read golden file " MEMPOOL_BENCH_EXPECTED);
    std::stringstream buf;
    buf << in.rdbuf();
    goldens = Json::parse(buf.str());
  }
  const Json seeds = goldens.at("seeds");
  const std::string seed_key = std::to_string(o.seed);
  const Json golden = seeds.contains(seed_key)
                          ? seeds.at(seed_key).get(o.workload, Json())
                          : Json();

  PassContext ctx;
  ctx.seed = o.seed;
  ctx.seconds = o.trace.empty() ? o.seconds : o.seconds / 2;
  ctx.golden = golden.is_null() ? nullptr : &golden;
  ctx.work_dir = o.work_dir;
  ctx.server_bin = MEMPOOL_BENCH_SIM_SERVER;

  std::printf("== mempool_bench %s: seed %llu, %.3g s window, trace %s ==\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace.empty() ? "off" : o.trace.c_str());
  std::fflush(stdout);

  PassOutput out = run_pass(o.workload, ctx);
  if (!o.trace.empty()) {
    PassOutput plain = std::move(out);
    Tracer tracer(Clock::now());
    g_tracer = &tracer;
    PassContext traced_ctx = ctx;
    traced_ctx.traced = true;
    double wall = 0;
    {
      Span root("workload");
      out = run_pass(o.workload, traced_ctx);
      wall = root.stop();
    }
    g_tracer = nullptr;
    out.attempted += plain.attempted;
    out.failed += plain.failed;
    out.e2e = plain.e2e;
    out.notes = plain.notes;
    out.valid = out.valid && plain.valid;
    out.layer["trace.overhead_frac"] = out.op_p50_s / plain.op_p50_s - 1.0;
    out.layer["trace.unattributed_frac"] = print_self_times(tracer, wall);
    Json doc = Json::object();
    doc.set("traceEvents", tracer.chrome_events(0));
    doc.set("displayTimeUnit", "ms");
    std::ofstream(o.trace) << doc.dump(0) << "\n";
    std::printf("  trace written to %s\n", o.trace.c_str());
  }

  print_metrics("end-to-end (untraced)", out.e2e, out.notes, kEndToEnd,
                std::size(kEndToEnd));
  const double failed_frac = static_cast<double>(out.failed) /
                             static_cast<double>(out.attempted);
  std::printf("    %-30s %16.6g %-14s (%llu of %llu ops)\n", "failed_frac",
              failed_frac, "frac",
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  if (!o.trace.empty()) {
    print_metrics("per layer (traced pass)", out.layer, {}, kPerLayer,
                  std::size(kPerLayer));
  }
  for (const std::string& r : out.remarks) std::printf("  %s\n", r.c_str());
  std::printf("  verified: %s\n", ctx.golden != nullptr ? "true" : "false");
  std::printf("  valid: %s\n", out.valid ? "true" : "false");
  if (ctx.golden == nullptr) {
    std::fprintf(stderr,
                 "no goldens for seed %llu; actual block:\n\"%s\": %s\n",
                 static_cast<unsigned long long>(o.seed), o.workload.c_str(),
                 out.actual.dump(2).c_str());
  }

  if (!o.json_path.empty()) {
    Json report = Json::object();
    report.set("schema", "mempool.bench.v1");
    report.set("workload", o.workload);
    report.set("seed", o.seed);
    report.set("seconds", o.seconds);
    report.set("host_cpus", std::thread::hardware_concurrency());
    report.set("verified", ctx.golden != nullptr);
    report.set("valid", out.valid);
    report.set("attempted", out.attempted);
    report.set("failed", out.failed);
    report.set("end_to_end",
               metrics_json(out.e2e, kEndToEnd, std::size(kEndToEnd)));
    report.set("per_layer",
               metrics_json(out.layer, kPerLayer, std::size(kPerLayer)));
    report.set("actual", out.actual);
    std::ofstream(o.json_path) << report.dump(2) << "\n";
  }

  // An invalid run is not a measurement of the program: it is reported as
  // incorrect and fails, so it can never be read as a slow run.
  const bool ok = out.failed == 0 && out.valid;
  Json result = Json::object();
  result.set("correct", ok);
  result.set("attempted", out.attempted);
  result.set("failed", out.failed);
  result.set("metrics", o.trace.empty()
                            ? metrics_json(out.e2e, kEndToEnd,
                                           std::size(kEndToEnd))
                            : metrics_json(out.layer, kPerLayer,
                                           std::size(kPerLayer)));
  std::printf("%s\n", result.dump(0).c_str());
  return ok ? 0 : 1;
}

/// All five workloads, one child process each, then a summary table.
int run_all(const Options& o, const char* self) {
  namespace fs = std::filesystem;
  const std::string stem =
      o.work_dir + "/mb" + std::to_string(::getpid()) + ".";
  Json workloads = Json::object();
  Json events = Json::array();
  bool ok = true;
  for (std::size_t w = 0; w < std::size(kWorkloads); ++w) {
    const std::string name = kWorkloads[w];
    const std::string part_json = stem + name + ".json";
    const std::string part_trace = stem + name + ".trace.json";
    std::vector<std::string> args = {
        self,        "--workload", name,        "--seed",
        std::to_string(o.seed), "--seconds", std::to_string(o.seconds),
        "--work-dir", o.work_dir, "--json",    part_json};
    if (!o.trace.empty()) args.insert(args.end(), {"--trace", part_trace});
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::fflush(stdout);
    const pid_t pid = ::fork();
    MEMPOOL_CHECK_MSG(pid >= 0, "fork() failed");
    if (pid == 0) {
      ::execv(argv[0], argv.data());
      std::perror("execv");
      ::_exit(127);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    const bool child_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    ok = ok && child_ok;
    std::ifstream in(part_json);
    if (!in.good()) {
      std::printf("workload %s produced no report\n", name.c_str());
      ok = false;
      continue;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    workloads.set(name, Json::parse(buf.str()));
    fs::remove(part_json);
    if (!o.trace.empty()) {
      std::ifstream tin(part_trace);
      std::stringstream tbuf;
      tbuf << tin.rdbuf();
      Json label = Json::object();
      label.set("name", "process_name");
      label.set("ph", "M");
      label.set("pid", static_cast<uint64_t>(w));
      Json label_args = Json::object();
      label_args.set("name", name);
      label.set("args", std::move(label_args));
      events.push_back(std::move(label));
      const Json part = Json::parse(tbuf.str());
      for (const Json& e : part.at("traceEvents").items()) {
        Json moved = e;
        moved.set("pid", static_cast<uint64_t>(w));
        events.push_back(std::move(moved));
      }
      fs::remove(part_trace);
    }
  }

  std::printf("\n== mempool_bench summary: seed %llu ==\n",
              static_cast<unsigned long long>(o.seed));
  std::printf("  %-16s", "workload");
  for (const MetricDef& m : kEndToEnd) std::printf(" %18s", m.name);
  std::printf(" %12s %9s %6s\n", "failed_frac", "verified", "valid");
  std::printf("  %-16s", "");
  for (const MetricDef& m : kEndToEnd) std::printf(" %18s", m.unit);
  std::printf(" %12s\n", "frac");
  for (const auto& [name, report] : workloads.members()) {
    std::printf("  %-16s", name.c_str());
    for (const MetricDef& m : kEndToEnd) {
      std::printf(" %18.6g",
                  report.at("end_to_end").at(m.name).at("value").as_double());
    }
    std::printf(" %12.6g %9s %6s\n",
                report.at("failed").as_double() /
                    report.at("attempted").as_double(),
                report.at("verified").as_bool() ? "true" : "false",
                report.at("valid").as_bool() ? "true" : "false");
  }

  if (!o.json_path.empty()) {
    Json all = Json::object();
    all.set("schema", "mempool.bench.v1");
    all.set("seed", o.seed);
    all.set("host_cpus", std::thread::hardware_concurrency());
    all.set("workloads", workloads);
    std::ofstream(o.json_path) << all.dump(2) << "\n";
  }
  if (!o.trace.empty()) {
    Json doc = Json::object();
    doc.set("traceEvents", events);
    doc.set("displayTimeUnit", "ms");
    std::ofstream(o.trace) << doc.dump(0) << "\n";
    std::printf("  trace written to %s\n", o.trace.c_str());
  }
  std::printf("  %s\n", ok ? "all workloads correct" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace mempool_bench

int main(int argc, char** argv) {
  using namespace mempool_bench;
  Options o;
  std::string trace_arg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        trace_arg = value();
      } else if (arg == "--json") {
        o.json_path = value();
      } else if (arg == "--work-dir") {
        o.work_dir = value();
      } else if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
        return 0;
      } else {
        std::fprintf(stderr, "error: unknown option '%s' (try --help)\n",
                     arg.c_str());
        return 2;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "error: bad value for %s\n", arg.c_str());
      return 2;
    }
  }
  if (!(o.seconds > 0)) {
    std::fprintf(stderr, "error: --seconds must be positive\n");
    return 2;
  }
  if (!o.workload.empty() &&
      std::find(std::begin(kWorkloads), std::end(kWorkloads), o.workload) ==
          std::end(kWorkloads)) {
    std::fprintf(stderr, "error: unknown workload '%s' (try --help)\n",
                 o.workload.c_str());
    return 2;
  }
  if (trace_arg == "1") {
    o.trace = o.work_dir + "/mempool_bench." +
              (o.workload.empty() ? std::string("all") : o.workload) +
              ".trace.json";
  } else if (!trace_arg.empty() && trace_arg != "0") {
    o.trace = trace_arg;
  }

  try {
    std::filesystem::create_directories(o.work_dir);
    if (o.workload.empty()) {
      return run_all(o, "/proc/self/exe");
    }
    return run_one(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
