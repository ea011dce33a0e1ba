// Kernel workload: matmul, 2dconv and dct on the 256-core TopHS cluster,
// executed by the Snitch cores and verified by each kernel's own check.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/system.hpp"
#include "kernels/conv2d.hpp"
#include "kernels/dct.hpp"
#include "kernels/kernel.hpp"
#include "kernels/matmul.hpp"
#include "trace.hpp"

namespace mempool_bench {

using mempool::ClusterConfig;
using mempool::Engine;
using mempool::Json;
using mempool::SnitchCore;
using mempool::System;
using mempool::kernels::KernelProgram;

namespace {

struct KernelSpec {
  const char* name;
  std::function<KernelProgram(const ClusterConfig&, uint64_t)> build;
};

const KernelSpec kKernels[] = {
    {"matmul",
     [](const ClusterConfig& c, uint64_t s) {
       return mempool::kernels::build_matmul(c, 64, s);
     }},
    {"2dconv",
     [](const ClusterConfig& c, uint64_t s) {
       return mempool::kernels::build_conv2d(c, 256, s);
     }},
    {"dct",
     [](const ClusterConfig& c, uint64_t s) {
       return mempool::kernels::build_dct(c, s);
     }},
};

constexpr std::size_t kMinReps = 5;
constexpr uint64_t kMaxCycles = 50'000'000;

/// Input-data seed of kernel @p k for benchmark seed @p seed.
uint64_t data_seed(uint64_t seed, std::size_t k) { return seed * 100 + k; }

/// One kernel run, split at its layer calls.
struct KernelRun {
  uint64_t cycles = 0;
  bool ok = false;
  std::string error;
  double build_program_s = 0, setup_s = 0, run_s = 0, check_s = 0,
         rest_s = 0;
  SnitchCore::Stats stats;
  uint64_t evaluations = 0, commits = 0, skipped = 0, components = 0,
           clocked = 0;
  Engine::PhaseProfile profile;
};

KernelRun run_one(const ClusterConfig& cfg, const KernelSpec& k,
                  uint64_t seed, bool profile) {
  KernelRun out;
  Span build("kernels.build_program");
  const KernelProgram kp = k.build(cfg, seed);
  out.build_program_s = build.stop();

  Span ctor("core.system_ctor");
  auto sys = std::make_unique<System>(cfg);
  out.setup_s = ctor.stop();
  Span load("core.load_program");
  sys->load_program(kp.image);
  out.setup_s += load.stop();
  Span init("kernels.init");
  kp.init(*sys);
  out.setup_s += init.stop();

  sys->engine().set_profile(profile);
  Span run("sim.run");
  const System::RunResult r = sys->run(kMaxCycles);
  out.run_s = run.stop();
  out.cycles = r.cycles;

  Span check("kernels.check");
  out.ok = r.all_halted && kp.check(*sys, &out.error);
  if (!r.all_halted) out.error = "did not halt";
  out.check_s = check.stop();

  Span stats("kernels.stats");
  out.stats = sys->aggregate_core_stats();
  const Engine& e = sys->engine();
  out.evaluations = e.evaluations();
  out.commits = e.commits();
  out.skipped = e.idle_cycles_skipped();
  out.components = e.num_components();
  out.clocked = e.num_clocked();
  out.profile = e.phase_profile();
  out.rest_s = stats.stop();
  Span teardown("core.teardown");
  sys.reset();
  out.rest_s += teardown.stop();
  return out;
}

/// One set-up sample of the trio: System ctor + load_program + init for
/// each kernel, with the systems torn down untimed.
double trio_setup(const ClusterConfig& cfg,
                  const std::vector<KernelProgram>& programs) {
  double sample = 0;
  for (const KernelProgram& kp : programs) {
    Span ctor("core.system_ctor");
    auto sys = std::make_unique<System>(cfg);
    sample += ctor.stop();
    Span load("core.load_program");
    sys->load_program(kp.image);
    sample += load.stop();
    Span init("kernels.init");
    kp.init(*sys);
    sample += init.stop();
    Span teardown("core.teardown");
    sys.reset();
  }
  return sample;
}

double frac(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

PassOutput run_kernels(const PassContext& ctx) {
  const ClusterConfig cfg = ClusterConfig::paper("TopH", /*scrambling=*/true);
  PassOutput out;

  // Programs for the extra set-up samples taken after every timed trio.
  std::vector<KernelProgram> programs;
  for (std::size_t k = 0; k < std::size(kKernels); ++k) {
    programs.push_back(kKernels[k].build(cfg, data_seed(ctx.seed, k)));
  }

  // Untimed warm-up trio: fixes the reference cycle counts when there is no
  // golden, and is checked against the golden when there is one.
  Json actual = Json::object();
  std::vector<uint64_t> expected;
  {
    Span warm("bench.warmup");
    for (std::size_t k = 0; k < std::size(kKernels); ++k) {
      const KernelRun r =
          run_one(cfg, kKernels[k], data_seed(ctx.seed, k), false);
      ++out.attempted;
      if (!r.ok) {
        ++out.failed;
        std::printf("kernel %s failed its check: %s\n", kKernels[k].name,
                    r.error.c_str());
      }
      actual.set(std::string(kKernels[k].name) + "_cycles", r.cycles);
      expected.push_back(r.cycles);
    }
  }
  out.actual = actual;
  if (ctx.golden != nullptr) {
    for (std::size_t k = 0; k < std::size(kKernels); ++k) {
      expected[k] =
          ctx.golden->at(std::string(kKernels[k].name) + "_cycles").as_uint();
    }
    bool match = true;
    for (std::size_t k = 0; k < std::size(kKernels); ++k) {
      match = match && actual.at(std::string(kKernels[k].name) + "_cycles")
                               .as_uint() == expected[k];
    }
    if (!match) {
      ++out.failed;
      report_mismatch("kernels", "warm-up trio", *ctx.golden, actual);
    }
  }

  std::vector<double> setup, rates, latency, run_s, check_s, ns_per_instr,
      eval_share, commit_share;
  KernelRun last;
  SnitchCore::Stats trio_stats;
  uint64_t trio_evals = 0, trio_commits = 0, trio_skipped = 0;
  uint64_t trio_cycles = 0;
  const auto t0 = Clock::now();
  while (rates.size() < kMinReps ||
         seconds_between(t0, Clock::now()) < ctx.seconds) {
    Span rep("bench.rep");
    double setup_s = 0, run = 0, check = 0, wall = 0, eval_ns = 0,
           commit_ns = 0;
    trio_stats = {};
    trio_evals = trio_commits = trio_skipped = trio_cycles = 0;
    for (std::size_t k = 0; k < std::size(kKernels); ++k) {
      last = run_one(cfg, kKernels[k], data_seed(ctx.seed, k), ctx.traced);
      Span verify("bench.verify");
      ++out.attempted;
      if (!last.ok || last.cycles != expected[k]) {
        ++out.failed;
        std::printf("kernel %s: %s, %llu cycles (expected %llu)\n",
                    kKernels[k].name, last.ok ? "ok" : last.error.c_str(),
                    static_cast<unsigned long long>(last.cycles),
                    static_cast<unsigned long long>(expected[k]));
      }
      verify.stop();
      setup_s += last.setup_s;
      run += last.run_s;
      check += last.check_s;
      wall += last.build_program_s + last.setup_s + last.run_s +
              last.check_s + last.rest_s;
      eval_ns += static_cast<double>(last.profile.evaluate_ns);
      commit_ns += static_cast<double>(last.profile.commit_ns);
      trio_cycles += last.cycles;
      trio_evals += last.evaluations;
      trio_commits += last.commits;
      trio_skipped += last.skipped;
      const SnitchCore::Stats& s = last.stats;
      trio_stats.instret += s.instret;
      trio_stats.cycles += s.cycles;
      trio_stats.stall_fetch += s.stall_fetch;
      trio_stats.stall_raw += s.stall_raw;
      trio_stats.stall_rob += s.stall_rob;
      trio_stats.stall_port += s.stall_port;
      trio_stats.loads_local += s.loads_local;
      trio_stats.loads_remote += s.loads_remote;
      trio_stats.stores_local += s.stores_local;
      trio_stats.stores_remote += s.stores_remote;
    }
    rep.stop();
    setup.push_back(setup_s);
    setup.push_back(trio_setup(cfg, programs));
    run_s.push_back(run);
    check_s.push_back(check);
    latency.push_back(wall);
    rates.push_back(static_cast<double>(trio_cycles) / run);
    ns_per_instr.push_back(run * 1e9 /
                           static_cast<double>(trio_stats.instret));
    eval_share.push_back(eval_ns * 1e-9 / run);
    commit_share.push_back(commit_ns * 1e-9 / run);
  }

  // Host contention only ever slows a rep down, so the fastest rep is the
  // steadiest estimate of the simulator's own speed (the median moves with
  // the neighbours' load; see README.md).
  out.e2e["sim_cycles_per_s"] = *std::max_element(rates.begin(), rates.end());
  out.e2e["latency_ms"] =
      *std::min_element(latency.begin(), latency.end()) * 1e3;
  out.e2e["setup_s"] = median(setup);
  out.e2e["peak_rss_mb"] = peak_rss_mb();
  out.op_p50_s = median(latency);
  const std::string reps = sample_note("fastest", rates.size(), "kernel trios");
  out.notes["sim_cycles_per_s"] = reps;
  out.notes["latency_ms"] = reps;
  out.notes["setup_s"] = sample_note("p50", setup.size(), "trio set-ups");

  const SnitchCore::Stats& s = trio_stats;
  Values& l = out.layer;
  l["core.build_s"] = median(setup);
  l["core.components"] = static_cast<double>(last.components);
  l["core.clocked"] = static_cast<double>(last.clocked);
  l["sim.run_s"] = median(run_s);
  l["sim.evals_per_cycle"] = frac(trio_evals, trio_cycles);
  l["sim.skipped_frac"] = frac(trio_skipped, trio_cycles);
  l["sim.ns_per_eval"] =
      median(run_s) * 1e9 / static_cast<double>(trio_evals);
  l["sim.commits_per_cycle"] = frac(trio_commits, trio_cycles);
  l["sim.evaluate_share"] = median(eval_share);
  l["sim.commit_share"] = median(commit_share);
  l["kernels.load_s"] = median(setup);
  l["kernels.run_s"] = median(run_s);
  l["kernels.check_s"] = median(check_s);
  l["kernels.ns_per_instr"] = median(ns_per_instr);
  for (std::size_t k = 0; k < std::size(kKernels); ++k) {
    l[std::string("kernels.") + kKernels[k].name + "_cycles"] =
        static_cast<double>(expected[k]);
  }
  l["kernels.ipc"] = frac(s.instret, s.cycles);
  l["kernels.stall_fetch_frac"] = frac(s.stall_fetch, s.cycles);
  l["kernels.stall_raw_frac"] = frac(s.stall_raw, s.cycles);
  l["kernels.stall_rob_frac"] = frac(s.stall_rob, s.cycles);
  l["kernels.stall_port_frac"] = frac(s.stall_port, s.cycles);
  l["kernels.local_access_frac"] =
      frac(s.loads_local + s.stores_local,
           s.loads_local + s.loads_remote + s.stores_local + s.stores_remote);
  return out;
}

}  // namespace mempool_bench
