#pragma once
// Shared pieces of mempool_bench: the metric catalogue, sample statistics,
// golden-file helpers, and the per-pass context and output every workload
// uses. See README.md for what each workload runs and why.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace mempool_bench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload with tracing off.
inline constexpr MetricDef kEndToEnd[] = {
    {"sim_cycles_per_s", "1/s"},
    {"latency_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics, reported by every workload in the traced run; a layer
/// a workload does not exercise reads 0.
inline constexpr MetricDef kPerLayer[] = {
    {"core.build_s", "s"},
    {"core.components", "count"},
    {"core.clocked", "count"},
    {"sim.run_s", "s"},
    {"sim.evals_per_cycle", "evals/cycle"},
    {"sim.skipped_frac", "frac"},
    {"sim.ns_per_eval", "ns"},
    {"sim.commits_per_cycle", "commits/cycle"},
    {"sim.evaluate_share", "frac"},
    {"sim.commit_share", "frac"},
    {"traffic.avg_latency_cycles", "cycles"},
    {"traffic.p95_latency_cycles", "cycles"},
    {"traffic.accepted", "req/core/cycle"},
    {"traffic.completed", "count"},
    {"noc.tile_req_per_req", "count/req"},
    {"noc.group_local_per_req", "count/req"},
    {"noc.butterfly_per_req", "count/req"},
    {"noc.remote_resp_per_req", "count/req"},
    {"mem.bank_accesses", "count"},
    {"mem.bank_stall_per_access", "cycles"},
    {"kernels.load_s", "s"},
    {"kernels.run_s", "s"},
    {"kernels.check_s", "s"},
    {"kernels.ns_per_instr", "ns"},
    {"kernels.matmul_cycles", "cycles"},
    {"kernels.2dconv_cycles", "cycles"},
    {"kernels.dct_cycles", "cycles"},
    {"kernels.ipc", "instr/cycle"},
    {"kernels.stall_fetch_frac", "frac"},
    {"kernels.stall_raw_frac", "frac"},
    {"kernels.stall_rob_frac", "frac"},
    {"kernels.stall_port_frac", "frac"},
    {"kernels.local_access_frac", "frac"},
    {"serve.startup_s", "s"},
    {"serve.parse_us", "us"},
    {"serve.key_us", "us"},
    {"serve.cache_lookup_us", "us"},
    {"serve.result_json_us", "us"},
    {"serve.cache_insert_us", "us"},
    {"serve.run_point_ms", "ms"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.transport_hit_p50_ms", "ms"},
    {"serve.server_hit_p50_ms", "ms"},
    {"serve.server_hit_p99_ms", "ms"},
    {"serve.server_computed_p50_ms", "ms"},
    {"serve.server_computed_p99_ms", "ms"},
    {"serve.hit_p50_ms", "ms"},
    {"serve.hit_p99_ms", "ms"},
    {"serve.cold_p50_ms", "ms"},
    {"serve.cold_p95_ms", "ms"},
    {"serve.slo_met_frac", "frac"},
    {"serve.hit_rate", "frac"},
    {"serve.computed", "count"},
    {"serve.coalesced", "count"},
    {"serve.shed", "count"},
    {"serve.errors", "count"},
    {"loadgen.late_p99_ms", "ms"},
    {"trace.overhead_frac", "frac"},
    {"trace.unattributed_frac", "frac"},
};

using Values = std::map<std::string, double>;

/// What one pass of a workload needs to know.
struct PassContext {
  uint64_t seed = 1;
  double seconds = 10;   ///< Measurement window (timed reps / open loop).
  bool traced = false;   ///< Engine phase profiling on (traced pass only).
  const mempool::Json* golden = nullptr;  ///< This workload's golden block.
  std::string work_dir;                   ///< Scratch space (sockets, caches).
  std::string server_bin;                 ///< sim_server executable.
};

/// What one pass of a workload measured.
struct PassOutput {
  Values e2e;
  Values layer;
  std::map<std::string, std::string> notes;  ///< Per-metric sample counts.
  std::vector<std::string> remarks;          ///< Extra report lines.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  mempool::Json actual;  ///< This pass's golden block, in expected.json form.
  /// The median latency of the workload's unit of work; the traced and
  /// untraced passes' values give trace.overhead_frac.
  double op_p50_s = 0;
  bool valid = true;  ///< False when the load generator could not keep up.
};

// --- sample statistics -------------------------------------------------------

/// Linear-interpolated quantile @p q in [0, 1]; 0 for no samples.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// "fastest of 31 reps"-style note naming a reading's statistic and sample
/// count.
std::string sample_note(const std::string& label, std::size_t n,
                        const char* what);

// --- host --------------------------------------------------------------------

/// Peak resident set (VmHWM) of process @p pid in MB; 0 = this process.
double peak_rss_mb(int pid = 0);

// --- goldens -----------------------------------------------------------------

/// Count a golden mismatch: prints the expected block and @p actual (in
/// expected.json form, keyed by @p workload) so a deliberate model change
/// can update the file.
void report_mismatch(const std::string& workload, const std::string& what,
                     const mempool::Json& expected,
                     const mempool::Json& actual);

// --- workloads ---------------------------------------------------------------

PassOutput run_traffic(const std::string& workload, const PassContext& ctx);
PassOutput run_kernels(const PassContext& ctx);
PassOutput run_service(const PassContext& ctx);

}  // namespace mempool_bench
