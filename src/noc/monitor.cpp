#include "noc/monitor.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace mempool {

LatencyMonitor::LatencyMonitor(uint64_t warmup_cycles, double hist_bucket,
                               std::size_t hist_buckets)
    : warmup_(warmup_cycles), hist_(hist_bucket, hist_buckets) {}

void LatencyMonitor::on_generated(uint64_t cycle) {
  if (cycle >= warmup_) ++generated_;
}

void LatencyMonitor::on_injected(uint64_t cycle) {
  if (cycle >= warmup_) ++injected_;
}

void LatencyMonitor::on_response(uint64_t now, uint64_t birth) {
  if (now >= warmup_ && now < window_end_) ++completed_in_window_;
  if (birth < warmup_) return;  // request generated during warmup
  const double lat = static_cast<double>(now - birth);
  ++lat_count_;
  lat_sum_ += lat;
  lat_max_ = std::max(lat_max_, lat);
  hist_.add(lat);
}

void LatencyMonitor::save_state(StateSink& s) const {
  s.u64(generated_);
  s.u64(injected_);
  s.u64(completed_in_window_);
  s.u64(lat_count_);
  s.f64(lat_sum_);
  s.f64(lat_max_);
  s.u64(hist_.count());
  s.u64(hist_.overflow());
  // Every logical bucket, the unstored tail as zeros: the image layout does
  // not depend on how far the histogram's storage has grown.
  const std::vector<uint64_t>& stored = hist_.buckets();
  s.u32(static_cast<uint32_t>(hist_.num_buckets()));
  for (std::size_t i = 0; i < hist_.num_buckets(); ++i) {
    s.u64(i < stored.size() ? stored[i] : 0);
  }
}

void LatencyMonitor::load_state(StateSource& s) {
  generated_ = s.u64();
  injected_ = s.u64();
  completed_in_window_ = s.u64();
  lat_count_ = s.u64();
  lat_sum_ = s.f64();
  lat_max_ = s.f64();
  const uint64_t count = s.u64();
  const uint64_t overflow = s.u64();
  const uint32_t n = s.u32();
  std::vector<uint64_t> buckets(n, 0);
  for (uint64_t& b : buckets) b = s.u64();
  hist_.restore(buckets, count, overflow);
}

void LatencyMonitor::absorb(const LatencyMonitor& other) {
  MEMPOOL_CHECK_MSG(warmup_ == other.warmup_ &&
                        window_end_ == other.window_end_,
                    "absorbing a monitor with a different measure window");
  generated_ += other.generated_;
  injected_ += other.injected_;
  completed_in_window_ += other.completed_in_window_;
  lat_count_ += other.lat_count_;
  lat_sum_ += other.lat_sum_;
  lat_max_ = std::max(lat_max_, other.lat_max_);
  hist_.absorb(other.hist_);
}

}  // namespace mempool
