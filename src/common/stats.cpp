#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace mempool {

void RunningStat::add(double x) {
  ++n_;
  sum_ += x;
  const double d = x - mean_;
  mean_ += d / static_cast<double>(n_);
  m2_ += d * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStat::reset() { *this = RunningStat{}; }

double RunningStat::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double bucket_width, std::size_t num_buckets)
    : width_(bucket_width), num_buckets_(num_buckets) {
  MEMPOOL_CHECK(bucket_width > 0.0);
  MEMPOOL_CHECK(num_buckets > 0);
}

void Histogram::add(double x) {
  ++count_;
  if (x < 0) x = 0;
  const auto idx = static_cast<std::size_t>(x / width_);
  if (idx >= num_buckets_) {
    ++overflow_;
    return;
  }
  if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0);
  ++buckets_[idx];
}

void Histogram::reset() {
  buckets_.clear();
  count_ = 0;
  overflow_ = 0;
}

void Histogram::absorb(const Histogram& other) {
  MEMPOOL_CHECK_MSG(width_ == other.width_ &&
                        num_buckets_ == other.num_buckets_,
                    "absorbing a histogram with a different shape");
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  overflow_ += other.overflow_;
}

void Histogram::restore(const std::vector<uint64_t>& buckets, uint64_t count,
                        uint64_t overflow) {
  MEMPOOL_CHECK_MSG(buckets.size() == num_buckets_,
                    "restoring a histogram with a different shape ("
                        << buckets.size() << " buckets into " << num_buckets_
                        << ")");
  std::size_t used = buckets.size();
  while (used > 0 && buckets[used - 1] == 0) --used;
  buckets_.assign(buckets.begin(), buckets.begin() + used);
  count_ = count;
  overflow_ = overflow;
}

Json RunningStat::to_json() const {
  Json j = Json::object();
  j.set("count", n_);
  j.set("mean", mean());
  j.set("stddev", stddev());
  j.set("min", min());
  j.set("max", max());
  return j;
}

Json Histogram::to_json() const {
  Json j = Json::object();
  j.set("bucket_width", width_);
  std::size_t last = buckets_.size();
  while (last > 0 && buckets_[last - 1] == 0) --last;
  Json counts = Json::array();
  for (std::size_t i = 0; i < last; ++i) counts.push_back(buckets_[i]);
  j.set("counts", std::move(counts));
  j.set("overflow", overflow_);
  return j;
}

double Histogram::quantile(double q) const {
  MEMPOOL_CHECK(q >= 0.0 && q <= 1.0);
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  double cum = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const double next = cum + static_cast<double>(buckets_[i]);
    if (next >= target) {
      const double frac =
          buckets_[i] ? (target - cum) / static_cast<double>(buckets_[i]) : 0.0;
      return (static_cast<double>(i) + frac) * width_;
    }
    cum = next;
  }
  // The first unstored bucket (count zero) answers when the stored ones
  // already reach the target, as it would were it stored.
  if (buckets_.size() < num_buckets_ && cum >= target) {
    return width_ * static_cast<double>(buckets_.size());
  }
  return width_ * static_cast<double>(num_buckets_);
}

}  // namespace mempool
