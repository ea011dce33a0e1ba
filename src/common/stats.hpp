#pragma once
// Streaming statistics and histograms used by the network monitors and the
// benchmark harnesses.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace mempool {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
class RunningStat {
 public:
  void add(double x);
  void reset();

  uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1 denominator).
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// {"count":N,"mean":..,"stddev":..,"min":..,"max":..} for results files.
  Json to_json() const;

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-width bucket histogram over [0, bucket_width * num_buckets), with an
/// overflow bucket. Used for request-latency distributions.
///
/// Storage grows with the samples: only buckets up to the highest one
/// written are held, so a wide histogram (the service's 10 µs × 1,000,000)
/// costs nothing until a slow sample lands. The logical size stays
/// num_buckets; every bucket past buckets().size() counts zero.
class Histogram {
 public:
  Histogram(double bucket_width, std::size_t num_buckets);

  void add(double x);
  void reset();

  /// Fold @p other (same bucket width and count) into this histogram; counts
  /// are integers, so the merge is exact and order-free.
  void absorb(const Histogram& other);

  uint64_t count() const { return count_; }
  uint64_t overflow() const { return overflow_; }
  /// The stored buckets: a prefix of the num_buckets() logical ones.
  const std::vector<uint64_t>& buckets() const { return buckets_; }
  std::size_t num_buckets() const { return num_buckets_; }
  double bucket_width() const { return width_; }

  /// Value below which @p q (in [0,1]) of the samples fall, linear within a
  /// bucket; overflow samples count at the top edge.
  double quantile(double q) const;

  /// Checkpoint restore: overwrite the counts wholesale (@p buckets holds
  /// all num_buckets() of them). Counts are integers, so a restored
  /// histogram is exactly the saved one.
  void restore(const std::vector<uint64_t>& buckets, uint64_t count,
               uint64_t overflow);

  /// {"bucket_width":w,"counts":[...],"overflow":N}; trailing zero buckets
  /// are trimmed to keep results files small.
  Json to_json() const;

 private:
  double width_;
  std::size_t num_buckets_;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t overflow_ = 0;
};

}  // namespace mempool
