// Small statistics helpers shared by benchmarks and reports.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

namespace looplynx::util {

/// Arithmetic mean; returns 0 for an empty span.
double mean(std::span<const double> values);

/// Geometric mean; values must be positive. Returns 0 for an empty span.
/// The paper's "average speed-up" claims are ratio averages, for which the
/// geometric mean is the correct aggregate.
double geomean(std::span<const double> values);

/// Population standard deviation; returns 0 for fewer than two values.
double stddev(std::span<const double> values);

double min_of(std::span<const double> values);
double max_of(std::span<const double> values);

/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);

/// The latency percentiles every serving report needs (p50/p95/p99), plus
/// mean and count, computed with a single sort. Empty input yields all
/// zeros; a single sample yields that sample for every percentile.
struct PercentileSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

PercentileSummary percentile_summary(std::vector<double> values);

/// percentile_summary over samples the caller already sorted ascending —
/// same mean-accumulation and interpolation arithmetic, so the result is
/// bit-identical to percentile_summary on any permutation of `sorted`.
PercentileSummary percentile_summary_presorted(std::span<const double> sorted);

/// In-place ascending LSD radix sort (16-bit digits, high passes skipped
/// once the maximum key is exhausted): O(n) instead of O(n log n) for
/// CountTable's pending batches and perfbench's replay of the gap series;
/// small inputs fall back to std::sort.
void radix_sort(std::vector<std::uint64_t>& keys);

/// Exact multiset of u64 samples (the serve layer's cycle-domain latency
/// series), held as ascending (value, count) runs: one entry per distinct
/// value instead of one per sample. add() appends to a pending buffer; a
/// full buffer is radix-sorted, run-length encoded and merged linearly
/// into the runs. The buffer flushes at max(kBatch, distinct) samples, so
/// merge work stays amortized O(1) per sample even when every sample is
/// distinct. There is no bucketing: summary() is bit-identical to
/// percentile_summary over the converted samples.
class CountTable {
 public:
  /// Smallest pending batch: large enough that one radix sort and one
  /// linear merge amortize over many samples, small enough to stay cached.
  static constexpr std::size_t kBatch = std::size_t{1} << 16;

  void add(std::uint64_t value) {
    pending_.push_back(value);
    if (pending_.size() >= std::max(kBatch, runs_.size())) flush();
  }

  /// Adds every sample of `other` (a different table) in O(distinct of
  /// both tables).
  void merge(const CountTable& other);

  /// Mean, p50, p95 and p99 of to_value(sample) over every sample, where
  /// `to_value` is non-decreasing, with percentile_summary's arithmetic:
  /// the mean adds to_value(v) once per sample in ascending order (never
  /// count * to_value(v), which rounds differently), and each percentile
  /// interpolates between the samples at its two neighbouring ranks, read
  /// from the cumulative counts.
  template <typename ToValue>
  PercentileSummary summary(ToValue to_value);

 private:
  struct Run {
    std::uint64_t value = 0;
    std::uint64_t count = 0;
  };

  /// Folds the pending samples into runs_.
  void flush();
  /// Merges ascending distinct runs [from, to) into runs_.
  void merge_runs(const Run* from, const Run* to);
  /// The rank-th smallest sample (0-based) of a flushed, non-empty table.
  std::uint64_t at(std::uint64_t rank) const;

  std::vector<std::uint64_t> pending_;
  std::vector<Run> runs_;
  std::uint64_t counted_ = 0;  // samples held in runs_
};

template <typename ToValue>
PercentileSummary CountTable::summary(ToValue to_value) {
  flush();
  PercentileSummary s;
  if (counted_ == 0) return s;
  double sum = 0.0;
  for (const Run& r : runs_) {
    const double x = to_value(r.value);
    for (std::uint64_t k = 0; k < r.count; ++k) sum += x;
  }
  s.count = counted_;
  s.mean = sum / static_cast<double>(counted_);
  const auto interp = [&](double p) {
    const double rank = (p / 100.0) * static_cast<double>(counted_ - 1);
    const auto lo = static_cast<std::uint64_t>(rank);
    const auto hi = std::min(lo + 1, counted_ - 1);
    const double frac = rank - static_cast<double>(lo);
    return to_value(at(lo)) * (1.0 - frac) + to_value(at(hi)) * frac;
  };
  s.p50 = interp(50.0);
  s.p95 = interp(95.0);
  s.p99 = interp(99.0);
  return s;
}

/// Ascending sort of doubles, radix-accelerated when every value is
/// finite and non-negative with a clear sign bit (IEEE-754 orders such
/// values exactly like their u64 bit patterns; equal values have equal
/// bits, so the result is indistinguishable from std::sort). Anything
/// else — negatives, -0.0, NaN, small inputs — falls back to std::sort.
void sort_ascending(std::vector<double>& values);

/// Time-stamped sample window for rolling-percentile control signals (the
/// serve-layer autoscaler's p99 TTFT). Samples enter in non-decreasing
/// time order and leave from the front as the window slides, so push +
/// evict are O(1) amortized — an evaluation never re-scans samples that
/// already left the window, however long the run gets. percentile() sorts
/// only the samples currently inside the window (cost bounded by window
/// occupancy, not run length).
class SlidingWindow {
 public:
  /// `at` must be >= the previous push's `at` (fleet clocks are monotone).
  void push(double at, double value);

  /// Drops every sample with time < `at` (the trailing window edge).
  void evict_before(double at);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// Linear-interpolated percentile over the samples in the window, p in
  /// [0, 100]. Returns 0 for an empty window.
  double percentile(double p) const;

 private:
  std::deque<std::pair<double, double>> samples_;  // (time, value)
};

/// Streaming accumulator (Welford) for mean/variance plus min/max.
class RunningStat {
 public:
  void add(double value);
  std::size_t count() const { return count_; }
  double mean() const { return mean_; }
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace looplynx::util
