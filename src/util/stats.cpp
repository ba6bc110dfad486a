#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace looplynx::util {

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double geomean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double stddev(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values.size()));
}

double min_of(std::span<const double> values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double max_of(std::span<const double> values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

namespace {

/// Linear-interpolated percentile over an already-sorted, non-empty range.
double sorted_percentile(std::span<const double> sorted, double p) {
  const double rank =
      (p / 100.0) * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return sorted_percentile(values, p);
}

void sort_ascending(std::vector<double>& values) {
  if (values.size() < 4096) {
    std::sort(values.begin(), values.end());
    return;
  }
  for (double v : values) {
    if (!(v >= 0.0) || std::signbit(v) || !std::isfinite(v)) {
      std::sort(values.begin(), values.end());
      return;
    }
  }
  std::vector<std::uint64_t> keys(values.size());
  std::memcpy(keys.data(), values.data(), values.size() * sizeof(double));
  radix_sort(keys);
  std::memcpy(values.data(), keys.data(), values.size() * sizeof(double));
}

PercentileSummary percentile_summary(std::vector<double> values) {
  PercentileSummary s;
  if (values.empty()) return s;
  sort_ascending(values);
  s.count = values.size();
  s.mean = mean(values);
  s.p50 = sorted_percentile(values, 50.0);
  s.p95 = sorted_percentile(values, 95.0);
  s.p99 = sorted_percentile(values, 99.0);
  return s;
}

PercentileSummary percentile_summary_presorted(
    std::span<const double> sorted) {
  PercentileSummary s;
  if (sorted.empty()) return s;
  s.count = sorted.size();
  s.mean = mean(sorted);
  s.p50 = sorted_percentile(sorted, 50.0);
  s.p95 = sorted_percentile(sorted, 95.0);
  s.p99 = sorted_percentile(sorted, 99.0);
  return s;
}

void radix_sort(std::vector<std::uint64_t>& keys) {
  // Comparison sort is the better deal until the counting tables pay off.
  if (keys.size() < 4096) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  std::uint64_t max_key = 0;
  for (std::uint64_t k : keys) max_key = std::max(max_key, k);
  std::vector<std::uint64_t> buf(keys.size());
  std::vector<std::size_t> count(1u << 16);
  std::vector<std::uint64_t>* src = &keys;
  std::vector<std::uint64_t>* dst = &buf;
  for (unsigned shift = 0; shift < 64 && (max_key >> shift) != 0;
       shift += 16) {
    std::fill(count.begin(), count.end(), 0);
    for (std::uint64_t k : *src) ++count[(k >> shift) & 0xffff];
    std::size_t total = 0;
    for (std::size_t& c : count) {
      const std::size_t n = c;
      c = total;
      total += n;
    }
    for (std::uint64_t k : *src) (*dst)[count[(k >> shift) & 0xffff]++] = k;
    std::swap(src, dst);
  }
  if (src != &keys) keys.swap(buf);
}

void CountTable::merge(const CountTable& other) {
  merge_runs(other.runs_.data(), other.runs_.data() + other.runs_.size());
  counted_ += other.counted_;
  for (std::uint64_t v : other.pending_) add(v);
}

void CountTable::flush() {
  if (pending_.empty()) return;
  radix_sort(pending_);
  std::vector<Run> batch;
  for (std::uint64_t v : pending_) {
    if (!batch.empty() && batch.back().value == v) {
      ++batch.back().count;
    } else {
      batch.push_back({v, 1});
    }
  }
  counted_ += pending_.size();
  pending_.clear();
  merge_runs(batch.data(), batch.data() + batch.size());
}

void CountTable::merge_runs(const Run* from, const Run* to) {
  std::vector<Run> merged;
  merged.reserve(runs_.size() + static_cast<std::size_t>(to - from));
  auto it = runs_.cbegin();
  while (it != runs_.cend() && from != to) {
    if (it->value < from->value) {
      merged.push_back(*it++);
    } else if (from->value < it->value) {
      merged.push_back(*from++);
    } else {
      merged.push_back({it->value, it->count + from->count});
      ++it;
      ++from;
    }
  }
  merged.insert(merged.end(), it, runs_.cend());
  merged.insert(merged.end(), from, to);
  runs_.swap(merged);
}

std::uint64_t CountTable::at(std::uint64_t rank) const {
  std::uint64_t through = 0;  // samples in the runs walked so far
  for (const Run& r : runs_) {
    through += r.count;
    if (rank < through) return r.value;
  }
  throw std::out_of_range("CountTable::at: rank past the last sample");
}

void SlidingWindow::push(double at, double value) {
  samples_.emplace_back(at, value);
}

void SlidingWindow::evict_before(double at) {
  while (!samples_.empty() && samples_.front().first < at) {
    samples_.pop_front();
  }
}

double SlidingWindow::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  std::vector<double> values;
  values.reserve(samples_.size());
  for (const auto& [at, v] : samples_) values.push_back(v);
  std::sort(values.begin(), values.end());
  return sorted_percentile(values, p);
}

void RunningStat::add(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

double RunningStat::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

}  // namespace looplynx::util
