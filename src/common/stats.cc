#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>

namespace ht {

Histogram::Histogram() { Reset(); }

void Histogram::Reset() {
  std::memset(buckets_, 0, sizeof(buckets_));
  count_ = 0;
  sum_ = 0;
  min_ = ~0ULL;
  max_ = 0;
}

void Histogram::Record(uint64_t value) {
  int bucket = value == 0 ? 0 : std::bit_width(value);
  if (bucket >= kBuckets) {
    bucket = kBuckets - 1;
  }
  ++buckets_[bucket];
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
}

uint64_t Histogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count_ - 1));
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen > target) {
      // Midpoint of the bucket's value range, clamped to observed extremes.
      const uint64_t lo = i == 0 ? 0 : (1ULL << (i - 1));
      const uint64_t hi = i == 0 ? 0 : (1ULL << i) - 1;
      const uint64_t mid = lo + (hi - lo) / 2;
      return std::clamp(mid, min(), max());
    }
  }
  return max_;
}

uint64_t StatSet::Get(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

double StatSet::GetGauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second.value();
}

const Histogram* StatSet::GetHistogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void StatSet::MergeFrom(const StatSet& other) {
  for (const auto& [name, value] : other.counters_) {
    counters_[name].value_ += value.value_;
  }
  for (const auto& [name, value] : other.gauges_) {
    gauges_[name].value_ = value.value_;
  }
  for (const auto& [name, histogram] : other.histograms_) {
    histograms_[name].Merge(histogram);
  }
}

void StatSet::Reset() {
  // Zero in place: interned Counter*/Histogram* handles stay valid.
  for (auto& [name, counter] : counters_) {
    counter.value_ = 0;
  }
  for (auto& [name, gauge] : gauges_) {
    gauge.value_ = 0.0;
  }
  for (auto& [name, histogram] : histograms_) {
    histogram.Reset();
  }
}

std::string StatSet::ToString() const {
  std::ostringstream out;
  for (const auto& [name, counter] : counters_) {
    out << name << " = " << counter.value() << "\n";
  }
  for (const auto& [name, value] : gauges_) {
    out << name << " = " << value.value() << "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    out << name << " : count=" << histogram.count() << " mean=" << histogram.Mean()
        << " p50=" << histogram.Quantile(0.5) << " p99=" << histogram.Quantile(0.99)
        << " max=" << histogram.max() << "\n";
  }
  return out.str();
}

}  // namespace ht
