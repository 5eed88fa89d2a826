// Lightweight metric primitives: named counters, gauges, and fixed-bucket
// histograms, grouped in a StatSet that components expose for reporting.
//
// Two access styles:
//  * string-keyed (`Add("mc.row_hits")`) — convenient for cold paths and
//    one-off bookkeeping;
//  * interned handles (`Counter* hits = stats_.counter("mc.row_hits")`,
//    then `hits->Increment()`) — the hot-path form. A handle resolves the
//    name once; every subsequent update is a plain pointer increment.
//
// Handle lifetime: a Counter*/Histogram* stays valid for the lifetime of
// the owning StatSet. Reset() zeroes values in place (it does not erase
// entries), so handles survive Reset(); MergeFrom() only adds entries.
#ifndef HAMMERTIME_SRC_COMMON_STATS_H_
#define HAMMERTIME_SRC_COMMON_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ht {

// A streaming histogram with power-of-two bucket boundaries; cheap enough
// to update on every memory request. Tracks count/sum/min/max exactly and
// approximates quantiles from the buckets.
class Histogram {
 public:
  Histogram();

  void Record(uint64_t value);
  void Merge(const Histogram& other);
  void Reset();

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double Mean() const;

  // Approximate quantile (q in [0,1]) from bucket boundaries; exact for
  // min/max endpoints.
  uint64_t Quantile(double q) const;

  // Exact structural equality (buckets and summary stats). Used by the
  // differential checks that compare StatSets across run variants.
  bool operator==(const Histogram& other) const {
    if (count_ != other.count_ || sum_ != other.sum_ || max_ != other.max_ ||
        min() != other.min()) {
      return false;
    }
    for (int i = 0; i < kBuckets; ++i) {
      if (buckets_[i] != other.buckets_[i]) {
        return false;
      }
    }
    return true;
  }
  bool operator!=(const Histogram& other) const { return !(*this == other); }

 private:
  static constexpr int kBuckets = 64;  // bucket i holds values with bit-width i.
  uint64_t buckets_[kBuckets];
  uint64_t count_;
  uint64_t sum_;
  uint64_t min_;
  uint64_t max_;
};

// A single named counter inside a StatSet. Obtained once via
// StatSet::counter(); updates are branch-free pointer increments.
class Counter {
 public:
  void Increment() { ++value_; }
  void Add(uint64_t delta) { value_ += delta; }
  uint64_t value() const { return value_; }

 private:
  friend class StatSet;
  uint64_t value_ = 0;
};

// A named last-value gauge. Obtained once via StatSet::gauge(); updates
// are plain stores with no map lookup.
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  friend class StatSet;
  double value_ = 0.0;
};

// A named bundle of metrics. Components own a StatSet and register deltas
// into it; the experiment harness snapshots and prints them.
class StatSet {
 public:
  // --- Interned handles (hot path) -------------------------------------
  // Stable for the StatSet's lifetime (std::map nodes never move; Reset()
  // zeroes in place rather than erasing).
  Counter* counter(const std::string& name) { return &counters_[name]; }
  Gauge* gauge(const std::string& name) { return &gauges_[name]; }
  Histogram* histogram(const std::string& name) { return &histograms_[name]; }

  // --- String-keyed API (cold paths, tests) -----------------------------
  void Add(const std::string& name, uint64_t delta = 1) { counters_[name].value_ += delta; }
  void Set(const std::string& name, double value) { gauges_[name].value_ = value; }
  void RecordLatency(const std::string& name, uint64_t value) { histograms_[name].Record(value); }

  uint64_t Get(const std::string& name) const;
  double GetGauge(const std::string& name) const;
  const Histogram* GetHistogram(const std::string& name) const;

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const { return histograms_; }

  void MergeFrom(const StatSet& other);
  // Zeroes every metric in place. Interned handles remain valid.
  void Reset();

  // Human-readable dump, one metric per line, sorted by name.
  std::string ToString() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_COMMON_STATS_H_
