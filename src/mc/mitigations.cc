#include "mc/mitigations.h"

#include <algorithm>

namespace ht {

// --- PARA -------------------------------------------------------------------

void ParaMitigation::OnActivate(uint32_t rank, uint32_t bank, uint32_t row, Cycle now,
                                std::vector<NeighborRefreshRequest>& out) {
  (void)now;
  if (rng_.NextBool(config_.refresh_probability)) {
    out.push_back({rank, bank, row});
  }
}

// --- Graphene ---------------------------------------------------------------

GrapheneMitigation::GrapheneMitigation(const DramOrg& org, const DisturbanceParams& disturbance,
                                       const GrapheneConfig& config)
    : org_(org),
      threshold_(config.threshold != 0 ? config.threshold
                                       : std::max<uint32_t>(1, disturbance.mac / 4)),
      table_entries_(config.table_entries) {
  tables_.resize(static_cast<size_t>(org_.ranks) * org_.banks);
}

void GrapheneMitigation::OnActivate(uint32_t rank, uint32_t bank, uint32_t row, Cycle now,
                                    std::vector<NeighborRefreshRequest>& out) {
  (void)now;
  BankTable& table = tables_[static_cast<size_t>(rank) * org_.banks + bank];
  if (const uint32_t* pos = table.index.Find(row); pos != nullptr && *pos != 0) {
    Entry& entry = table.entries[*pos - 1];
    ++entry.count;
    if (entry.count >= threshold_) {
      out.push_back({rank, bank, row});
      entry.count = 0;  // Reset after servicing (Graphene's reset-on-refresh).
    }
    return;
  }
  if (table.entries.size() < table_entries_) {
    table.entries.push_back({row, table.spill + 1});
    table.index.FindOrInsert(row) = static_cast<uint32_t>(table.entries.size());
    return;
  }
  auto min_entry = std::min_element(
      table.entries.begin(), table.entries.end(),
      [](const Entry& a, const Entry& b) { return a.count < b.count; });
  if (min_entry->count <= table.spill) {
    // Replace the minimum with the new row (Misra-Gries style promotion).
    ++table.spill;
    if (uint32_t* old_pos = table.index.Find(min_entry->row)) {
      *old_pos = 0;  // The evicted row is no longer tracked.
    }
    *min_entry = {row, table.spill};
    table.index.FindOrInsert(row) =
        static_cast<uint32_t>(min_entry - table.entries.begin()) + 1;
  } else {
    ++table.spill;
  }
}

void GrapheneMitigation::OnEpoch(Cycle now) {
  (void)now;
  for (BankTable& table : tables_) {
    table.entries.clear();
    table.spill = 0;
    table.index.AdvanceEpoch();
  }
}

uint64_t GrapheneMitigation::TableProbes() const {
  uint64_t probes = 0;
  for (const BankTable& table : tables_) {
    probes += table.index.probes();
  }
  return probes;
}

uint64_t GrapheneMitigation::SramBits() const {
  // Per entry: row address (~32b conservatively: row bits) + counter.
  const uint64_t entry_bits = 32 + 32;
  return static_cast<uint64_t>(tables_.size()) * table_entries_ * entry_bits + 32;
}

// --- TWiCe ------------------------------------------------------------------

TwiceMitigation::TwiceMitigation(const DramOrg& org, const DramTiming& timing,
                                 const DisturbanceParams& disturbance, const TwiceConfig& config)
    : org_(org),
      threshold_(config.threshold != 0 ? config.threshold
                                       : std::max<uint32_t>(1, disturbance.mac / 4)),
      prune_interval_(config.prune_interval != 0 ? config.prune_interval
                                                 : static_cast<Cycle>(timing.tREFI) * 16),
      prune_min_rate_(config.prune_min_rate) {
  tables_.resize(static_cast<size_t>(org_.ranks) * org_.banks);
}

void TwiceMitigation::OnActivate(uint32_t rank, uint32_t bank, uint32_t row, Cycle now,
                                 std::vector<NeighborRefreshRequest>& out) {
  MaybePrune(now);
  BankTable& table = tables_[static_cast<size_t>(rank) * org_.banks + bank];
  if (const uint32_t* pos = table.index.Find(row); pos != nullptr && *pos != 0) {
    Entry& entry = table.entries[*pos - 1];
    ++entry.count;
    if (entry.count >= threshold_) {
      out.push_back({rank, bank, row});
      entry.count = 0;
      entry.count_at_last_prune = 0;
    }
    return;
  }
  table.entries.push_back({row, 1, 0});
  table.index.FindOrInsert(row) = static_cast<uint32_t>(table.entries.size());
  peak_entries_ = std::max(peak_entries_, static_cast<uint32_t>(table.entries.size()));
}

void TwiceMitigation::RebuildIndex(BankTable& table) {
  table.index.AdvanceEpoch();
  for (size_t i = 0; i < table.entries.size(); ++i) {
    table.index.FindOrInsert(table.entries[i].row) = static_cast<uint32_t>(i) + 1;
  }
}

void TwiceMitigation::MaybePrune(Cycle now) {
  if (now < last_prune_ + prune_interval_) {
    return;
  }
  last_prune_ = now;
  for (BankTable& table : tables_) {
    std::erase_if(table.entries, [this](const Entry& entry) {
      return entry.count - entry.count_at_last_prune < prune_min_rate_;
    });
    for (Entry& entry : table.entries) {
      entry.count_at_last_prune = entry.count;
    }
    RebuildIndex(table);  // Compaction moved entries; remap rows to slots.
  }
}

void TwiceMitigation::OnEpoch(Cycle now) {
  last_prune_ = now;
  for (BankTable& table : tables_) {
    table.entries.clear();
    table.index.AdvanceEpoch();
  }
}

uint64_t TwiceMitigation::TableProbes() const {
  uint64_t probes = 0;
  for (const BankTable& table : tables_) {
    probes += table.index.probes();
  }
  return probes;
}

uint64_t TwiceMitigation::SramBits() const {
  // TWiCe's cost is its peak table occupancy (it sizes the CAM for the
  // worst case, which grows as thresholds shrink).
  const uint64_t entry_bits = 32 + 32 + 32;
  return static_cast<uint64_t>(tables_.size()) * std::max<uint32_t>(peak_entries_, 1) *
         entry_bits;
}

// --- BlockHammer ------------------------------------------------------------

BlockHammerMitigation::BlockHammerMitigation(const DramOrg& org, const RetentionParams& retention,
                                             const DisturbanceParams& disturbance,
                                             const BlockHammerConfig& config)
    : org_(org),
      config_(config),
      blacklist_threshold_(config.blacklist_threshold != 0
                               ? config.blacklist_threshold
                               : std::max<uint32_t>(1, disturbance.mac / 8)),
      throttle_delay_(config.throttle_delay != 0
                          ? config.throttle_delay
                          : std::max<Cycle>(1, retention.refresh_window / disturbance.mac)) {
  filters_.resize(static_cast<size_t>(org_.ranks) * org_.banks);
  for (BankFilter& filter : filters_) {
    filter.active.assign(config_.filter_counters, 0);
    filter.shadow.assign(config_.filter_counters, 0);
    filter.last_act.assign(config_.filter_counters, 0);
  }
  Rng rng(config_.seed);
  for (uint64_t& seed : hash_seeds_) {
    seed = rng.Next() | 1;
  }
}

uint64_t BlockHammerMitigation::HashSlot(uint32_t row, uint32_t hash) const {
  uint64_t x = (static_cast<uint64_t>(row) + 0x1234) * hash_seeds_[hash % 8];
  x ^= x >> 33;
  return x % config_.filter_counters;
}

uint32_t BlockHammerMitigation::MinCount(const BankFilter& filter, uint32_t row) const {
  uint32_t min_count = ~0u;
  for (uint32_t h = 0; h < config_.hashes; ++h) {
    min_count = std::min(min_count, filter.active[HashSlot(row, h)]);
  }
  return min_count;
}

void BlockHammerMitigation::OnActivate(uint32_t rank, uint32_t bank, uint32_t row, Cycle now,
                                       std::vector<NeighborRefreshRequest>& out) {
  (void)out;  // BlockHammer never refreshes; it only throttles.
  BankFilter& filter = filters_[static_cast<size_t>(rank) * org_.banks + bank];
  for (uint32_t h = 0; h < config_.hashes; ++h) {
    const uint64_t slot = HashSlot(row, h);
    ++filter.active[slot];
    filter.last_act[slot] = now;
  }
}

Cycle BlockHammerMitigation::ActAllowedAt(uint32_t rank, uint32_t bank, uint32_t row, Cycle now) {
  const BankFilter& filter = filters_[static_cast<size_t>(rank) * org_.banks + bank];
  if (MinCount(filter, row) < blacklist_threshold_) {
    return now;
  }
  // Blacklisted: enforce minimum spacing since the row's last ACT.
  Cycle last = 0;
  for (uint32_t h = 0; h < config_.hashes; ++h) {
    last = std::max(last, filter.last_act[HashSlot(row, h)]);
  }
  return std::max(now, last + throttle_delay_);
}

void BlockHammerMitigation::OnEpoch(Cycle now) {
  (void)now;
  // Swap dual filters: the shadow (which aged a full epoch) becomes
  // active after clearing, so counts decay with bounded staleness.
  for (BankFilter& filter : filters_) {
    std::swap(filter.active, filter.shadow);
    std::fill(filter.active.begin(), filter.active.end(), 0);
  }
}

uint64_t BlockHammerMitigation::SramBits() const {
  // Two filters of `filter_counters` saturating counters (16b) plus the
  // per-slot timestamp approximation (32b).
  return static_cast<uint64_t>(filters_.size()) * config_.filter_counters * (16 + 16 + 32);
}

}  // namespace ht
