// Memory-controller-resident hardware mitigation baselines.
//
// The paper argues (§3) that state-of-the-art hardware defenses either
// cannot provide comprehensive protection or need ever more SRAM/CAM and
// performance overhead as DRAM density rises. To measure that claim we
// implement the canonical representatives:
//  * PARA        (Kim et al. [32])      — stateless probabilistic
//                                          adjacent-row refresh.
//  * Graphene    (Park et al. [44])     — Misra-Gries top-k counting with
//                                          threshold-triggered refresh.
//  * TWiCe       (Lee et al. [37])      — pruned time-window counters.
//  * BlockHammer (Yağlikçi et al. [59]) — counting-Bloom-filter blacklist
//                                          that rate-limits (throttles)
//                                          ACTs to suspect rows.
//
// Each reports an SRAM cost estimate so experiment E4 can reproduce the
// scaling argument. All of them operate on *logical* rows (they live in
// the MC and cannot see DRAM-internal remapping) — a modeled limitation
// the REF_NEIGHBORS ablation (E12) contrasts.
#ifndef HAMMERTIME_SRC_MC_MITIGATIONS_H_
#define HAMMERTIME_SRC_MC_MITIGATIONS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/flat_table.h"
#include "common/rng.h"
#include "common/types.h"
#include "dram/config.h"

namespace ht {

// A request from a mitigation to refresh the neighbours of `aggressor_row`.
struct NeighborRefreshRequest {
  uint32_t rank = 0;
  uint32_t bank = 0;
  uint32_t aggressor_row = 0;  // Logical row whose neighbours need repair.
};

// Interface for MC-resident mitigations, driven by the controller.
class McMitigation {
 public:
  virtual ~McMitigation() = default;

  virtual std::string name() const = 0;

  // Observes an issued ACT. Appends any neighbour-refresh work the
  // mitigation wants performed to `out`.
  virtual void OnActivate(uint32_t rank, uint32_t bank, uint32_t row, Cycle now,
                          std::vector<NeighborRefreshRequest>& out) = 0;

  // Scheduling gate: the earliest cycle >= `now` at which an ACT of `row`
  // may issue; `now` means unthrottled. Only BlockHammer throttles. The
  // answer must be a pure function of the mitigation's state, and that
  // state may only raise answers between OnEpoch calls (an ACT on any
  // bank, of any channel, never lowers one): the controller folds answers
  // into the cycles it next scans at, and resets them only at the epoch.
  virtual Cycle ActAllowedAt(uint32_t rank, uint32_t bank, uint32_t row, Cycle now) {
    (void)rank;
    (void)bank;
    (void)row;
    return now;
  }

  // Called at each refresh-window epoch boundary so windowed state resets.
  virtual void OnEpoch(Cycle now) { (void)now; }

  // Estimated on-chip storage, in bits, for the E4 cost model.
  virtual uint64_t SramBits() const = 0;

  // Cumulative flat-table probe count, for the controller's
  // "act.table_probes" telemetry. Zero for mitigations without tables.
  virtual uint64_t TableProbes() const { return 0; }
};

// --- PARA -------------------------------------------------------------------

struct ParaConfig {
  double refresh_probability = 0.02;  // Per-ACT neighbour refresh chance.
  uint64_t seed = 0x9A4AULL;
};

class ParaMitigation : public McMitigation {
 public:
  ParaMitigation(const DramOrg& org, const ParaConfig& config)
      : org_(org), config_(config), rng_(config.seed) {}

  std::string name() const override { return "para"; }
  void OnActivate(uint32_t rank, uint32_t bank, uint32_t row, Cycle now,
                  std::vector<NeighborRefreshRequest>& out) override;
  uint64_t SramBits() const override { return 64; }  // Just an RNG/LFSR.

 private:
  DramOrg org_;
  ParaConfig config_;
  Rng rng_;
};

// --- Graphene ---------------------------------------------------------------

struct GrapheneConfig {
  uint32_t table_entries = 64;  // Misra-Gries counters per bank.
  uint32_t threshold = 0;       // ACT estimate that triggers refresh;
                                // 0 = derive as mac/4 from the device.
};

class GrapheneMitigation : public McMitigation {
 public:
  GrapheneMitigation(const DramOrg& org, const DisturbanceParams& disturbance,
                     const GrapheneConfig& config);

  std::string name() const override { return "graphene"; }
  void OnActivate(uint32_t rank, uint32_t bank, uint32_t row, Cycle now,
                  std::vector<NeighborRefreshRequest>& out) override;
  void OnEpoch(Cycle now) override;
  uint64_t SramBits() const override;
  uint64_t TableProbes() const override;

 private:
  struct Entry {
    uint32_t row = 0;
    uint32_t count = 0;
  };
  struct BankTable {
    std::vector<Entry> entries;
    uint32_t spill = 0;  // Misra-Gries spillover counter.
    // row -> entries position + 1 (0 = absent); makes the per-ACT lookup
    // O(1) instead of a scan over table_entries (which E4 sizes into the
    // thousands for dense generations). Epoch-reset with the table.
    FlatRowTable<uint32_t> index;
  };

  DramOrg org_;
  uint32_t threshold_;
  uint32_t table_entries_;
  std::vector<BankTable> tables_;  // ranks * banks.
};

// --- TWiCe ------------------------------------------------------------------

struct TwiceConfig {
  uint32_t threshold = 0;        // Row-hammering threshold; 0 = mac/4.
  uint32_t prune_interval = 0;   // Cycles between pruning passes; 0 = tREFI*16.
  uint32_t prune_min_rate = 2;   // Entries gaining < this many ACTs per
                                 // interval are pruned (cannot reach the
                                 // threshold within the window).
};

class TwiceMitigation : public McMitigation {
 public:
  TwiceMitigation(const DramOrg& org, const DramTiming& timing,
                  const DisturbanceParams& disturbance, const TwiceConfig& config);

  std::string name() const override { return "twice"; }
  void OnActivate(uint32_t rank, uint32_t bank, uint32_t row, Cycle now,
                  std::vector<NeighborRefreshRequest>& out) override;
  void OnEpoch(Cycle now) override;
  uint64_t SramBits() const override;
  uint64_t TableProbes() const override;
  // Peak table occupancy across banks — TWiCe's area story (E4).
  uint32_t peak_entries() const { return peak_entries_; }

 private:
  struct Entry {
    uint32_t row = 0;
    uint32_t count = 0;
    uint32_t count_at_last_prune = 0;
  };
  struct BankTable {
    std::vector<Entry> entries;
    FlatRowTable<uint32_t> index;  // row -> entries position + 1 (0 = absent).
  };

  void MaybePrune(Cycle now);
  static void RebuildIndex(BankTable& table);

  DramOrg org_;
  uint32_t threshold_;
  Cycle prune_interval_;
  uint32_t prune_min_rate_;
  std::vector<BankTable> tables_;  // ranks * banks.
  Cycle last_prune_ = 0;
  uint32_t peak_entries_ = 0;
};

// --- BlockHammer ------------------------------------------------------------

struct BlockHammerConfig {
  uint32_t filter_counters = 1024;  // Counting Bloom filter size per bank.
  uint32_t hashes = 3;
  uint32_t blacklist_threshold = 0;  // ACT estimate to blacklist; 0 = mac/8.
  // Minimum spacing enforced between ACTs of a blacklisted row, chosen so
  // a blacklisted row cannot exceed the MAC within the refresh window.
  Cycle throttle_delay = 0;          // 0 = derive from window / mac.
  uint64_t seed = 0xB10CULL;
};

class BlockHammerMitigation : public McMitigation {
 public:
  BlockHammerMitigation(const DramOrg& org, const RetentionParams& retention,
                        const DisturbanceParams& disturbance, const BlockHammerConfig& config);

  std::string name() const override { return "blockhammer"; }
  void OnActivate(uint32_t rank, uint32_t bank, uint32_t row, Cycle now,
                  std::vector<NeighborRefreshRequest>& out) override;
  Cycle ActAllowedAt(uint32_t rank, uint32_t bank, uint32_t row, Cycle now) override;
  void OnEpoch(Cycle now) override;
  uint64_t SramBits() const override;

 private:
  struct BankFilter {
    // Dual counting Bloom filters, swapped each epoch so counts age out.
    std::vector<uint32_t> active;
    std::vector<uint32_t> shadow;
    std::vector<Cycle> last_act;  // Per hash-slot last-ACT time (approx.).
  };

  uint32_t MinCount(const BankFilter& filter, uint32_t row) const;
  uint64_t HashSlot(uint32_t row, uint32_t hash) const;

  DramOrg org_;
  BlockHammerConfig config_;
  uint32_t blacklist_threshold_;
  Cycle throttle_delay_;
  std::vector<BankFilter> filters_;  // ranks * banks.
  uint64_t hash_seeds_[8];
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_MC_MITIGATIONS_H_
