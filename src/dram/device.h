// One DRAM channel: ranks of banks of subarrays of rows, with full DDR
// timing enforcement, retention bookkeeping, the disturbance model, the
// optional in-DRAM TRR, optional vendor row remapping, and the proposed
// REF_NEIGHBORS extension.
//
// The device validates every command (tests exercise illegal streams), so
// a buggy scheduler cannot silently corrupt simulation results.
#ifndef HAMMERTIME_SRC_DRAM_DEVICE_H_
#define HAMMERTIME_SRC_DRAM_DEVICE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "common/telemetry/trace.h"
#include "common/types.h"
#include "dram/check_hooks.h"
#include "dram/command.h"
#include "dram/config.h"
#include "dram/data_store.h"
#include "dram/disturbance.h"
#include "dram/remap.h"
#include "dram/timing.h"
#include "dram/trr.h"

namespace ht {

// One observed Rowhammer bit-flip episode (a victim row crossing the MAC).
struct FlipRecord {
  Cycle cycle = 0;
  uint32_t channel = 0;
  uint32_t rank = 0;
  uint32_t bank = 0;
  uint32_t victim_row = 0;      // Logical row index (what software sees).
  uint32_t aggressor_row = 0;   // Logical row index of the tipping aggressor.
  uint32_t subarray = 0;        // Internal subarray of the victim.
  uint32_t bits_flipped = 0;    // Bits corrupted in stored data (0 if row empty).
};

class DramDevice {
 public:
  DramDevice(const DramConfig& config, uint32_t channel_index);

  // --- Command interface (used by the memory controller) ------------------

  // Earliest cycle `cmd` satisfies all timing constraints.
  Cycle EarliestCycle(const DdrCommand& cmd) const { return timing_.EarliestCycle(cmd); }

  // Structural + timing legality at `now`.
  TimingVerdict Check(const DdrCommand& cmd, Cycle now) const { return timing_.Check(cmd, now); }

  // Executes `cmd` at `now`. Returns the verdict; state changes only on
  // kOk. ACT applies disturbance and may generate flips.
  TimingVerdict Issue(const DdrCommand& cmd, Cycle now);

  std::optional<uint32_t> OpenRow(uint32_t rank, uint32_t bank) const {
    return timing_.OpenRow(rank, bank);
  }

  // Bit per bank of `rank` with an open row; lets the refresh manager
  // answer "any bank open?" without scanning.
  uint64_t OpenBankMask(uint32_t rank) const { return timing_.OpenBankMask(rank); }

  // The timing state behind Check/EarliestCycle/OpenRow (read-only; the
  // scheduler check snapshots it).
  const TimingChecker& timing() const { return timing_; }

  // --- Data plane ----------------------------------------------------------

  // Reads/writes the representative word of a line. These model the data
  // carried by RD/WR bursts; the MC calls them when completing requests.
  // Rows/columns are *logical* coordinates. With ECC enabled, reads apply
  // SECDED to the word: 1 corrupted bit is corrected, 2 are detected
  // (returned raw, counted as dram.ecc_detected — a machine check on real
  // hardware), 3+ escape silently.
  void WriteLine(uint32_t rank, uint32_t bank, uint32_t row, uint32_t column, uint64_t value) {
    data_.WriteLine(RowKey(rank, bank, row), column, value);
  }
  uint64_t ReadLine(uint32_t rank, uint32_t bank, uint32_t row, uint32_t column) const {
    const uint64_t key = RowKey(rank, bank, row);
    const uint64_t raw = data_.ReadLine(key, column);
    return config_.ecc.enabled ? ApplyEcc(key, column, raw) : raw;
  }

  // --- Introspection (tests, defenses with modeled assists) ---------------
  // Rows with at least one written line.
  size_t populated_rows() const { return data_.populated_rows(); }

  const DramConfig& config() const { return config_; }
  uint32_t channel_index() const { return channel_index_; }

  // Flip records are capped at kMaxFlipRecords; total_flips() counts all.
  const std::vector<FlipRecord>& flip_records() const { return flips_; }
  uint64_t total_flip_events() const { return total_flip_events_; }

  // Rows whose last repair is older than the refresh window at `now`
  // (nonzero means the refresh manager is broken or disabled).
  uint64_t CountRetentionViolations(Cycle now) const;

  // Vendor assist (Table 1 "Internal subarray mappings"): internal subarray
  // of a logical row. Only meaningful to defenses when the experiment
  // grants the assist; attacks instead infer it (src/attack).
  uint32_t InternalSubarrayOf(uint32_t rank, uint32_t bank, uint32_t logical_row) const;
  uint32_t InternalRowOf(uint32_t rank, uint32_t bank, uint32_t logical_row) const;

  // Disturbance accumulated on a *logical* row (test-only oracle).
  double DisturbanceLevel(uint32_t rank, uint32_t bank, uint32_t logical_row) const;

  StatSet& stats() { return stats_; }
  const StatSet& stats() const { return stats_; }
  // ECC read-path counters (corrected / detected / escaped).
  const StatSet& ecc_stats() const { return ecc_stats_; }

  // Attach (or detach with nullptr) a trace buffer; the device emits one
  // event per issued command plus FLIP/TRR events.
  void set_trace(TraceBuffer* trace) { trace_ = trace; }

  // Attach (or detach with nullptr) a differential-check observer (see
  // dram/check_hooks.h). The observer sees every command — rejected ones
  // included — plus each repair and flip while the command applies.
  void set_check_observer(DeviceCheckObserver* check) { check_ = check; }

  static constexpr size_t kMaxFlipRecords = 200000;

 private:
  struct BankUnit {
    BankUnit(const DramOrg& org, const DisturbanceParams& params, const RemapParams& remap)
        : disturbance(org, params), remap_table(org, remap) {}
    BankDisturbance disturbance;
    RowRemapTable remap_table;
    std::vector<Cycle> last_repair;  // Per internal row.
  };

  BankUnit& unit(uint32_t rank, uint32_t bank) { return units_[rank * config_.org.banks + bank]; }
  const BankUnit& unit(uint32_t rank, uint32_t bank) const {
    return units_[rank * config_.org.banks + bank];
  }
  uint64_t RowKey(uint32_t rank, uint32_t bank, uint32_t logical_row) const {
    return rank * rank_rows_ + bank * bank_rows_ + logical_row;
  }
  // SECDED on a read of `raw`: corrects, detects or lets escape the
  // word's accumulated corruption, and counts which.
  uint64_t ApplyEcc(uint64_t key, uint32_t column, uint64_t raw) const;

  void ApplyActivate(uint32_t rank, uint32_t bank, uint32_t logical_row, Cycle now);
  void RepairInternalRow(uint32_t rank, uint32_t bank, uint32_t internal_row, Cycle now);
  void ApplyRefresh(uint32_t rank, Cycle now);
  void ApplyRefreshSb(uint32_t rank, uint32_t bank, Cycle now);
  void ApplyRefreshNeighbors(uint32_t rank, uint32_t bank, uint32_t logical_row, uint32_t blast,
                             Cycle now);
  void RecordFlips(uint32_t rank, uint32_t bank, const std::vector<DisturbanceVictim>& victims,
                   Cycle now);

  DramConfig config_;
  uint32_t channel_index_;
  // RowKey strides: rows per rank and per bank.
  uint64_t rank_rows_;
  uint64_t bank_rows_;
  TimingChecker timing_;
  std::vector<BankUnit> units_;  // ranks * banks.
  std::vector<TrrEngine> trr_;   // One per rank.
  std::vector<uint32_t> ref_sweep_row_;  // Per rank: next internal row group.
  std::vector<uint32_t> ref_sweep_row_sb_;  // Per rank*bank (REFsb mode).
  mutable StatSet ecc_stats_;  // Read-path counters (ReadLine is const).
  RowDataStore data_;
  Rng flip_bits_rng_;
  std::vector<FlipRecord> flips_;
  uint64_t total_flip_events_ = 0;
  StatSet stats_;
  TraceBuffer* trace_ = nullptr;
  DeviceCheckObserver* check_ = nullptr;

  // Interned stat handles (see common/stats.h for lifetime rules).
  Counter* c_acts_;
  Counter* c_pres_;
  Counter* c_preas_;
  Counter* c_reads_;
  Counter* c_writes_;
  Counter* c_refs_;
  Counter* c_refs_sb_;
  Counter* c_ref_neighbors_;
  Counter* c_trr_repairs_;
  Counter* c_flip_events_;
  Counter* c_flipped_bits_;
  Counter* c_ecc_corrected_;
  Counter* c_ecc_detected_;
  Counter* c_ecc_escaped_;
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_DRAM_DEVICE_H_
