// DDR timing enforcement for one channel (one command/data bus domain).
//
// The checker answers "when is this command first legal?" so the memory
// controller can schedule, and records issued commands to advance state.
// Structural legality (reading a closed bank, activating an open one) is
// reported separately from timing legality so tests can distinguish them.
//
// Implementation: all per-(command, command) separations from DramTiming
// are resolved once at construction into a ConstraintTable, and the
// per-bank state collapses to three earliest-issue deadlines (ACT, PRE,
// RD/WR) maintained incrementally as running maxima. The per-bank state
// lives in struct-of-arrays slabs — one flat vector per deadline class
// plus a flat open-row vector, indexed by packed (rank, bank) — so the
// FR-FCFS scan's two hottest probes (OpenRow per queue entry, one
// deadline class per candidate command) each walk a single dense array
// instead of hopping across per-bank structs. Rank-wide facts that used
// to require scanning every bank — "are all banks idle?" for REF, "which
// banks are open?" for PRE_ALL — are kept as an open-bank bitmask and a
// running max of the per-bank ACT deadlines, so EarliestCycle and Check
// are O(1) for every command type (PRE_ALL iterates only the open
// banks). Every deadline only ever increases (commands are recorded only
// after passing Check), which is what makes the incremental maxima exact;
// the differential oracle in src/check/ verifies this against a
// fold-from-history reference model.
#ifndef HAMMERTIME_SRC_DRAM_TIMING_H_
#define HAMMERTIME_SRC_DRAM_TIMING_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "dram/command.h"
#include "dram/config.h"

namespace ht {

// Why a command cannot be issued right now.
enum class TimingVerdict : uint8_t {
  kOk,                 // Legal at the queried cycle.
  kTooEarly,           // Legal later; see EarliestCycle().
  kBankNotOpen,        // RD/WR/PRE-with-no-row structural issues.
  kBankAlreadyOpen,    // ACT to an open bank.
  kBanksNotIdle,       // REF requires every bank precharged.
  kUnsupported,        // REF_NEIGHBORS on a device without the extension.
};

const char* ToString(TimingVerdict verdict);

// Minimum separations between command pairs, resolved from DramTiming at
// construction so the hot path never re-derives them.
struct ConstraintTable {
  // ACT -> X, same bank.
  Cycle act_to_act = 0;    // tRC
  Cycle act_to_pre = 0;    // tRAS
  Cycle act_to_rdwr = 0;   // tRCD
  // ACT -> ACT, same rank.
  Cycle act_to_act_rank = 0;  // tRRD
  Cycle faw_window = 0;       // tFAW (rolling window of 4 ACTs).
  // PRE -> ACT, same bank.
  Cycle pre_to_act = 0;  // tRP
  // RD/WR -> X.
  Cycle rd_to_pre = 0;   // tRTP
  Cycle rd_to_rd = 0;    // tCCD
  Cycle rd_to_wr = 0;    // tCCD
  Cycle wr_to_wr = 0;    // tCCD
  Cycle wr_to_rd = 0;    // tCWL + tBL + tWTR
  Cycle wr_to_pre = 0;   // tCWL + tBL + tWR
  Cycle rda_to_act = 0;  // tRTP + tRP (auto-precharge)
  Cycle wra_to_act = 0;  // tCWL + tBL + tWR + tRP
  // Data bus occupancy.
  Cycle rd_burst = 0;  // tCL + tBL (issue -> bus free)
  Cycle wr_burst = 0;  // tCWL + tBL
  Cycle rd_lead = 0;   // tCL (issue -> burst start)
  Cycle wr_lead = 0;   // tCWL
  // Refresh.
  Cycle ref_to_any = 0;    // tRFC (whole rank)
  Cycle refsb_to_any = 0;  // tRFCsb (one bank)
  Cycle refn_per_row = 0;  // tRC per victim ACT+PRE pair
  Cycle refn_tail = 0;     // tRP
};

class TimingChecker {
 public:
  TimingChecker(const DramOrg& org, const DramTiming& timing, bool ref_neighbors_supported);

  // Earliest cycle at which `cmd` satisfies every timing constraint given
  // the commands recorded so far. Structural problems are reported via
  // `Check`; this only covers timing.
  Cycle EarliestCycle(const DdrCommand& cmd) const;

  // Full legality check at cycle `now`.
  TimingVerdict Check(const DdrCommand& cmd, Cycle now) const;

  // Records `cmd` as issued at `now`. Callers must Check() first; Record
  // on an illegal command leaves state undefined.
  void Record(const DdrCommand& cmd, Cycle now);

  // EarliestCycle of an ACT / PRE / RD-or-WR to one bank, without the
  // command-type dispatch. Inline: the FR-FCFS scan asks one of these per
  // candidate and the post-issue memo one bank's worth per command.
  Cycle ActEarliest(uint32_t rank, uint32_t bank_index) const {
    const RankMeta& meta = ranks_[rank];
    const Cycle earliest =
        std::max({meta.any_ready, ready_act_[Slot(rank, bank_index)], meta.act_rank_ready});
    // tFAW: the 4th-most-recent ACT must be at least tFAW old. Entries
    // store cycle+1 so a legitimate ACT at cycle 0 is distinguishable
    // from "no ACT recorded yet".
    const Cycle oldest = meta.faw_acts[meta.faw_head];
    return oldest == 0 ? earliest : std::max(earliest, (oldest - 1) + table_.faw_window);
  }
  Cycle PreEarliest(uint32_t rank, uint32_t bank_index) const {
    return std::max(ranks_[rank].any_ready, ready_pre_[Slot(rank, bank_index)]);
  }
  Cycle RdWrEarliest(uint32_t rank, uint32_t bank_index, bool write) const {
    const RankMeta& meta = ranks_[rank];
    Cycle earliest = std::max({meta.any_ready, ready_rdwr_[Slot(rank, bank_index)],
                               write ? meta.wr_ready : meta.rd_ready});
    // Data bus availability: the burst starts tCL (tCWL) after issue.
    const Cycle lead = write ? table_.wr_lead : table_.rd_lead;
    if (data_bus_free_ > earliest + lead) {
      earliest = data_bus_free_ - lead;
    }
    return earliest;
  }

  // Row currently latched in `bank`'s row buffer, if any. Inline: the
  // FR-FCFS scan calls this per queue entry per cycle, so it compiles to
  // one load from the flat open-row slab plus a sentinel compare.
  std::optional<uint32_t> OpenRow(uint32_t rank, uint32_t bank_index) const {
    const uint32_t row = open_row_[Slot(rank, bank_index)];
    if (row == kNoOpenRow) {
      return std::nullopt;
    }
    return row;
  }

  // Bit `b` set iff bank `b` of `rank` has an open row. Lets the
  // controller answer "any bank open?" without a scan.
  uint64_t OpenBankMask(uint32_t rank) const { return ranks_[rank].open_mask; }

  // Cycle at which the data for a RD issued at `issue` becomes available.
  Cycle ReadDataReady(Cycle issue) const { return issue + table_.rd_burst; }

  const ConstraintTable& constraints() const { return table_; }

 private:
  // Sentinel in the open-row slab: no row latched. Row addresses are far
  // below 2^32 (rows_per_bank caps well under it), so the value is free.
  static constexpr uint32_t kNoOpenRow = 0xFFFFFFFFu;

  // Rank-wide running state; the per-bank deadline classes live in the
  // flat slabs below, indexed by Slot().
  struct RankMeta {
    uint64_t open_mask = 0;          // Bit per bank with an open row.
    Cycle any_ready = 0;             // tRFC blackout: gates every command.
    Cycle act_rank_ready = 0;        // tRRD across banks.
    Cycle rd_ready = 0;              // tCCD / tWTR.
    Cycle wr_ready = 0;              // tCCD.
    Cycle all_banks_act_ready = 0;   // Running max over banks of ready_act_
                                     // = earliest cycle the whole rank is quiet (REF).
    Cycle faw_acts[4] = {0, 0, 0, 0};  // Ring of last four ACT cycles (+1; tFAW).
    int faw_head = 0;
  };

  size_t Slot(uint32_t rank, uint32_t bank_index) const {
    return static_cast<size_t>(rank) * banks_ + bank_index;
  }

  // Raise a bank's ACT deadline, keeping the rank-wide running max exact.
  void RaiseAct(RankMeta& rank, size_t slot, Cycle cycle) {
    if (cycle > ready_act_[slot]) ready_act_[slot] = cycle;
    if (cycle > rank.all_banks_act_ready) rank.all_banks_act_ready = cycle;
  }
  static void Raise(Cycle& slot, Cycle cycle) {
    if (cycle > slot) slot = cycle;
  }

  ConstraintTable table_;
  bool ref_neighbors_supported_;
  uint32_t banks_ = 0;  // Banks per rank (slab stride).
  std::vector<RankMeta> ranks_;
  // Struct-of-arrays per-bank state, indexed by Slot(rank, bank). What
  // used to be a separate busy_until (REFsb / REF_NEIGHBORS bank
  // occupation) is folded into all three deadline classes at record time.
  std::vector<uint32_t> open_row_;   // kNoOpenRow = bank closed.
  std::vector<Cycle> ready_act_;    // Earliest legal ACT.
  std::vector<Cycle> ready_pre_;    // Earliest legal PRE.
  std::vector<Cycle> ready_rdwr_;   // Earliest legal RD/WR.
  Cycle data_bus_free_ = 0;  // Channel data bus: end of last burst.
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_DRAM_TIMING_H_
