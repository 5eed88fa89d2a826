#include "dram/timing.h"

#include <algorithm>

namespace ht {

const char* ToString(TimingVerdict verdict) {
  switch (verdict) {
    case TimingVerdict::kOk:
      return "ok";
    case TimingVerdict::kTooEarly:
      return "too-early";
    case TimingVerdict::kBankNotOpen:
      return "bank-not-open";
    case TimingVerdict::kBankAlreadyOpen:
      return "bank-already-open";
    case TimingVerdict::kBanksNotIdle:
      return "banks-not-idle";
    case TimingVerdict::kUnsupported:
      return "unsupported";
  }
  return "?";
}

namespace {

ConstraintTable DeriveConstraints(const DramTiming& t) {
  ConstraintTable table;
  table.act_to_act = t.tRC;
  table.act_to_pre = t.tRAS;
  table.act_to_rdwr = t.tRCD;
  table.act_to_act_rank = t.tRRD;
  table.faw_window = t.tFAW;
  table.pre_to_act = t.tRP;
  table.rd_to_pre = t.ReadToPrecharge();
  table.rd_to_rd = t.tCCD;
  table.rd_to_wr = t.tCCD;
  table.wr_to_wr = t.tCCD;
  table.wr_to_rd = t.WriteToRead();
  table.wr_to_pre = t.WriteToPrecharge();
  table.rda_to_act = Cycle{t.ReadToPrecharge()} + t.tRP;
  table.wra_to_act = Cycle{t.WriteToPrecharge()} + t.tRP;
  table.rd_burst = Cycle{t.tCL} + t.tBL;
  table.wr_burst = Cycle{t.tCWL} + t.tBL;
  table.rd_lead = t.tCL;
  table.wr_lead = t.tCWL;
  table.ref_to_any = t.tRFC;
  table.refsb_to_any = t.tRFCsb;
  table.refn_per_row = t.tRC;
  table.refn_tail = t.tRP;
  return table;
}

}  // namespace

TimingChecker::TimingChecker(const DramOrg& org, const DramTiming& timing,
                             bool ref_neighbors_supported)
    : table_(DeriveConstraints(timing)),
      ref_neighbors_supported_(ref_neighbors_supported),
      banks_(org.banks) {
  // The open-bank bitmask caps banks-per-rank at 64, matching the
  // controller's refresh-slot bitmask (ranks * banks <= 64).
  ranks_.resize(org.ranks);
  const size_t slots = static_cast<size_t>(org.ranks) * org.banks;
  open_row_.assign(slots, kNoOpenRow);
  ready_act_.assign(slots, 0);
  ready_pre_.assign(slots, 0);
  ready_rdwr_.assign(slots, 0);
}

Cycle TimingChecker::EarliestCycle(const DdrCommand& cmd) const {
  const RankMeta& rank = ranks_[cmd.rank];
  switch (cmd.type) {
    case DdrCommandType::kActivate:
      return ActEarliest(cmd.rank, cmd.bank);
    case DdrCommandType::kPrecharge:
      return PreEarliest(cmd.rank, cmd.bank);
    case DdrCommandType::kPrechargeAll: {
      Cycle earliest = rank.any_ready;
      for (uint64_t mask = rank.open_mask; mask != 0; mask &= mask - 1) {
        const uint32_t b = static_cast<uint32_t>(__builtin_ctzll(mask));
        earliest = std::max(earliest, ready_pre_[Slot(cmd.rank, b)]);
      }
      return earliest;
    }
    case DdrCommandType::kRead:
      return RdWrEarliest(cmd.rank, cmd.bank, /*write=*/false);
    case DdrCommandType::kWrite:
      return RdWrEarliest(cmd.rank, cmd.bank, /*write=*/true);
    case DdrCommandType::kRefresh:
      // All banks must be quiet; the running max over every bank's ACT
      // deadline is exactly "the last bank finishes its tRP/tRC/occupancy".
      return std::max(rank.any_ready, rank.all_banks_act_ready);
    case DdrCommandType::kRefreshSb:
    case DdrCommandType::kRefreshNeighbors:
      return std::max(rank.any_ready, ready_act_[Slot(cmd.rank, cmd.bank)]);
  }
  return rank.any_ready;
}

TimingVerdict TimingChecker::Check(const DdrCommand& cmd, Cycle now) const {
  const RankMeta& rank = ranks_[cmd.rank];
  switch (cmd.type) {
    case DdrCommandType::kActivate:
      if (rank.open_mask & (1ull << cmd.bank)) {
        return TimingVerdict::kBankAlreadyOpen;
      }
      break;
    case DdrCommandType::kPrecharge:
      // PRE to an idle bank is a harmless NOP per DDR; we allow it.
      break;
    case DdrCommandType::kRead:
    case DdrCommandType::kWrite:
      if (!(rank.open_mask & (1ull << cmd.bank))) {
        return TimingVerdict::kBankNotOpen;
      }
      break;
    case DdrCommandType::kRefresh:
      if (rank.open_mask != 0) {
        return TimingVerdict::kBanksNotIdle;
      }
      break;
    case DdrCommandType::kRefreshSb:
      if (rank.open_mask & (1ull << cmd.bank)) {
        return TimingVerdict::kBanksNotIdle;
      }
      break;
    case DdrCommandType::kRefreshNeighbors:
      if (!ref_neighbors_supported_) {
        return TimingVerdict::kUnsupported;
      }
      if (rank.open_mask & (1ull << cmd.bank)) {
        return TimingVerdict::kBankAlreadyOpen;
      }
      break;
    case DdrCommandType::kPrechargeAll:
      break;
  }
  if (now < EarliestCycle(cmd)) {
    return TimingVerdict::kTooEarly;
  }
  return TimingVerdict::kOk;
}

void TimingChecker::Record(const DdrCommand& cmd, Cycle now) {
  RankMeta& rank = ranks_[cmd.rank];
  switch (cmd.type) {
    case DdrCommandType::kActivate: {
      const size_t slot = Slot(cmd.rank, cmd.bank);
      open_row_[slot] = cmd.row;
      rank.open_mask |= 1ull << cmd.bank;
      RaiseAct(rank, slot, now + table_.act_to_act);
      Raise(ready_pre_[slot], now + table_.act_to_pre);
      Raise(ready_rdwr_[slot], now + table_.act_to_rdwr);
      Raise(rank.act_rank_ready, now + table_.act_to_act_rank);
      rank.faw_acts[rank.faw_head] = now + 1;
      rank.faw_head = (rank.faw_head + 1) % 4;
      break;
    }
    case DdrCommandType::kPrecharge: {
      const size_t slot = Slot(cmd.rank, cmd.bank);
      open_row_[slot] = kNoOpenRow;
      rank.open_mask &= ~(1ull << cmd.bank);
      RaiseAct(rank, slot, now + table_.pre_to_act);
      break;
    }
    case DdrCommandType::kPrechargeAll: {
      for (uint64_t mask = rank.open_mask; mask != 0; mask &= mask - 1) {
        const size_t slot = Slot(cmd.rank, static_cast<uint32_t>(__builtin_ctzll(mask)));
        open_row_[slot] = kNoOpenRow;
        RaiseAct(rank, slot, now + table_.pre_to_act);
      }
      rank.open_mask = 0;
      break;
    }
    case DdrCommandType::kRead: {
      const size_t slot = Slot(cmd.rank, cmd.bank);
      Raise(ready_pre_[slot], now + table_.rd_to_pre);
      Raise(rank.rd_ready, now + table_.rd_to_rd);
      Raise(rank.wr_ready, now + table_.rd_to_wr);
      Raise(data_bus_free_, now + table_.rd_burst);
      if (cmd.ap) {
        // RDA: the bank precharges itself tRTP after the read.
        open_row_[slot] = kNoOpenRow;
        rank.open_mask &= ~(1ull << cmd.bank);
        RaiseAct(rank, slot, now + table_.rda_to_act);
      }
      break;
    }
    case DdrCommandType::kWrite: {
      const size_t slot = Slot(cmd.rank, cmd.bank);
      Raise(ready_pre_[slot], now + table_.wr_to_pre);
      Raise(rank.wr_ready, now + table_.wr_to_wr);
      Raise(rank.rd_ready, now + table_.wr_to_rd);
      Raise(data_bus_free_, now + table_.wr_burst);
      if (cmd.ap) {
        // WRA: precharge after write recovery.
        open_row_[slot] = kNoOpenRow;
        rank.open_mask &= ~(1ull << cmd.bank);
        RaiseAct(rank, slot, now + table_.wra_to_act);
      }
      break;
    }
    case DdrCommandType::kRefresh: {
      Raise(rank.any_ready, now + table_.ref_to_any);
      break;
    }
    case DdrCommandType::kRefreshSb: {
      // The bank is occupied for tRFCsb: fold into every deadline class.
      const size_t slot = Slot(cmd.rank, cmd.bank);
      const Cycle done = now + table_.refsb_to_any;
      RaiseAct(rank, slot, done);
      Raise(ready_pre_[slot], done);
      Raise(ready_rdwr_[slot], done);
      break;
    }
    case DdrCommandType::kRefreshNeighbors: {
      // Internally the device walks up to 2*blast victim rows, performing
      // an ACT+PRE pair for each; the bank is occupied for that long.
      const size_t slot = Slot(cmd.rank, cmd.bank);
      const Cycle done =
          now + static_cast<Cycle>(2 * cmd.blast) * table_.refn_per_row + table_.refn_tail;
      RaiseAct(rank, slot, done);
      Raise(ready_pre_[slot], done);
      Raise(ready_rdwr_[slot], done);
      break;
    }
  }
}

}  // namespace ht
