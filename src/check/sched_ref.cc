#include "check/sched_ref.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace ht {

SchedPick ReferenceSchedPick(const SchedScan& scan) {
  const TimingChecker& timing = *scan.timing;
  const Cycle now = scan.now;
  const std::vector<SchedRequestView>& queue = scan.queue;
  SchedPick pick;
  Cycle block = kNeverCycle;

  const auto draining = [&scan](const DdrCoord& coord) {
    const uint32_t slot = scan.per_bank_refresh ? coord.rank * scan.banks + coord.bank : coord.rank;
    return (scan.due_slots & (1ull << slot)) != 0;
  };

  // Pass 1 (FR): oldest row-hit whose RD/WR is legal now.
  for (const SchedRequestView& pending : queue) {
    const auto open_row = timing.OpenRow(pending.coord.rank, pending.coord.bank);
    if (draining(pending.coord) || !open_row.has_value() || *open_row != pending.coord.row) {
      continue;
    }
    const bool ap = !scan.open_page;
    const DdrCommand cmd =
        pending.op == MemOp::kRead
            ? DdrCommand::Rd(pending.coord.rank, pending.coord.bank, pending.coord.column, ap)
            : DdrCommand::Wr(pending.coord.rank, pending.coord.bank, pending.coord.column, ap);
    if (timing.Check(cmd, now) == TimingVerdict::kOk) {
      pick.kind = SchedPick::Kind::kHit;
      pick.seq = pending.seq;
      pick.cmd = cmd;
      return pick;
    }
    block = std::min(block, timing.EarliestCycle(cmd));
  }

  // Pass 2 (FCFS): oldest request to a closed bank — ACT once the gate
  // allows it. Banks already claimed by an older request cannot be stolen.
  uint64_t claimed_banks = 0;
  for (const SchedRequestView& pending : queue) {
    const uint64_t bank_bit = 1ull << (pending.coord.rank * scan.banks + pending.coord.bank);
    if ((claimed_banks & bank_bit) != 0) {
      continue;
    }
    claimed_banks |= bank_bit;
    if (draining(pending.coord) ||
        timing.OpenRow(pending.coord.rank, pending.coord.bank).has_value()) {
      continue;
    }
    const DdrCommand act =
        DdrCommand::Act(pending.coord.rank, pending.coord.bank, pending.coord.row);
    if (timing.Check(act, now) == TimingVerdict::kOk && pending.act_allowed <= now) {
      pick.kind = SchedPick::Kind::kAct;
      pick.seq = pending.seq;
      pick.cmd = act;
      pick.gate_bound = pending.act_allowed > timing.EarliestCycle(act);
      return pick;
    }
    block = std::min(block, std::max(timing.EarliestCycle(act), pending.act_allowed));
  }

  // Pass 3: oldest conflicting request — PRE the bank if no older request
  // still wants the open row.
  for (size_t i = 0; i < queue.size(); ++i) {
    const SchedRequestView& pending = queue[i];
    const auto open_row = timing.OpenRow(pending.coord.rank, pending.coord.bank);
    if (!open_row.has_value() || *open_row == pending.coord.row) {
      continue;
    }
    bool older_wants_open_row = false;
    for (size_t j = 0; j < i; ++j) {
      const SchedRequestView& other = queue[j];
      if (other.coord.rank == pending.coord.rank && other.coord.bank == pending.coord.bank &&
          other.coord.row == *open_row) {
        older_wants_open_row = true;
        break;
      }
    }
    if (older_wants_open_row) {
      continue;
    }
    const DdrCommand pre = DdrCommand::Pre(pending.coord.rank, pending.coord.bank);
    if (timing.Check(pre, now) == TimingVerdict::kOk) {
      pick.kind = SchedPick::Kind::kPre;
      pick.seq = pending.seq;
      pick.cmd = pre;
      return pick;
    }
    block = std::min(block, timing.EarliestCycle(pre));
  }
  pick.next_sched = std::max(block, now + 1);
  return pick;
}

namespace {

bool SameCommand(const DdrCommand& a, const DdrCommand& b) {
  return a.type == b.type && a.rank == b.rank && a.bank == b.bank && a.row == b.row &&
         a.column == b.column && a.blast == b.blast && a.ap == b.ap;
}

std::string Describe(const SchedPick& pick) {
  std::ostringstream out;
  switch (pick.kind) {
    case SchedPick::Kind::kNone:
      out << "none (next_sched " << pick.next_sched << ")";
      break;
    case SchedPick::Kind::kHit:
    case SchedPick::Kind::kAct:
    case SchedPick::Kind::kPre:
      out << pick.cmd.ToDebugString() << " for request #" << pick.seq;
      break;
  }
  if (pick.gate_bound) {
    out << ", gate-bound";
  }
  return out.str();
}

}  // namespace

SchedPick SchedulerOracle::Reference(const SchedScan& scan) const {
  if (break_after_ == 0 || scans_checked_ <= break_after_) {
    return ReferenceSchedPick(scan);
  }
  SchedScan broken = scan;
  broken.due_slots = 0;
  return ReferenceSchedPick(broken);
}

void SchedulerOracle::Diverge(std::string what) {
  ++total_divergences_;
  if (divergences_.size() < max_divergences_) {
    divergences_.push_back(std::move(what));
  }
}

void SchedulerOracle::OnScan(const SchedScan& scan, const SchedPick& pick) {
  ++scans_checked_;
  ++picks_by_kind_[static_cast<size_t>(pick.kind)];
  if (pick.gate_bound) {
    ++gate_bound_picks_;
  }
  if (scan.due_slots != 0) {
    ++draining_scans_;
  }
  const SchedPick ref = Reference(scan);
  const bool none = pick.kind == SchedPick::Kind::kNone;
  const bool same = ref.kind == pick.kind && ref.gate_bound == pick.gate_bound &&
                    (none ? ref.next_sched == pick.next_sched
                          : ref.seq == pick.seq && SameCommand(ref.cmd, pick.cmd));
  if (same) {
    return;
  }
  std::ostringstream out;
  out << "[ch " << scan.channel << " @ cycle " << scan.now << ", " << scan.queue.size()
      << " queued] picked " << Describe(pick) << "; reference " << Describe(ref);
  Diverge(out.str());
}

void SchedulerOracle::OnMemo(const SchedScan& scan, SchedMemoKind kind) {
  ++memos_checked_;
  const SchedPick ref = Reference(scan);
  if (ref.kind == SchedPick::Kind::kNone) {
    return;
  }
  std::ostringstream out;
  out << "[ch " << scan.channel << ", " << scan.queue.size() << " queued] "
      << (kind == SchedMemoKind::kIssue ? "post-issue" : "post-enqueue") << " memo "
      << scan.now + 1 << " claims no request issues before it; reference picks "
      << Describe(ref) << " at cycle " << scan.now;
  Diverge(out.str());
}

std::string SchedulerOracle::Report() const {
  std::ostringstream out;
  out << scans_checked_ << " scans and " << memos_checked_ << " memos checked, "
      << total_divergences_ << " divergences";
  for (const std::string& what : divergences_) {
    out << "\n  " << what;
  }
  if (total_divergences_ > divergences_.size()) {
    out << "\n  ... " << (total_divergences_ - divergences_.size()) << " more";
  }
  return out.str();
}

}  // namespace ht
