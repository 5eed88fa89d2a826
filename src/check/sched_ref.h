// Reference FR-FCFS scheduler: a three-pass scan over the whole queue,
// as a pure function of a pre-scan snapshot, so the controller's per-bank
// scheduler can be checked pick for pick.
//
//  1. (FR) the oldest queued row hit whose RD/WR is legal now;
//  2. (FCFS) else an ACT for the oldest request of a closed bank, younger
//     requests of that bank never taking it, once the mitigation's ACT
//     gate allows it;
//  3. else a PRE for the oldest conflicting request whose bank has no
//     older request still wanting the open row.
//
// Banks (or ranks) with an overdue REF skip passes 1 and 2, not 3. The
// gate is not called: the snapshot carries its answer for every closed
// bank's oldest request.
#ifndef HAMMERTIME_SRC_CHECK_SCHED_REF_H_
#define HAMMERTIME_SRC_CHECK_SCHED_REF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mc/sched_hooks.h"

namespace ht {

// O(queue^2): every pass walks the queue in age order.
SchedPick ReferenceSchedPick(const SchedScan& scan);

// Checks every scan of a controller against ReferenceSchedPick, and
// every memo an issue or an enqueue sets: the reference must pick nothing
// on the memo's last claimed cycle.
class SchedulerOracle final : public SchedulerCheckObserver {
 public:
  // `break_after` != 0 injects a fault to test the oracle itself: past
  // that many scans the reference ignores the refresh drain mask, so it
  // offers hits and ACTs in draining banks and must diverge once a REF
  // falls due with work queued.
  explicit SchedulerOracle(size_t max_divergences = 16, uint64_t break_after = 0)
      : max_divergences_(max_divergences), break_after_(break_after) {}

  void OnScan(const SchedScan& scan, const SchedPick& pick) override;
  void OnMemo(const SchedScan& scan, SchedMemoKind kind) override;

  bool ok() const { return total_divergences_ == 0; }
  uint64_t scans_checked() const { return scans_checked_; }
  uint64_t memos_checked() const { return memos_checked_; }
  uint64_t total_divergences() const { return total_divergences_; }
  // Scans by outcome, indexed by SchedPick::Kind; ACT picks the gate held
  // past their timing earliest; and scans that saw a draining refresh
  // slot (coverage for tests).
  const uint64_t* picks_by_kind() const { return picks_by_kind_; }
  uint64_t gate_bound_picks() const { return gate_bound_picks_; }
  uint64_t draining_scans() const { return draining_scans_; }
  std::string Report() const;

 private:
  // The reference's verdict, through the injected fault once it engages.
  SchedPick Reference(const SchedScan& scan) const;
  void Diverge(std::string what);

  size_t max_divergences_;
  uint64_t break_after_;
  uint64_t scans_checked_ = 0;
  uint64_t memos_checked_ = 0;
  uint64_t total_divergences_ = 0;
  uint64_t picks_by_kind_[4] = {0, 0, 0, 0};
  uint64_t gate_bound_picks_ = 0;
  uint64_t draining_scans_ = 0;
  std::vector<std::string> divergences_;
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_CHECK_SCHED_REF_H_
