// Differential-checking hook on the FR-FCFS request scheduler.
//
// src/check/sched_ref.h implements this interface with the reference
// three-pass queue scan and attaches it via
// MemoryController::set_sched_check_observer(). The interface lives in mc/
// (not check/) so the controller never depends on the library that
// verifies it. A detached observer costs one predictable branch per scan.
#ifndef HAMMERTIME_SRC_MC_SCHED_HOOKS_H_
#define HAMMERTIME_SRC_MC_SCHED_HOOKS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "dram/command.h"
#include "dram/timing.h"
#include "mc/request.h"

namespace ht {

// One queued request as the scan saw it.
struct SchedRequestView {
  uint64_t seq = 0;  // Enqueue order within the channel.
  DdrCoord coord;
  MemOp op = MemOp::kRead;
  // For a closed bank's oldest request, the mitigation's ACT-gate answer
  // for its row, asked at the bank's timing-earliest ACT cycle (that
  // cycle itself without a mitigation): its ACT may not issue before
  // this cycle. 0 for every other request.
  Cycle act_allowed = 0;
};

// Everything a request scan reads, captured before it runs.
struct SchedScan {
  uint32_t channel = 0;
  Cycle now = 0;
  bool open_page = true;
  bool per_bank_refresh = false;
  uint32_t banks = 0;           // Banks per rank.
  uint64_t due_slots = 0;       // Bit per refresh slot (rank, or rank*banks+bank) due at `now`.
  std::vector<SchedRequestView> queue;  // Age order, oldest first.
  std::optional<TimingChecker> timing;  // Device timing and open rows.
};

// A scan's outcome.
struct SchedPick {
  enum class Kind : uint8_t { kNone, kHit, kAct, kPre };
  Kind kind = Kind::kNone;
  uint64_t seq = 0;             // Request the command serves or is attributed to.
  DdrCommand cmd;               // Valid unless kNone.
  Cycle next_sched = 0;         // kNone only: the scan memo it records.
  bool gate_bound = false;      // kAct only: the ACT gate held it past its timing earliest.
};

// What set a scan memo without a failed scan.
enum class SchedMemoKind : uint8_t {
  kIssue,    // An issuing scan, from its blocked candidates.
  kEnqueue,  // An enqueue, lowered to the new request's bank.
};

class SchedulerCheckObserver {
 public:
  virtual ~SchedulerCheckObserver() = default;

  // Called after every request scan that ran (memo hits do not scan),
  // before the picked command issues.
  virtual void OnScan(const SchedScan& scan, const SchedPick& pick) = 0;

  // Called after an issue or an enqueue sets the scan memo to a cycle L
  // that claims at least one cycle: no request command can issue from the
  // first claimed cycle (the next one after an issue, the current one
  // after an enqueue) up to L - 1. `scan` is the state the claim is
  // about, with `scan.now` = L - 1 and `due_slots` as of the first claimed
  // cycle (draining only grows until a REF resets the memo, so the fewest
  // draining banks is the strongest check). Timing legality is monotone
  // in time, so a scan at L - 1 that picks nothing covers every earlier
  // claimed cycle.
  virtual void OnMemo(const SchedScan& scan, SchedMemoKind kind) = 0;
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_MC_SCHED_HOOKS_H_
