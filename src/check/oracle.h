// The differential oracle: attaches the naive reference models from
// check/reference.h to a DramDevice's command stream (via the
// DeviceCheckObserver hooks) and records a divergence whenever the
// optimized implementation and the reference disagree on
//
//  * the legality verdict or earliest-legal cycle of any command,
//  * per-bank open-row state after any accepted command,
//  * which rows flip (victim + aggressor, in device order) on an ACT,
//  * which rows a REF / REFsb / REF_NEIGHBORS repairs, or
//  * the MC ACT counter's count / interrupt totals (system runs).
//
// TRR caveat: the in-DRAM tracker samples ACTs through its own RNG, so
// the oracle does not predict *which* aggressors TRR services; with TRR
// enabled it requires the sweep repairs as a subset of what the device
// reported and replays every reported repair into its shadow accumulators
// (keeping flip prediction exact). With TRR disabled the repair sets must
// match exactly.
#ifndef HAMMERTIME_SRC_CHECK_ORACLE_H_
#define HAMMERTIME_SRC_CHECK_ORACLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/reference.h"
#include "check/sched_ref.h"
#include "dram/check_hooks.h"
#include "dram/device.h"
#include "mc/act_counter.h"
#include "sim/system.h"

namespace ht {

// One recorded disagreement between the device and the reference model.
struct Divergence {
  uint64_t command_index = 0;  // 1-based index into the observed stream.
  Cycle cycle = 0;
  std::string what;            // Human-readable description (includes cmd).
};

struct OracleOptions {
  // Fault injection for testing the oracle itself: after this many
  // observed commands the reference model stops recording PRE / PREA, so
  // its bank state drifts and the next ACT (or REF) must diverge. 0 = off.
  uint64_t break_reference_after = 0;
  // The same for SystemOracle's scheduler oracle, counted in request
  // scans: past this many the reference ignores the refresh drain mask
  // (see SchedulerOracle). 0 = off.
  uint64_t break_scheduler_after = 0;
  // Stop recording (but keep counting) divergences past this many.
  size_t max_divergences = 16;
};

class DeviceOracle final : public DeviceCheckObserver {
 public:
  // `act_counter` is optional (null for bare-device runs). The oracle
  // reads the counter's config at construction, so attach before any
  // command is issued and do not retune the counter afterwards.
  DeviceOracle(const DramDevice& device, const ActCounter* act_counter,
               OracleOptions options);

  // DeviceCheckObserver:
  void OnCommand(const DdrCommand& cmd, Cycle now, TimingVerdict verdict,
                 uint32_t internal_row) override;
  void OnRepair(uint32_t rank, uint32_t bank, uint32_t internal_row, Cycle now) override;
  void OnFlip(uint32_t rank, uint32_t bank, uint32_t internal_victim,
              uint32_t internal_aggressor, Cycle now) override;
  void OnCommandApplied(const DdrCommand& cmd, Cycle now) override;

  // Flushes the deferred ACT-counter comparison (the MC bumps its counter
  // after Issue() returns, so the last ACT's check waits for the next
  // command or this call). Call once after the run.
  void FinalCheck();

  bool ok() const { return divergences_.empty() && total_divergences_ == 0; }
  const std::vector<Divergence>& divergences() const { return divergences_; }
  uint64_t total_divergences() const { return total_divergences_; }
  uint64_t commands_observed() const { return commands_observed_; }
  std::string Report() const;

 private:
  void Diverge(Cycle now, const std::string& what);
  void FlushPendingCounterCheck();
  static uint64_t RepairKey(uint32_t rank, uint32_t bank, uint32_t internal_row) {
    return (static_cast<uint64_t>(rank) << 40) | (static_cast<uint64_t>(bank) << 32) |
           internal_row;
  }
  RefBankDisturbance& shadow(uint32_t rank, uint32_t bank) {
    return shadows_[rank * config_.org.banks + bank];
  }
  void ExpectNeighborRepairs(uint32_t rank, uint32_t bank, uint32_t internal_row,
                             uint32_t blast);

  const DramDevice& device_;
  const ActCounter* act_counter_;
  OracleOptions options_;
  DramConfig config_;

  RefTimingModel ref_timing_;
  std::vector<RefBankDisturbance> shadows_;        // ranks * banks.
  std::vector<uint32_t> ref_sweep_;                // Per rank (REF).
  std::vector<uint32_t> ref_sweep_sb_;             // Per rank*bank (REFsb).
  std::unique_ptr<RefActCounter> ref_counter_;

  // Expectations for the command currently being applied.
  std::vector<DisturbanceVictim> expected_flips_;  // Internal coords.
  size_t next_expected_flip_ = 0;
  std::vector<uint64_t> expected_repairs_;
  std::vector<uint64_t> seen_repairs_;
  bool repairs_exact_ = true;  // TRR may legitimately repair extra rows.

  bool pending_counter_check_ = false;
  bool broken_ = false;        // Fault injection engaged.
  uint64_t commands_observed_ = 0;
  uint64_t total_divergences_ = 0;
  std::vector<Divergence> divergences_;
};

// Attaches one DeviceOracle per channel of a System (device + that
// channel's ACT counter) and a SchedulerOracle to its memory controller
// (every FR-FCFS scan and every memo an issue or enqueue sets). The
// System must outlive the oracle's use; call FinalCheck() after the run,
// before the System is destroyed.
class SystemOracle {
 public:
  explicit SystemOracle(OracleOptions options = {})
      : options_(options),
        scheduler_(options.max_divergences, options.break_scheduler_after) {}

  void Attach(System& system);
  void Detach(System& system);
  void FinalCheck();

  bool ok() const;
  uint64_t commands_observed() const;
  const SchedulerOracle& scheduler() const { return scheduler_; }
  std::string Report() const;

 private:
  OracleOptions options_;
  std::vector<std::unique_ptr<DeviceOracle>> channels_;
  SchedulerOracle scheduler_;
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_CHECK_ORACLE_H_
