#include "check/oracle.h"

#include <algorithm>
#include <sstream>

namespace ht {

DeviceOracle::DeviceOracle(const DramDevice& device, const ActCounter* act_counter,
                           OracleOptions options)
    : device_(device),
      act_counter_(act_counter),
      options_(options),
      config_(device.config()),
      // The device always constructs its checker with REF_NEIGHBORS
      // support (see DramDevice's constructor).
      ref_timing_(config_.org, config_.timing, /*ref_neighbors_supported=*/true) {
  const uint32_t banks = config_.org.banks;
  shadows_.reserve(static_cast<size_t>(config_.org.ranks) * banks);
  for (uint32_t r = 0; r < config_.org.ranks; ++r) {
    for (uint32_t b = 0; b < banks; ++b) {
      shadows_.emplace_back(config_.org, config_.disturbance);
    }
  }
  ref_sweep_.assign(config_.org.ranks, 0);
  ref_sweep_sb_.assign(static_cast<size_t>(config_.org.ranks) * banks, 0);
  if (act_counter_ != nullptr) {
    ref_counter_ = std::make_unique<RefActCounter>(device.channel_index(),
                                                   act_counter_->config());
  }
}

void DeviceOracle::Diverge(Cycle now, const std::string& what) {
  ++total_divergences_;
  if (divergences_.size() < options_.max_divergences) {
    divergences_.push_back({commands_observed_, now, what});
  }
}

void DeviceOracle::FlushPendingCounterCheck() {
  if (!pending_counter_check_) {
    return;
  }
  pending_counter_check_ = false;
  if (act_counter_->count() != ref_counter_->count() ||
      act_counter_->interrupts_raised() != ref_counter_->interrupts()) {
    std::ostringstream what;
    what << "act-counter mismatch: device count=" << act_counter_->count()
         << " interrupts=" << act_counter_->interrupts_raised()
         << ", reference count=" << ref_counter_->count()
         << " interrupts=" << ref_counter_->interrupts();
    Diverge(0, what.str());
  }
}

void DeviceOracle::ExpectNeighborRepairs(uint32_t rank, uint32_t bank, uint32_t internal_row,
                                         uint32_t blast) {
  const uint32_t subarray = config_.org.SubarrayOfRow(internal_row);
  const uint32_t rows_per_bank = config_.org.rows_per_bank();
  for (uint32_t d = 1; d <= blast; ++d) {
    if (internal_row >= d && config_.org.SubarrayOfRow(internal_row - d) == subarray) {
      expected_repairs_.push_back(RepairKey(rank, bank, internal_row - d));
    }
    const uint32_t above = internal_row + d;
    if (above < rows_per_bank && config_.org.SubarrayOfRow(above) == subarray) {
      expected_repairs_.push_back(RepairKey(rank, bank, above));
    }
  }
}

void DeviceOracle::OnCommand(const DdrCommand& cmd, Cycle now, TimingVerdict verdict,
                             uint32_t internal_row) {
  FlushPendingCounterCheck();
  ++commands_observed_;
  if (options_.break_reference_after != 0 &&
      commands_observed_ > options_.break_reference_after) {
    broken_ = true;
  }

  const TimingVerdict ref_verdict = ref_timing_.Check(cmd, now);
  if (ref_verdict != verdict) {
    std::ostringstream what;
    what << "verdict mismatch on " << cmd.ToDebugString() << ": device=" << ToString(verdict)
         << " reference=" << ToString(ref_verdict);
    Diverge(now, what.str());
  }
  const Cycle dev_earliest = device_.EarliestCycle(cmd);
  const Cycle ref_earliest = ref_timing_.EarliestCycle(cmd);
  if (dev_earliest != ref_earliest) {
    std::ostringstream what;
    what << "earliest-cycle mismatch on " << cmd.ToDebugString()
         << ": device=" << dev_earliest << " reference=" << ref_earliest;
    Diverge(now, what.str());
  }

  if (verdict != TimingVerdict::kOk) {
    return;  // The device changes no state; neither do we.
  }
  // Fault injection: a "broken" reference forgets precharges, so its bank
  // state drifts from the device's and a later command must diverge.
  const bool drop = broken_ && (cmd.type == DdrCommandType::kPrecharge ||
                                cmd.type == DdrCommandType::kPrechargeAll);
  if (!drop) {
    ref_timing_.Record(cmd, now);
  }

  // Predict the side effects the device is about to apply.
  expected_flips_.clear();
  next_expected_flip_ = 0;
  expected_repairs_.clear();
  seen_repairs_.clear();
  repairs_exact_ = true;
  switch (cmd.type) {
    case DdrCommandType::kActivate:
      shadow(cmd.rank, cmd.bank).OnActivate(internal_row, expected_flips_);
      break;
    case DdrCommandType::kRefresh: {
      const uint32_t rows_per_ref = config_.RowsPerRef();
      const uint32_t rows_per_bank = config_.org.rows_per_bank();
      const uint32_t start = ref_sweep_[cmd.rank];
      for (uint32_t bank = 0; bank < config_.org.banks; ++bank) {
        for (uint32_t i = 0; i < rows_per_ref; ++i) {
          expected_repairs_.push_back(RepairKey(cmd.rank, bank, (start + i) % rows_per_bank));
        }
      }
      ref_sweep_[cmd.rank] = (start + rows_per_ref) % rows_per_bank;
      repairs_exact_ = !config_.trr.enabled;
      break;
    }
    case DdrCommandType::kRefreshSb: {
      const uint32_t rows_per_ref = config_.RowsPerRef();
      const uint32_t rows_per_bank = config_.org.rows_per_bank();
      uint32_t& sweep = ref_sweep_sb_[static_cast<size_t>(cmd.rank) * config_.org.banks +
                                      cmd.bank];
      for (uint32_t i = 0; i < rows_per_ref; ++i) {
        expected_repairs_.push_back(RepairKey(cmd.rank, cmd.bank, (sweep + i) % rows_per_bank));
      }
      sweep = (sweep + rows_per_ref) % rows_per_bank;
      repairs_exact_ = !config_.trr.enabled;
      break;
    }
    case DdrCommandType::kRefreshNeighbors:
      ExpectNeighborRepairs(cmd.rank, cmd.bank, internal_row, cmd.blast);
      break;
    default:
      break;
  }
}

void DeviceOracle::OnRepair(uint32_t rank, uint32_t bank, uint32_t internal_row, Cycle /*now*/) {
  // Replaying every reported repair (expected or not) keeps the shadow
  // accumulators exact even for TRR's RNG-driven targeted repairs.
  shadow(rank, bank).OnRepair(internal_row);
  seen_repairs_.push_back(RepairKey(rank, bank, internal_row));
}

void DeviceOracle::OnFlip(uint32_t rank, uint32_t bank, uint32_t internal_victim,
                          uint32_t internal_aggressor, Cycle now) {
  if (next_expected_flip_ >= expected_flips_.size()) {
    std::ostringstream what;
    what << "unexpected flip: rank=" << rank << " bank=" << bank
         << " victim=" << internal_victim << " aggressor=" << internal_aggressor
         << " (reference predicted " << expected_flips_.size() << " flips)";
    Diverge(now, what.str());
    return;
  }
  const DisturbanceVictim& expected = expected_flips_[next_expected_flip_++];
  if (expected.row != internal_victim || expected.aggressor_row != internal_aggressor) {
    std::ostringstream what;
    what << "flip mismatch: device victim=" << internal_victim
         << " aggressor=" << internal_aggressor << ", reference victim=" << expected.row
         << " aggressor=" << expected.aggressor_row;
    Diverge(now, what.str());
  }
}

void DeviceOracle::OnCommandApplied(const DdrCommand& cmd, Cycle now) {
  if (next_expected_flip_ != expected_flips_.size()) {
    std::ostringstream what;
    what << "missing flips on " << cmd.ToDebugString() << ": device produced "
         << next_expected_flip_ << ", reference predicted " << expected_flips_.size();
    Diverge(now, what.str());
  }

  std::sort(expected_repairs_.begin(), expected_repairs_.end());
  std::sort(seen_repairs_.begin(), seen_repairs_.end());
  if (repairs_exact_) {
    if (expected_repairs_ != seen_repairs_) {
      std::ostringstream what;
      what << "repair-set mismatch on " << cmd.ToDebugString() << ": device repaired "
           << seen_repairs_.size() << " rows, reference expected " << expected_repairs_.size();
      Diverge(now, what.str());
    }
  } else if (!std::includes(seen_repairs_.begin(), seen_repairs_.end(),
                            expected_repairs_.begin(), expected_repairs_.end())) {
    std::ostringstream what;
    what << "sweep repairs missing on " << cmd.ToDebugString() << ": device repaired "
         << seen_repairs_.size() << " rows, which do not cover the expected "
         << expected_repairs_.size() << "-row sweep group";
    Diverge(now, what.str());
  }

  // Bank-state parity across the rank the command touched.
  for (uint32_t bank = 0; bank < config_.org.banks; ++bank) {
    const std::optional<uint32_t> dev_row = device_.OpenRow(cmd.rank, bank);
    const std::optional<uint32_t> ref_row = ref_timing_.OpenRow(cmd.rank, bank);
    if (dev_row != ref_row) {
      std::ostringstream what;
      what << "open-row mismatch after " << cmd.ToDebugString() << " on bank " << bank
           << ": device=" << (dev_row.has_value() ? std::to_string(*dev_row) : "closed")
           << " reference=" << (ref_row.has_value() ? std::to_string(*ref_row) : "closed");
      Diverge(now, what.str());
    }
  }

  if (cmd.type == DdrCommandType::kActivate && ref_counter_ != nullptr) {
    // The MC bumps its ACT counter after Issue() returns; mirror now and
    // compare at the next command (or FinalCheck).
    ref_counter_->OnActivate();
    pending_counter_check_ = true;
  }
}

void DeviceOracle::FinalCheck() { FlushPendingCounterCheck(); }

std::string DeviceOracle::Report() const {
  std::ostringstream out;
  out << "channel " << device_.channel_index() << ": " << commands_observed_
      << " commands observed, " << total_divergences_ << " divergences";
  for (const Divergence& d : divergences_) {
    out << "\n  [cmd #" << d.command_index << " @ cycle " << d.cycle << "] " << d.what;
  }
  if (total_divergences_ > divergences_.size()) {
    out << "\n  ... " << (total_divergences_ - divergences_.size()) << " more";
  }
  return out.str();
}

void SystemOracle::Attach(System& system) {
  MemoryController& mc = system.mc();
  for (uint32_t c = 0; c < mc.channels(); ++c) {
    channels_.push_back(
        std::make_unique<DeviceOracle>(mc.device(c), &mc.act_counter(c), options_));
    mc.device(c).set_check_observer(channels_.back().get());
  }
  mc.set_sched_check_observer(&scheduler_);
}

void SystemOracle::Detach(System& system) {
  MemoryController& mc = system.mc();
  for (uint32_t c = 0; c < mc.channels(); ++c) {
    mc.device(c).set_check_observer(nullptr);
  }
  mc.set_sched_check_observer(nullptr);
}

void SystemOracle::FinalCheck() {
  for (auto& channel : channels_) {
    channel->FinalCheck();
  }
}

bool SystemOracle::ok() const {
  for (const auto& channel : channels_) {
    if (!channel->ok()) {
      return false;
    }
  }
  return scheduler_.ok();
}

uint64_t SystemOracle::commands_observed() const {
  uint64_t total = 0;
  for (const auto& channel : channels_) {
    total += channel->commands_observed();
  }
  return total;
}

std::string SystemOracle::Report() const {
  std::string out;
  for (const auto& channel : channels_) {
    if (!out.empty()) {
      out += "\n";
    }
    out += channel->Report();
  }
  return out + (out.empty() ? "" : "\n") + "scheduler: " + scheduler_.Report();
}

}  // namespace ht
