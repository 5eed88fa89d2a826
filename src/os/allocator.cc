#include "os/allocator.h"

#include <algorithm>

namespace ht {

// --- Linear -------------------------------------------------------------

LinearAllocator::LinearAllocator(uint64_t total_frames) : total_frames_(total_frames) {}

std::optional<uint64_t> LinearAllocator::AllocFrame(DomainId domain) {
  (void)domain;
  if (!free_list_.empty()) {
    const uint64_t frame = free_list_.back();
    free_list_.pop_back();
    return frame;
  }
  if (cursor_ >= total_frames_) {
    return std::nullopt;
  }
  return cursor_++;
}

void LinearAllocator::FreeFrame(DomainId domain, uint64_t frame) {
  (void)domain;
  free_list_.push_back(frame);
}

// --- Bank-aware ----------------------------------------------------------

BankAwareAllocator::BankAwareAllocator(const AddressMapper& mapper)
    : mapper_(mapper), feasible_(mapper.scheme() == InterleaveScheme::kBankSequential) {
  const DramOrg& org = mapper_.org();
  total_banks_ = org.total_banks();
  const uint64_t lines_per_bank = static_cast<uint64_t>(org.rows_per_bank()) * org.columns;
  frames_per_bank_ = lines_per_bank / kLinesPerPage;
  pools_.resize(total_banks_);
}

uint64_t BankAwareAllocator::total_frames() const {
  return frames_per_bank_ * total_banks_;
}

std::optional<uint32_t> BankAwareAllocator::BankOf(DomainId domain) const {
  auto it = domain_banks_.find(domain);
  if (it == domain_banks_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<uint64_t> BankAwareAllocator::AllocFrame(DomainId domain) {
  if (!feasible_) {
    // With interleaving enabled a frame's lines span every bank, so
    // bank-confinement is impossible — the §4.1 problem. Refuse.
    return std::nullopt;
  }
  auto [it, inserted] = domain_banks_.try_emplace(domain, next_bank_);
  if (inserted) {
    next_bank_ = (next_bank_ + 1) % total_banks_;
  }
  Pool& pool = pools_[it->second];
  if (!pool.free_list.empty()) {
    const uint64_t frame = pool.free_list.back();
    pool.free_list.pop_back();
    return frame;
  }
  if (pool.cursor >= frames_per_bank_) {
    return std::nullopt;
  }
  // In the bank-sequential layout, bank b's frames are contiguous.
  return static_cast<uint64_t>(it->second) * frames_per_bank_ + pool.cursor++;
}

void BankAwareAllocator::FreeFrame(DomainId domain, uint64_t frame) {
  auto bank = BankOf(domain);
  if (bank.has_value()) {
    pools_[*bank].free_list.push_back(frame);
  }
}

// --- Guard rows -----------------------------------------------------------

GuardRowAllocator::GuardRowAllocator(const AddressMapper& mapper, uint32_t expected_domains,
                                     uint32_t blast_radius)
    : mapper_(mapper), expected_domains_(std::max(1u, expected_domains)) {
  const DramOrg& org = mapper_.org();
  const uint32_t rows = org.rows_per_bank();
  // Partition the row index space into `expected_domains` slots separated
  // by `blast_radius` guard rows. Works under any scheme that keeps a
  // frame within one row index (checked empirically below).
  const uint32_t guards = blast_radius * (expected_domains_ - 1);
  feasible_ = guards < rows;
  if (!feasible_) {
    return;
  }
  const uint32_t rows_per_slot = (rows - guards) / expected_domains_;
  feasible_ = rows_per_slot > 0;
  if (!feasible_) {
    return;
  }
  auto slot_of_row = [&](uint32_t row) -> int {
    const uint32_t stride = rows_per_slot + blast_radius;
    const uint32_t slot = row / stride;
    if (slot >= expected_domains_ || row % stride >= rows_per_slot) {
      return -1;  // Guard row or trailing remainder.
    }
    return static_cast<int>(slot);
  };

  pools_.resize(expected_domains_);
  const uint64_t total = mapper_.total_lines() / kLinesPerPage;
  DdrCoord coords[kLinesPerPage];
  for (uint64_t frame = 0; frame < total; ++frame) {
    mapper_.MapPage(frame, coords);
    int frame_slot = slot_of_row(coords[0].row);  // -1 = wasted.
    for (uint64_t l = 1; l < kLinesPerPage && frame_slot >= 0; ++l) {
      if (coords[l].row != coords[l - 1].row && slot_of_row(coords[l].row) != frame_slot) {
        frame_slot = -1;  // Straddles a guard boundary: unusable.
      }
    }
    if (frame_slot >= 0) {
      pools_[frame_slot].frames.push_back(frame);
    } else {
      ++wasted_frames_;
    }
  }
}

uint64_t GuardRowAllocator::total_frames() const {
  return mapper_.total_lines() / kLinesPerPage;
}

std::optional<uint64_t> GuardRowAllocator::AllocFrame(DomainId domain) {
  if (!feasible_) {
    return std::nullopt;
  }
  auto [it, inserted] = domain_slots_.try_emplace(domain, next_slot_);
  if (inserted) {
    next_slot_ = (next_slot_ + 1) % expected_domains_;
  }
  Pool& pool = pools_[it->second];
  if (!pool.free_list.empty()) {
    const uint64_t frame = pool.free_list.back();
    pool.free_list.pop_back();
    return frame;
  }
  if (pool.cursor >= pool.frames.size()) {
    return std::nullopt;
  }
  return pool.frames[pool.cursor++];
}

void GuardRowAllocator::FreeFrame(DomainId domain, uint64_t frame) {
  auto it = domain_slots_.find(domain);
  if (it != domain_slots_.end()) {
    pools_[it->second].free_list.push_back(frame);
  }
}

// --- Subarray-aware ---------------------------------------------------------

SubarrayAwareAllocator::SubarrayAwareAllocator(const AddressMapper& mapper)
    : mapper_(mapper), feasible_(mapper.scheme() == InterleaveScheme::kSubarrayIsolated) {
  if (!feasible_) {
    return;
  }
  const uint32_t groups = mapper_.org().subarrays_per_bank;
  const uint64_t frames_per_band = mapper_.LinesPerSubarrayBand() / kLinesPerPage;
  pools_.resize(groups);
  for (uint32_t g = 0; g < groups; ++g) {
    pools_[g].band_start = static_cast<uint64_t>(g) * frames_per_band;
    pools_[g].band_frames = frames_per_band;
  }
}

uint64_t SubarrayAwareAllocator::total_frames() const {
  return mapper_.total_lines() / kLinesPerPage;
}

std::optional<uint32_t> SubarrayAwareAllocator::DomainGroup(DomainId domain) const {
  auto it = domain_groups_.find(domain);
  if (it == domain_groups_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<uint64_t> SubarrayAwareAllocator::AllocFrame(DomainId domain) {
  if (!feasible_) {
    return std::nullopt;
  }
  auto [it, inserted] = domain_groups_.try_emplace(domain, next_group_);
  if (inserted) {
    if (domain_groups_.size() > pools_.size()) {
      ++shared_assignments_;  // More domains than groups: co-residency.
    }
    next_group_ = (next_group_ + 1) % static_cast<uint32_t>(pools_.size());
  }
  Pool& pool = pools_[it->second];
  if (!pool.free_list.empty()) {
    const uint64_t frame = pool.free_list.back();
    pool.free_list.pop_back();
    return frame;
  }
  if (pool.cursor >= pool.band_frames) {
    return std::nullopt;
  }
  return pool.band_start + pool.cursor++;
}

void SubarrayAwareAllocator::FreeFrame(DomainId domain, uint64_t frame) {
  auto it = domain_groups_.find(domain);
  if (it != domain_groups_.end()) {
    pools_[it->second].free_list.push_back(frame);
  }
}

}  // namespace ht
