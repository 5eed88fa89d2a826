#include "os/kernel.h"

#include <algorithm>
#include <stdexcept>

#include "common/log.h"

namespace ht {

HostKernel::HostKernel(MemoryController* mc, FrameAllocator* allocator)
    : mc_(mc), allocator_(allocator), domains_(1) {}

HostKernel::Domain& HostKernel::At(DomainId domain) const {
  Domain* d = Find(domain);
  if (d == nullptr) {
    throw std::out_of_range("no live domain " + std::to_string(domain));
  }
  return *d;
}

void HostKernel::SetFrame(uint64_t frame, FrameRecord record) {
  if (frame >= frames_.size()) {
    frames_.resize(frame + 1);
  }
  frames_[frame] = record;
}

DomainId HostKernel::CreateDomain(const DomainSpec& spec) {
  const DomainId id = static_cast<DomainId>(domains_.size());
  domains_.push_back(
      std::make_unique<Domain>(Domain{spec, AddressSpace(id), AddressSpace::BaseFor(id)}));
  return id;
}

void HostKernel::DestroyDomain(DomainId domain) {
  const Domain* d = Find(domain);
  if (d == nullptr) {
    return;
  }
  // pages() is an unordered_map; sort by VA page so FreeFrame ordering
  // (and thus the free list the next tenant allocates from) is
  // deterministic across platforms.
  std::vector<std::pair<uint64_t, uint64_t>> pages(d->space.pages().begin(),
                                                   d->space.pages().end());
  std::sort(pages.begin(), pages.end());
  for (const auto& [va_page, frame] : pages) {
    frames_[frame] = {};
    allocator_->FreeFrame(domain, frame);
  }
  stats_.Add("kernel.pages_freed", pages.size());
  stats_.Add("kernel.domains_destroyed");
  filled_regions_.erase(std::remove_if(filled_regions_.begin(), filled_regions_.end(),
                                       [domain](const Region& r) { return r.domain == domain; }),
                        filled_regions_.end());
  domains_[domain].reset();
}

std::optional<VirtAddr> HostKernel::AllocRegion(DomainId domain, uint64_t pages) {
  Domain& d = At(domain);
  const VirtAddr base = d.next_va;
  std::vector<uint64_t> frames;
  frames.reserve(pages);
  for (uint64_t i = 0; i < pages; ++i) {
    auto frame = allocator_->AllocFrame(domain);
    if (!frame.has_value()) {
      for (uint64_t f : frames) {
        allocator_->FreeFrame(domain, f);
      }
      stats_.Add("kernel.alloc_failures");
      return std::nullopt;
    }
    frames.push_back(*frame);
  }
  for (uint64_t i = 0; i < pages; ++i) {
    d.space.MapPage(base + i * kPageBytes, frames[i]);
    SetFrame(frames[i], {domain, base + i * kPageBytes});
  }
  d.next_va = base + pages * kPageBytes;
  stats_.Add("kernel.pages_allocated", pages);

  // §4.1 coordination: tell the MC which subarray group this domain uses
  // (the ASID-style table) so it can enforce isolation.
  auto group = allocator_->DomainGroup(domain);
  if (group.has_value()) {
    mc_->SetDomainGroup(domain, *group);
  }
  return base;
}

std::optional<PhysAddr> HostKernel::Translate(DomainId domain, VirtAddr va) const {
  const Domain* d = Find(domain);
  if (d == nullptr) {
    return std::nullopt;
  }
  return d->space.Translate(va);
}

std::function<std::optional<PhysAddr>(VirtAddr)> HostKernel::TranslatorFor(DomainId domain) {
  return [this, domain](VirtAddr va) { return Translate(domain, va); };
}

std::function<std::optional<PhysAddr>(VirtAddr)> HostKernel::MuxTranslator() {
  return [this](VirtAddr va) { return Translate(DomainOfVa(va), va); };
}

DomainId HostKernel::OwnerOfFrame(uint64_t frame) const {
  return frame < frames_.size() ? frames_[frame].domain : kInvalidDomain;
}

std::vector<uint64_t> HostKernel::MappedFrames() const {
  std::vector<uint64_t> mapped;
  for (uint64_t frame = 0; frame < frames_.size(); ++frame) {
    if (frames_[frame].domain != kInvalidDomain) {
      mapped.push_back(frame);
    }
  }
  return mapped;
}

uint64_t HostKernel::PatternValue(DomainId domain, VirtAddr va_line) {
  uint64_t x = (static_cast<uint64_t>(domain) << 48) ^ va_line ^ 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

template <typename Fn>
void HostKernel::ForEachMappedPage(const Domain& d, VirtAddr base, uint64_t pages, Fn&& fn) {
  // The region's lines are slots [first_slot, end_slot) counted in lines
  // from the start of base's VA page; a base that is not page-aligned
  // makes the region touch one page more, partly at each end.
  const VirtAddr page0 = base / kPageBytes * kPageBytes;
  const uint64_t first_slot = (base % kPageBytes) / kLineBytes;
  const uint64_t end_slot = first_slot + pages * kLinesPerPage;
  for (uint64_t slot = first_slot; slot < end_slot;) {
    const uint64_t page = slot / kLinesPerPage;
    const uint64_t next = std::min(end_slot, (page + 1) * kLinesPerPage);
    const VirtAddr va_page = page0 + page * kPageBytes;
    if (const std::optional<uint64_t> frame = d.space.FrameOf(va_page); frame.has_value()) {
      fn(*frame, static_cast<uint32_t>(slot - page * kLinesPerPage),
         static_cast<uint32_t>(next - page * kLinesPerPage), va_page + base % kLineBytes);
    }
    slot = next;
  }
}

void HostKernel::FillRegion(DomainId domain, VirtAddr base, uint64_t pages) {
  if (const Domain* d = Find(domain); d != nullptr) {
    ForEachMappedPage(*d, base, pages,
                      [&](uint64_t frame, uint32_t first, uint32_t end, VirtAddr va) {
                        uint64_t words[kLinesPerPage] = {};
                        for (uint32_t i = first; i < end; ++i) {
                          words[i] = PatternValue(domain, va + i * kLineBytes);
                        }
                        mc_->WritePageWords(frame, words, first, end);
                      });
  }
  filled_regions_.push_back({domain, base, pages});
}

VerifyResult HostKernel::VerifyRegion(DomainId domain, VirtAddr base, uint64_t pages) const {
  VerifyResult result;
  const Domain& d = At(domain);
  const bool lockup = d.spec.enclave && d.spec.integrity_checked;
  ForEachMappedPage(d, base, pages, [&](uint64_t frame, uint32_t first, uint32_t end, VirtAddr va) {
    uint64_t words[kLinesPerPage] = {};
    mc_->ReadPageWords(frame, words, first, end);
    result.lines_checked += end - first;
    for (uint32_t i = first; i < end; ++i) {
      if (words[i] != PatternValue(domain, va + i * kLineBytes)) {
        ++result.corrupted_lines;
        if (lockup) {
          // §4.4: integrity-checked enclave corruption = system lockup.
          ++result.dos_lockups;
        }
      }
    }
  });
  return result;
}

VerifyResult HostKernel::VerifyAll() const {
  VerifyResult total;
  for (const Region& region : filled_regions_) {
    const VerifyResult r = VerifyRegion(region.domain, region.base, region.pages);
    total.lines_checked += r.lines_checked;
    total.corrupted_lines += r.corrupted_lines;
    total.dos_lockups += r.dos_lockups;
  }
  return total;
}

std::vector<PhysAddr> HostKernel::NeighborRowAddrs(PhysAddr addr, uint32_t blast) const {
  const AddressMapper& mapper = mc_->mapper();
  const DdrCoord coord = mapper.Map(addr);
  const uint32_t rows = mapper.org().rows_per_bank();
  std::vector<PhysAddr> neighbors;
  neighbors.reserve(2 * blast);
  for (uint32_t d = 1; d <= blast; ++d) {
    for (int sign = -1; sign <= 1; sign += 2) {
      const int64_t row = static_cast<int64_t>(coord.row) + sign * static_cast<int64_t>(d);
      if (row < 0 || row >= static_cast<int64_t>(rows)) {
        continue;
      }
      DdrCoord neighbor = coord;
      neighbor.row = static_cast<uint32_t>(row);
      neighbor.column = 0;
      neighbors.push_back(mapper.AddrOf(neighbor));
    }
  }
  return neighbors;
}

bool HostKernel::MovePage(DomainId domain, VirtAddr va_page) {
  const auto new_frame = allocator_->AllocFrame(domain);
  if (!new_frame.has_value()) {
    stats_.Add("kernel.move_failures");
    return false;
  }
  if (!MovePageToFrame(domain, va_page, *new_frame)) {
    allocator_->FreeFrame(domain, *new_frame);
    return false;
  }
  return true;
}

bool HostKernel::MovePageToFrame(DomainId domain, VirtAddr va_page, uint64_t new_frame) {
  AddressSpace& space = At(domain).space;
  const VirtAddr base = va_page / kPageBytes * kPageBytes;
  const auto old_frame = space.FrameOf(base);
  if (!old_frame.has_value()) {
    return false;
  }
  // Copy the page's words (the proposed uncore move, §4.2). Reads go
  // through ECC like any read, but uncorrectable data is copied verbatim:
  // migration does not launder flips.
  uint64_t words[kLinesPerPage] = {};
  mc_->ReadPageWords(*old_frame, words);
  mc_->WritePageWords(new_frame, words);
  space.MapPage(base, new_frame);
  SetFrame(new_frame, {domain, base});
  frames_[*old_frame] = {};
  allocator_->FreeFrame(domain, *old_frame);
  ++page_moves_;
  stats_.Add("kernel.page_moves");
  HT_TRACE(trace_, trace_clock_ != nullptr ? *trace_clock_ : 0, TraceKind::kPageMove, 0, 0, 0,
           static_cast<uint32_t>(domain), new_frame);
  return true;
}

std::optional<std::pair<DomainId, VirtAddr>> HostKernel::LocatePhys(PhysAddr addr) const {
  const uint64_t frame = addr / kPageBytes;
  if (frame >= frames_.size() || frames_[frame].domain == kInvalidDomain) {
    return std::nullopt;
  }
  return std::make_pair(frames_[frame].domain, frames_[frame].va_page);
}

bool HostKernel::MovePageByPhys(PhysAddr addr) {
  auto located = LocatePhys(addr);
  if (!located.has_value()) {
    return false;
  }
  return MovePage(located->first, located->second);
}

bool HostKernel::MovePageByPhysToFrame(PhysAddr addr, uint64_t new_frame) {
  auto located = LocatePhys(addr);
  if (!located.has_value()) {
    return false;
  }
  return MovePageToFrame(located->first, located->second, new_frame);
}

std::vector<DomainId> HostKernel::RowOwners(uint32_t channel, uint32_t rank, uint32_t bank,
                                            uint32_t row) const {
  const AddressMapper& mapper = mc_->mapper();
  std::vector<DomainId> owners;
  for (uint32_t column = 0; column < mapper.org().columns; ++column) {
    const PhysAddr pa = mapper.AddrOf({channel, rank, bank, row, column});
    const DomainId owner = OwnerOfPhys(pa);
    if (owner != kInvalidDomain && std::find(owners.begin(), owners.end(), owner) == owners.end()) {
      owners.push_back(owner);
    }
  }
  return owners;
}

FlipAttribution HostKernel::AttributeFlips() const {
  FlipAttribution result;
  for (uint32_t c = 0; c < mc_->channels(); ++c) {
    for (const FlipRecord& flip : mc_->device(c).flip_records()) {
      ++result.total_flips;
      const auto victim_owners = RowOwners(c, flip.rank, flip.bank, flip.victim_row);
      const auto aggressor_owners = RowOwners(c, flip.rank, flip.bank, flip.aggressor_row);
      if (victim_owners.empty()) {
        ++result.unattributed;
        continue;
      }
      bool cross = false;
      for (DomainId victim : victim_owners) {
        if (std::find(aggressor_owners.begin(), aggressor_owners.end(), victim) ==
            aggressor_owners.end()) {
          cross = true;
        }
        const Domain* d = Find(victim);
        if (d != nullptr && d->spec.enclave) {
          ++result.enclave_victims;
        }
      }
      if (cross) {
        ++result.cross_domain;
      } else {
        ++result.intra_domain;
      }
    }
  }
  return result;
}

}  // namespace ht
