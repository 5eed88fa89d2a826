// The model host OS / hypervisor: trust domains, page tables, frame
// ownership, golden-pattern memory verification, page migration (the
// §4.2 "ACT wear-leveling" building block), neighbour-row computation
// from mapping knowledge [11], and the enclave registry (§4.4).
#ifndef HAMMERTIME_SRC_OS_KERNEL_H_
#define HAMMERTIME_SRC_OS_KERNEL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "mc/controller.h"
#include "os/address_space.h"
#include "os/allocator.h"

namespace ht {

struct DomainSpec {
  std::string name;
  bool enclave = false;
  bool integrity_checked = false;  // §4.4: checked enclaves turn flips
                                   // into DoS instead of corruption.
};

// Result of verifying golden-patterned memory.
struct VerifyResult {
  uint64_t lines_checked = 0;
  uint64_t corrupted_lines = 0;
  uint64_t dos_lockups = 0;  // Corrupted lines in integrity-checked enclaves.
};

// Attribution of DRAM flip events to trust domains.
struct FlipAttribution {
  uint64_t total_flips = 0;
  uint64_t cross_domain = 0;  // Victim row holds another domain's data.
  uint64_t intra_domain = 0;  // Victim row belongs to the aggressor domain.
  uint64_t unattributed = 0;  // Victim row unallocated.
  uint64_t enclave_victims = 0;
};

class HostKernel {
 public:
  HostKernel(MemoryController* mc, FrameAllocator* allocator);

  // --- Domains & memory ----------------------------------------------------

  DomainId CreateDomain(const DomainSpec& spec);
  // Both throw std::out_of_range for an id that names no live domain.
  const DomainSpec& spec(DomainId domain) const { return At(domain).spec; }
  AddressSpace& space(DomainId domain) { return At(domain).space; }
  bool HasDomain(DomainId domain) const { return Find(domain) != nullptr; }

  // Tears down a domain: unmaps every page (VA order, so the allocator's
  // free list sees a deterministic release sequence), returns frames to
  // the pool, and drops the domain's fill records from verification.
  // Domain IDs are never reused; freed frames are.
  void DestroyDomain(DomainId domain);

  // Allocates `pages` contiguous-VA pages; returns the base VA, or nullopt
  // when the allocator's pool for this domain is exhausted.
  std::optional<VirtAddr> AllocRegion(DomainId domain, uint64_t pages);

  std::optional<PhysAddr> Translate(DomainId domain, VirtAddr va) const;

  // A translation closure suitable for Core::set_translate.
  std::function<std::optional<PhysAddr>(VirtAddr)> TranslatorFor(DomainId domain);

  // Domain encoded in a namespaced VA ((domain+1) << 36 | offset) — the
  // inverse of AddressSpace::BaseFor. Does not check the domain exists.
  static DomainId DomainOfVa(VirtAddr va) { return static_cast<DomainId>((va >> 36) - 1); }

  // A translation closure that recovers the domain from the VA itself,
  // so one core can multiplex streams from many tenants (cloud mode runs
  // thousands of domains on a handful of cores). Translations against
  // destroyed domains miss, like a real stale mapping.
  std::function<std::optional<PhysAddr>(VirtAddr)> MuxTranslator();

  DomainId OwnerOfFrame(uint64_t frame) const;
  DomainId OwnerOfPhys(PhysAddr addr) const { return OwnerOfFrame(addr / kPageBytes); }
  // All currently mapped frames, ascending (patrol scrubbers walk these).
  std::vector<uint64_t> MappedFrames() const;

  // --- Golden data ----------------------------------------------------------

  // Deterministic pattern word for a domain's line (self-verifying data).
  static uint64_t PatternValue(DomainId domain, VirtAddr va_line);

  // Writes the golden pattern into every line of the region, directly to
  // DRAM (setup-time, no timing charged).
  void FillRegion(DomainId domain, VirtAddr base, uint64_t pages);

  // Re-reads a filled region and counts corrupted lines.
  VerifyResult VerifyRegion(DomainId domain, VirtAddr base, uint64_t pages) const;

  // Verifies every region ever filled.
  VerifyResult VerifyAll() const;

  // --- Defense building blocks ----------------------------------------------

  // Physical line addresses of the rows adjacent (logical ±1..blast, same
  // bank) to the row containing `addr` — computed from the MC's known
  // physical→DDR mapping, the §2.1/[11] technique.
  std::vector<PhysAddr> NeighborRowAddrs(PhysAddr addr, uint32_t blast) const;

  // Wear-leveling page migration (§4.2): moves the page at `va_page` to a
  // freshly allocated frame, copying contents (corruption travels with the
  // data, as with a real uncore move).
  bool MovePage(DomainId domain, VirtAddr va_page);
  uint64_t page_moves() const { return page_moves_; }

  // Reverse lookup: which (domain, va_page) currently maps the frame of
  // `addr`. Lets an interrupt handler act on a raw physical address.
  std::optional<std::pair<DomainId, VirtAddr>> LocatePhys(PhysAddr addr) const;

  // MovePage for a physical address (frequency-centric wear-leveling on
  // the ACT-interrupt trigger address).
  bool MovePageByPhys(PhysAddr addr);

  // MovePage into a caller-chosen destination frame (e.g. a quarantine
  // pool whose neighbouring rows hold no victim data). The caller must
  // own `new_frame` (reserved via the allocator); the old frame returns
  // to the general pool.
  bool MovePageToFrame(DomainId domain, VirtAddr va_page, uint64_t new_frame);
  bool MovePageByPhysToFrame(PhysAddr addr, uint64_t new_frame);

  // --- Flip attribution ------------------------------------------------------

  // Classifies all flip events recorded by the devices so far.
  FlipAttribution AttributeFlips() const;

  // Domains owning any line of a (channel, rank, bank, logical row).
  std::vector<DomainId> RowOwners(uint32_t channel, uint32_t rank, uint32_t bank,
                                  uint32_t row) const;

  MemoryController& mc() { return *mc_; }
  FrameAllocator& allocator() { return *allocator_; }
  StatSet& stats() { return stats_; }

  // Attach (or detach with nullptr) a trace buffer. Kernel services have
  // no cycle argument, so `clock` points at the simulation clock (the
  // System's now) to stamp PAGE_MOVE events.
  void set_trace(TraceBuffer* trace, const Cycle* clock) {
    trace_ = trace;
    trace_clock_ = clock;
  }

 private:
  struct Domain {
    DomainSpec spec;
    AddressSpace space;
    VirtAddr next_va;  // Where the next AllocRegion starts.
  };

  // Who maps a frame; domain == kInvalidDomain for a free frame.
  struct FrameRecord {
    DomainId domain = kInvalidDomain;
    VirtAddr va_page = 0;
  };

  struct Region {
    DomainId domain;
    VirtAddr base;
    uint64_t pages;
  };

  // Null for id 0 and for destroyed or never-created ids; At throws.
  Domain* Find(DomainId domain) const {
    return domain < domains_.size() ? domains_[domain].get() : nullptr;
  }
  Domain& At(DomainId domain) const;
  void SetFrame(uint64_t frame, FrameRecord record);
  // Calls fn(frame, first, end, va) once per mapped VA page that the
  // `pages`-page region at `base` touches, in VA order: the region covers
  // the page's lines [first, end), and line i of the page has VA
  // va + i * kLineBytes. Unmapped pages are skipped.
  template <typename Fn>
  static void ForEachMappedPage(const Domain& d, VirtAddr base, uint64_t pages, Fn&& fn);

  MemoryController* mc_;
  FrameAllocator* allocator_;
  // Indexed by DomainId. Ids are dense from 1 and never reused, so slot 0
  // and destroyed domains hold null; Domain addresses stay stable.
  std::vector<std::unique_ptr<Domain>> domains_;
  // Indexed by frame number; grows to the highest frame ever mapped.
  std::vector<FrameRecord> frames_;
  std::vector<Region> filled_regions_;
  uint64_t page_moves_ = 0;
  StatSet stats_;
  TraceBuffer* trace_ = nullptr;
  const Cycle* trace_clock_ = nullptr;
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_OS_KERNEL_H_
