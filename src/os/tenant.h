// Multi-tenant cloud host model (the paper's §1/§5 setting): thousands
// of mutually distrusting trust domains packed onto one DRAM host, with
// create/destroy churn and frame reuse, per-tenant traffic generators
// drawn from string-keyed workload mixes, and per-tenant flip accounting
// that distinguishes flips *escaping* a tenant's allocation boundary
// from intra-tenant collateral.
//
// The manager is built over the existing kernel primitives — domains are
// ASIDs, placement is whatever FrameAllocator policy the scenario runs,
// and teardown is HostKernel::DestroyDomain — so every allocator/defense
// combination the single-tenant experiments exercise works unchanged at
// cloud scale. Tenants occupy stable *slots* (0..slots-1); churn swaps
// the domain behind a slot while slot-level accounting persists, which
// is what lets reports compare per-tenant metrics across a run where
// thousands of short-lived domains come and go.
#ifndef HAMMERTIME_SRC_OS_TENANT_H_
#define HAMMERTIME_SRC_OS_TENANT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "cpu/cache.h"
#include "cpu/core_ops.h"
#include "os/kernel.h"

namespace ht {

// --- Traffic mix registry ----------------------------------------------------
//
// A traffic mix names a weighted blend of workload kinds (the
// sim/workloads registry names). Each tenant slot draws its kind from
// the mix by seeded weighted choice, so a "cloud" host runs a
// heterogeneous population while a degenerate mix ("stream") pins every
// tenant to one kind for controlled experiments.

struct MixComponent {
  const char* kind;  // sim/workloads registry name.
  uint32_t weight;
};

// All canonical mix names, in registration order.
const std::vector<std::string>& AllTenantMixes();
// Comma-joined canonical names, for CLI help strings.
std::string KnownTenantMixes();
bool IsTenantMix(const std::string& name);
// Components of `name`, or an empty vector if unknown.
std::vector<MixComponent> TenantMixComponents(const std::string& name);

// Constructs the traffic stream for one tenant. Wired by the runner to
// sim/workloads' MakeWorkload; injected so os/ does not depend on sim/.
using TenantStreamFactory = std::function<std::unique_ptr<InstructionStream>(
    const std::string& kind, DomainId domain, VirtAddr base, uint64_t bytes, uint64_t seed)>;

struct TenantConfig {
  uint32_t slots = 16;          // Stable tenant slots (>= 2: attacker + victim).
  uint64_t pages_per_slot = 4;  // Pages allocated per tenant.
  std::string mix = "cloud";    // Traffic mix registry name.
  double churn_rate = 0.0;      // Fraction of eligible slots recycled per epoch.
  uint32_t attacker_slot = 0;   // Runs the attack stream; never churned.
  uint32_t victim_slot = 1;     // Pinned co-located victim; never churned.
  // Co-residency placement for the pinned pair: when > 0, Init()
  // allocates the attacker and victim slots first, in alternating
  // `placement_chunk`-page turns, so their frames abut in physical
  // memory — the massaged adjacency a cloud rowhammer attacker
  // engineers before hammering. Whether the mapper still folds that
  // adjacency into a same-bank row sandwich is then exactly what
  // isolation-centric placement controls. Other slots are unaffected.
  uint64_t placement_chunk = 0;
  // Page-count overrides for the pinned slots (0 = pages_per_slot). A
  // real attacker buys a bigger instance to span more rows.
  uint64_t attacker_pages = 0;
  uint64_t victim_pages = 0;
  uint64_t seed = 1;
  TenantStreamFactory stream_factory;
};

// One classified flip event, sampled (capped) for invariant tests.
struct TenantFlipRecord {
  uint32_t victim_slot;     // Slot owning the flipped row's data, or kNoSlot.
  uint32_t aggressor_slot;  // Slot owning the aggressor row, or kNoSlot.
  uint32_t row_distance;    // |victim_row - aggressor_row| (same bank).
  bool escaped;             // Victim tenant differs from every aggressor owner.
};

class TenantManager;

// Round-robin multiplexer over the tenant slots assigned to one carrier
// core (slot % shards == shard), emitting heavy-tailed bursts per tenant:
// burst lengths are 2^k lines with P(2^k) = 2^-(k+1) (mean ~2, max 64),
// the bursty request mixes of consolidated cloud hosts rather than one
// steady interleave. VAs are domain-namespaced, so the carrier core must
// be assigned via System::AssignMuxCore.
class TenantMuxStream : public InstructionStream {
 public:
  TenantMuxStream(TenantManager* manager, uint32_t shard, uint32_t shards, uint64_t seed);

  CoreOp Next() override;
  uint32_t IlpHint() const override { return 8; }

 private:
  TenantManager* manager_;
  std::vector<uint32_t> slots_;  // Slot indices served by this carrier.
  Rng rng_;
  size_t cursor_ = 0;
  uint64_t burst_remaining_ = 0;
};

class TenantManager {
 public:
  static constexpr uint32_t kNoSlot = 0xffffffffu;

  TenantManager(HostKernel* kernel, Cache* llc, const TenantConfig& config);

  // Creates all tenant domains, allocates and golden-fills their pages,
  // and builds per-slot traffic streams. False if any allocation failed
  // (pool exhausted) — the failed slots stay inactive but the run is
  // still usable; alloc_failures() reports the count.
  bool Init();

  // Recycles floor(churn_rate * eligible_slots) tenants (never the
  // attacker/victim slots): flushes the dying domain's LLC lines
  // (privileged, discarding dirty data — hypervisor page scrub), destroys
  // the domain, then creates a fresh domain in the same slot with newly
  // allocated (likely reused) frames, a new golden fill, and a new
  // traffic stream. Selection and reallocation are pure functions of
  // (seed, epoch), so same-seed runs churn identically. Returns the
  // number of slots recycled.
  uint64_t Churn(uint64_t epoch);

  // Classifies flip records appended to the devices since the last
  // harvest against *current* page ownership. Call once per epoch BEFORE
  // Churn — after a slot is recycled its old flips would attribute to the
  // wrong generation. Only the devices' capped record sample is
  // classifiable; flips beyond the cap count in mc totals only.
  void HarvestFlips();

  // Next traffic op for a slot (Halt if the slot has no stream).
  CoreOp NextOpForSlot(uint32_t slot);

  // FNV-1a fingerprint of every slot's (generation, va_page, frame) map,
  // in slot order with pages sorted by VA. Byte-identical fingerprints
  // across serial and threaded runs are the churn determinism contract.
  uint64_t PageMapFingerprint() const;

  const TenantConfig& config() const { return config_; }
  uint32_t slot_count() const { return config_.slots; }
  DomainId DomainOf(uint32_t slot) const { return slots_[slot].domain; }
  VirtAddr BaseOf(uint32_t slot) const { return slots_[slot].base; }
  uint64_t GenerationOf(uint32_t slot) const { return slots_[slot].generation; }
  uint32_t SlotOfDomain(DomainId domain) const;

  // --- Accounting ---------------------------------------------------------

  uint64_t classified_flips() const { return classified_flips_; }
  // Flips that escaped an allocation boundary: some victim tenant owns
  // the flipped row and is not among the aggressor row's owners.
  uint64_t escaped_flips() const { return escaped_flips_; }
  uint64_t intra_tenant_flips() const { return intra_tenant_flips_; }
  uint64_t unattributed_flips() const { return unattributed_flips_; }
  // Distinct victim slots hit by at least one escaped flip.
  uint64_t tenants_hit() const;
  uint64_t churn_events() const { return churn_events_; }
  uint64_t alloc_failures() const { return alloc_failures_; }
  uint64_t escaped_into(uint32_t slot) const { return slots_[slot].escaped_received; }
  const std::vector<TenantFlipRecord>& flip_samples() const { return flip_samples_; }

 private:
  struct Slot {
    DomainId domain = kInvalidDomain;
    VirtAddr base = 0;
    uint64_t pages = 0;  // Pages mapped from base; the domain maps no others.
    uint64_t generation = 0;
    std::unique_ptr<InstructionStream> stream;
    uint64_t escaped_received = 0;  // Escaped flips landing in this slot.
  };

  uint64_t SlotPages(uint32_t slot) const;
  bool CreateSlot(uint32_t slot, uint64_t generation);
  bool CreateColocatedPair();
  void FinishSlot(uint32_t slot, uint64_t generation, DomainId domain, VirtAddr base,
                  uint64_t pages);
  void FlushSlotLines(uint32_t slot);
  void ClassifyFlip(uint32_t channel, const FlipRecord& flip);

  HostKernel* kernel_;
  Cache* llc_;
  TenantConfig config_;
  std::vector<Slot> slots_;
  std::unordered_map<DomainId, uint32_t> domain_slot_;
  std::vector<size_t> harvest_cursor_;  // Per-channel flip-record cursor.
  std::vector<TenantFlipRecord> flip_samples_;
  uint64_t classified_flips_ = 0;
  uint64_t escaped_flips_ = 0;
  uint64_t intra_tenant_flips_ = 0;
  uint64_t unattributed_flips_ = 0;
  uint64_t churn_events_ = 0;
  uint64_t alloc_failures_ = 0;
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_OS_TENANT_H_
