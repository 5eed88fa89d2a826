#include "os/tenant.h"

#include <algorithm>
#include <bit>

namespace ht {

namespace {

// Registry table in the style of scenario.cc's kind registries: one
// degenerate mix per workload kind for controlled experiments, plus the
// heterogeneous "cloud" blend (streaming-dominated, with random-access,
// hotspot, and latency-bound chase minorities).
struct MixEntry {
  const char* name;
  std::vector<MixComponent> components;
};

const std::vector<MixEntry>& MixTable() {
  static const std::vector<MixEntry> kMixes = {
      {"stream", {{"stream", 1}}},
      {"random", {{"random", 1}}},
      {"hotspot", {{"hotspot", 1}}},
      {"chase", {{"chase", 1}}},
      {"cloud", {{"stream", 4}, {"random", 2}, {"hotspot", 1}, {"chase", 1}}},
  };
  return kMixes;
}

// SplitMix64-style mixer for deriving independent per-slot seeds from
// (campaign seed, slot, generation) without any draw-order coupling.
uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c) {
  uint64_t x = a ^ (b * 0x9e3779b97f4a7c15ULL) ^ (c * 0xbf58476d1ce4e5b9ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Calls fn(va_page_number, frame) for each mapped page of the `pages`
// pages at `base`, in ascending VA order. A tenant slot's domain only
// ever gets VA-contiguous regions from its base, and page moves keep the
// VA, so walking that range meets every page of the domain in the order
// a sorted copy of its page table would, without making one.
template <typename Fn>
void ForEachPageInOrder(const AddressSpace& space, VirtAddr base, uint64_t pages, Fn&& fn) {
  for (uint64_t p = 0; p < pages; ++p) {
    const VirtAddr va = base + p * kPageBytes;
    if (const std::optional<uint64_t> frame = space.FrameOf(va); frame.has_value()) {
      fn(va / kPageBytes, *frame);
    }
  }
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t FnvMix(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash = (hash ^ ((value >> (8 * i)) & 0xff)) * kFnvPrime;
  }
  return hash;
}

// Capped sample for invariant tests; totals stay exact in counters.
constexpr size_t kMaxFlipSamples = 4096;

}  // namespace

const std::vector<std::string>& AllTenantMixes() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const MixEntry& entry : MixTable()) {
      names.push_back(entry.name);
    }
    return names;
  }();
  return kNames;
}

std::string KnownTenantMixes() {
  std::string joined;
  for (const MixEntry& entry : MixTable()) {
    if (!joined.empty()) {
      joined += ",";
    }
    joined += entry.name;
  }
  return joined;
}

bool IsTenantMix(const std::string& name) { return !TenantMixComponents(name).empty(); }

std::vector<MixComponent> TenantMixComponents(const std::string& name) {
  for (const MixEntry& entry : MixTable()) {
    if (name == entry.name) {
      return entry.components;
    }
  }
  return {};
}

// --- TenantMuxStream ---------------------------------------------------------

TenantMuxStream::TenantMuxStream(TenantManager* manager, uint32_t shard, uint32_t shards,
                                 uint64_t seed)
    : manager_(manager), rng_(seed) {
  // Slot indices are stable across churn, so the carrier's slot list is
  // fixed at construction. The attacker slot runs on its own core.
  for (uint32_t slot = 0; slot < manager->slot_count(); ++slot) {
    if (slot == manager->config().attacker_slot) {
      continue;
    }
    if (shards == 0 || slot % shards == shard) {
      slots_.push_back(slot);
    }
  }
}

CoreOp TenantMuxStream::Next() {
  if (slots_.empty()) {
    return CoreOp::Halt();
  }
  // One full lap without a live slot means every tenant here is inactive
  // (alloc failures); idle rather than halt so churn can revive them.
  for (size_t attempts = 0; attempts < slots_.size(); ++attempts) {
    if (burst_remaining_ == 0) {
      cursor_ = (cursor_ + 1) % slots_.size();
      // Heavy-tailed burst length: 2^k with P = 2^-(k+1), capped at 64.
      const int zeros = std::countr_zero(rng_.Next() | (uint64_t{1} << 63));
      burst_remaining_ = uint64_t{1} << std::min(zeros, 6);
      // Heavy-tailed off-period before the burst: consolidated hosts run
      // at partial utilization, not line rate. Without this the carriers
      // saturate the channel, pinning every family's tail latency into
      // the same histogram bucket and starving the co-resident attack.
      const int gap = std::countr_zero(rng_.Next() | (uint64_t{1} << 63));
      return CoreOp::Idle(uint64_t{64} << std::min(gap, 6));
    }
    const CoreOp op = manager_->NextOpForSlot(slots_[cursor_]);
    if (op.kind != CoreOpKind::kHalt) {
      --burst_remaining_;
      return op;
    }
    burst_remaining_ = 0;
  }
  return CoreOp::Idle(64);
}

// --- TenantManager -----------------------------------------------------------

TenantManager::TenantManager(HostKernel* kernel, Cache* llc, const TenantConfig& config)
    : kernel_(kernel), llc_(llc), config_(config) {
  slots_.resize(config_.slots);
  harvest_cursor_.assign(kernel_->mc().channels(), 0);
}

bool TenantManager::Init() {
  const bool colocate = config_.placement_chunk > 0 && config_.slots >= 2 &&
                        config_.attacker_slot != config_.victim_slot &&
                        config_.attacker_slot < config_.slots &&
                        config_.victim_slot < config_.slots;
  bool ok = true;
  if (colocate) {
    ok = CreateColocatedPair() && ok;
  }
  for (uint32_t slot = 0; slot < config_.slots; ++slot) {
    if (colocate && (slot == config_.attacker_slot || slot == config_.victim_slot)) {
      continue;
    }
    ok = CreateSlot(slot, 0) && ok;
  }
  return ok;
}

uint64_t TenantManager::SlotPages(uint32_t slot) const {
  if (slot == config_.attacker_slot && config_.attacker_pages > 0) {
    return config_.attacker_pages;
  }
  if (slot == config_.victim_slot && config_.victim_pages > 0) {
    return config_.victim_pages;
  }
  return config_.pages_per_slot;
}

bool TenantManager::CreateSlot(uint32_t slot, uint64_t generation) {
  Slot& entry = slots_[slot];
  const uint64_t pages = SlotPages(slot);
  const DomainId domain = kernel_->CreateDomain(
      {"tenant-" + std::to_string(slot) + "." + std::to_string(generation)});
  const auto base = kernel_->AllocRegion(domain, pages);
  if (!base.has_value()) {
    // Pool exhausted: the slot goes dark until a later churn retries it.
    kernel_->DestroyDomain(domain);
    entry.domain = kInvalidDomain;
    entry.base = 0;
    entry.pages = 0;
    entry.generation = generation;
    entry.stream = nullptr;
    ++alloc_failures_;
    return false;
  }
  kernel_->FillRegion(domain, *base, pages);
  FinishSlot(slot, generation, domain, *base, pages);
  return true;
}

// Allocates the pinned attacker/victim pair in alternating
// `placement_chunk`-page turns so the two allocations interleave in
// physical memory. Successive AllocRegion calls for one domain are
// VA-contiguous, so each slot still sees one flat region.
bool TenantManager::CreateColocatedPair() {
  const uint32_t pair[2] = {config_.attacker_slot, config_.victim_slot};
  DomainId domains[2];
  uint64_t want[2];
  uint64_t got[2] = {0, 0};
  VirtAddr bases[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    domains[i] = kernel_->CreateDomain({"tenant-" + std::to_string(pair[i]) + ".0"});
    want[i] = SlotPages(pair[i]);
  }
  bool progress = true;
  while (progress) {
    progress = false;
    for (int i = 0; i < 2; ++i) {
      if (got[i] >= want[i]) {
        continue;
      }
      const uint64_t chunk = std::min(config_.placement_chunk, want[i] - got[i]);
      const auto base = kernel_->AllocRegion(domains[i], chunk);
      if (base.has_value()) {
        if (got[i] == 0) {
          bases[i] = *base;
        }
        got[i] += chunk;
        progress = true;
      } else {
        want[i] = got[i];  // Pool exhausted; keep what we have.
      }
    }
  }
  bool ok = true;
  for (int i = 0; i < 2; ++i) {
    if (got[i] == 0) {
      kernel_->DestroyDomain(domains[i]);
      Slot& entry = slots_[pair[i]];
      entry.domain = kInvalidDomain;
      entry.base = 0;
      entry.pages = 0;
      entry.generation = 0;
      entry.stream = nullptr;
      ++alloc_failures_;
      ok = false;
      continue;
    }
    kernel_->FillRegion(domains[i], bases[i], got[i]);
    FinishSlot(pair[i], 0, domains[i], bases[i], got[i]);
  }
  return ok;
}

void TenantManager::FinishSlot(uint32_t slot, uint64_t generation, DomainId domain,
                               VirtAddr base, uint64_t pages) {
  Slot& entry = slots_[slot];
  entry.domain = domain;
  entry.base = base;
  entry.pages = pages;
  entry.generation = generation;
  domain_slot_[domain] = slot;

  // The attacker slot's traffic is the attack stream, installed by the
  // runner on a dedicated core; everyone else gets a mix-drawn workload.
  entry.stream = nullptr;
  if (slot != config_.attacker_slot && config_.stream_factory) {
    const std::vector<MixComponent> mix = TenantMixComponents(config_.mix);
    if (!mix.empty()) {
      uint32_t total_weight = 0;
      for (const MixComponent& component : mix) {
        total_weight += component.weight;
      }
      Rng pick(MixSeed(config_.seed, slot, generation * 2 + 1));
      uint64_t draw = pick.NextBelow(total_weight);
      const char* kind = mix.back().kind;
      for (const MixComponent& component : mix) {
        if (draw < component.weight) {
          kind = component.kind;
          break;
        }
        draw -= component.weight;
      }
      entry.stream = config_.stream_factory(kind, domain, base, pages * kPageBytes,
                                            MixSeed(config_.seed, slot, generation * 2 + 2));
    }
  }
}

void TenantManager::FlushSlotLines(uint32_t slot) {
  const Slot& entry = slots_[slot];
  if (entry.domain == kInvalidDomain) {
    return;
  }
  // Privileged flush, discarding dirty data: hypervisor page scrub on
  // teardown, so a reused frame never receives the dead tenant's
  // writebacks from resident lines. (In-flight fills can still deposit a
  // stale line; those land in corruption totals, never flip accounting.)
  ForEachPageInOrder(kernel_->space(entry.domain), entry.base, entry.pages,
                     [this](uint64_t, uint64_t frame) {
                       for (uint64_t line = 0; line < kLinesPerPage; ++line) {
                         llc_->Flush(frame * kPageBytes + line * kLineBytes, /*privileged=*/true);
                       }
                     });
}

uint64_t TenantManager::Churn(uint64_t epoch) {
  if (config_.churn_rate <= 0.0) {
    return 0;
  }
  std::vector<uint32_t> eligible;
  for (uint32_t slot = 0; slot < config_.slots; ++slot) {
    if (slot != config_.attacker_slot && slot != config_.victim_slot) {
      eligible.push_back(slot);
    }
  }
  uint64_t count = static_cast<uint64_t>(config_.churn_rate * eligible.size());
  count = std::min<uint64_t>(count, eligible.size());
  if (count == 0) {
    return 0;
  }
  // Partial Fisher-Yates seeded by (seed, epoch): the recycled set is a
  // pure function of the spec, independent of thread schedule.
  Rng rng(MixSeed(config_.seed, 0x43485552ULL /* "CHUR" */, epoch));
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t j = i + rng.NextBelow(eligible.size() - i);
    std::swap(eligible[i], eligible[j]);
  }
  eligible.resize(count);
  // Recycle in slot order so FreeFrame/AllocFrame sequences (and thus
  // frame reuse) are deterministic regardless of the shuffle's order.
  std::sort(eligible.begin(), eligible.end());
  for (uint32_t slot : eligible) {
    Slot& entry = slots_[slot];
    FlushSlotLines(slot);
    if (entry.domain != kInvalidDomain) {
      domain_slot_.erase(entry.domain);
      kernel_->DestroyDomain(entry.domain);
    }
    CreateSlot(slot, entry.generation + 1);
    ++churn_events_;
  }
  return count;
}

CoreOp TenantManager::NextOpForSlot(uint32_t slot) {
  Slot& entry = slots_[slot];
  if (entry.stream == nullptr) {
    return CoreOp::Halt();
  }
  return entry.stream->Next();
}

uint32_t TenantManager::SlotOfDomain(DomainId domain) const {
  auto it = domain_slot_.find(domain);
  return it == domain_slot_.end() ? kNoSlot : it->second;
}

void TenantManager::HarvestFlips() {
  MemoryController& mc = kernel_->mc();
  for (uint32_t channel = 0; channel < mc.channels(); ++channel) {
    const std::vector<FlipRecord>& records = mc.device(channel).flip_records();
    for (size_t i = harvest_cursor_[channel]; i < records.size(); ++i) {
      ClassifyFlip(channel, records[i]);
    }
    harvest_cursor_[channel] = records.size();
  }
}

void TenantManager::ClassifyFlip(uint32_t channel, const FlipRecord& flip) {
  ++classified_flips_;
  const std::vector<DomainId> victims =
      kernel_->RowOwners(channel, flip.rank, flip.bank, flip.victim_row);
  const std::vector<DomainId> aggressors =
      kernel_->RowOwners(channel, flip.rank, flip.bank, flip.aggressor_row);
  const uint32_t distance = flip.victim_row > flip.aggressor_row
                                ? flip.victim_row - flip.aggressor_row
                                : flip.aggressor_row - flip.victim_row;
  if (victims.empty()) {
    ++unattributed_flips_;
    if (flip_samples_.size() < kMaxFlipSamples) {
      flip_samples_.push_back({kNoSlot, kNoSlot, distance, false});
    }
    return;
  }
  // A flip escapes when some victim *tenant* owns the flipped row and is
  // not among the aggressor row's owners — i.e. the damage crossed an
  // allocation boundary into another tenant's memory.
  bool escaped = false;
  uint32_t victim_slot = kNoSlot;
  uint32_t aggressor_slot = kNoSlot;
  for (DomainId domain : aggressors) {
    const uint32_t slot = SlotOfDomain(domain);
    if (slot != kNoSlot && aggressor_slot == kNoSlot) {
      aggressor_slot = slot;
    }
  }
  for (DomainId domain : victims) {
    const uint32_t slot = SlotOfDomain(domain);
    if (slot != kNoSlot && victim_slot == kNoSlot) {
      victim_slot = slot;
    }
    if (slot != kNoSlot &&
        std::find(aggressors.begin(), aggressors.end(), domain) == aggressors.end()) {
      escaped = true;
      ++slots_[slot].escaped_received;
    }
  }
  if (escaped) {
    ++escaped_flips_;
  } else {
    ++intra_tenant_flips_;
  }
  if (flip_samples_.size() < kMaxFlipSamples) {
    flip_samples_.push_back({victim_slot, aggressor_slot, distance, escaped});
  }
}

uint64_t TenantManager::tenants_hit() const {
  uint64_t hit = 0;
  for (const Slot& slot : slots_) {
    if (slot.escaped_received > 0) {
      ++hit;
    }
  }
  return hit;
}

uint64_t TenantManager::PageMapFingerprint() const {
  uint64_t hash = kFnvOffset;
  for (uint32_t slot = 0; slot < config_.slots; ++slot) {
    const Slot& entry = slots_[slot];
    hash = FnvMix(hash, slot);
    hash = FnvMix(hash, entry.generation);
    if (entry.domain == kInvalidDomain) {
      hash = FnvMix(hash, ~uint64_t{0});
      continue;
    }
    ForEachPageInOrder(kernel_->space(entry.domain), entry.base, entry.pages,
                       [&hash](uint64_t va_page, uint64_t frame) {
                         hash = FnvMix(hash, va_page);
                         hash = FnvMix(hash, frame);
                       });
  }
  return hash;
}

}  // namespace ht
