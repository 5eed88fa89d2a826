// Multi-tenant cloud host model: workload/mix registries, co-located
// attacker/victim placement, cross-tenant isolation invariants, and the
// churn determinism contract (same seed => byte-identical tenant page
// maps, serial or threaded).
#include "os/tenant.h"

#include <gtest/gtest.h>

#include <sstream>

#include "attack/planner.h"
#include "sim/runner/runner.h"
#include "sim/scenario.h"
#include "sim/sweep/cloud.h"
#include "sim/sweep/speckey.h"
#include "sim/system.h"
#include "sim/workloads.h"

namespace ht {
namespace {

// --- Registries --------------------------------------------------------------

TEST(WorkloadRegistry, EveryKindConstructs) {
  const std::vector<std::string>& kinds = AllWorkloadKinds();
  ASSERT_FALSE(kinds.empty());
  for (const std::string& kind : kinds) {
    EXPECT_TRUE(IsWorkloadKind(kind)) << kind;
    EXPECT_NE(WorkloadFactoryFor(kind), nullptr) << kind;
    WorkloadParams params;
    params.domain = 1;
    params.base = 0x10000;
    params.bytes = 64 * kLineBytes;
    params.total_ops = 32;
    params.seed = 7;
    auto stream = MakeWorkload(kind, params);
    ASSERT_NE(stream, nullptr) << kind;
    const CoreOp op = stream->Next();
    EXPECT_NE(op.kind, CoreOpKind::kHalt) << kind;
  }
  EXPECT_FALSE(IsWorkloadKind("no-such-workload"));
  EXPECT_EQ(WorkloadFactoryFor("no-such-workload"), nullptr);
}

TEST(TenantMixRegistry, MixesNameRegisteredWorkloads) {
  const std::vector<std::string>& mixes = AllTenantMixes();
  ASSERT_FALSE(mixes.empty());
  for (const std::string& mix : mixes) {
    EXPECT_TRUE(IsTenantMix(mix)) << mix;
    const std::vector<MixComponent> components = TenantMixComponents(mix);
    ASSERT_FALSE(components.empty()) << mix;
    for (const MixComponent& component : components) {
      EXPECT_TRUE(IsWorkloadKind(component.kind)) << mix << "/" << component.kind;
      EXPECT_GT(component.weight, 0u) << mix << "/" << component.kind;
    }
  }
  EXPECT_FALSE(IsTenantMix("no-such-mix"));
  EXPECT_TRUE(TenantMixComponents("no-such-mix").empty());
}

// --- Placement ---------------------------------------------------------------

TenantConfig SmallPopulation(uint64_t placement_chunk) {
  TenantConfig config;
  config.slots = 8;
  config.pages_per_slot = 4;
  config.mix = "cloud";
  config.seed = 1;
  config.placement_chunk = placement_chunk;
  if (placement_chunk > 0) {
    config.attacker_pages = 2 * placement_chunk;
    config.victim_pages = placement_chunk;
  }
  config.stream_factory = [](const std::string& kind, DomainId domain, VirtAddr base,
                             uint64_t bytes, uint64_t seed) {
    return MakeWorkload(kind, domain, base, bytes, ~0ull >> 1, seed);
  };
  return config;
}

TEST(TenantPlacement, ColocatedPairYieldsCrossTenantSandwich) {
  System system{SystemConfig{}};
  const uint64_t row_group = PagesPerRowGroup(system.mc().mapper());
  TenantManager tenants(&system.kernel(), &system.llc(),
                        SmallPopulation(row_group));
  ASSERT_TRUE(tenants.Init());
  const DomainId attacker = tenants.DomainOf(0);
  const DomainId victim = tenants.DomainOf(1);
  ASSERT_NE(attacker, kInvalidDomain);
  ASSERT_NE(victim, kInvalidDomain);
  // Interleaved row-group turns put a victim row between two attacker
  // rows — the massaged co-residency a cross-tenant double-sided attack
  // needs under permissive placement.
  EXPECT_TRUE(PlanDoubleSidedCross(system.kernel(), attacker, victim).has_value());
}

TEST(TenantPlacement, ContiguousSlotsDenyTheSandwich) {
  System system{SystemConfig{}};
  TenantManager tenants(&system.kernel(), &system.llc(), SmallPopulation(0));
  ASSERT_TRUE(tenants.Init());
  // Slot-contiguous allocation (4 pages each, a fraction of one row
  // group): the attacker never brackets a victim row.
  EXPECT_FALSE(PlanDoubleSidedCross(system.kernel(), tenants.DomainOf(0),
                                    tenants.DomainOf(1))
                   .has_value());
}

// --- Churn -------------------------------------------------------------------

TEST(TenantChurn, RecyclesEligibleSlotsAndPinsThePair) {
  System system{SystemConfig{}};
  TenantManager tenants(&system.kernel(), &system.llc(), SmallPopulation(0));
  TenantConfig config = SmallPopulation(0);
  config.churn_rate = 0.5;
  TenantManager manager(&system.kernel(), &system.llc(), config);
  ASSERT_TRUE(manager.Init());
  std::vector<DomainId> before;
  for (uint32_t slot = 0; slot < config.slots; ++slot) {
    before.push_back(manager.DomainOf(slot));
  }
  const uint64_t recycled = manager.Churn(/*epoch=*/0);
  EXPECT_EQ(recycled, 3u);  // floor(0.5 * 6 eligible).
  EXPECT_EQ(manager.DomainOf(0), before[0]);  // Attacker pinned.
  EXPECT_EQ(manager.DomainOf(1), before[1]);  // Victim pinned.
  uint32_t replaced = 0;
  for (uint32_t slot = 2; slot < config.slots; ++slot) {
    if (manager.DomainOf(slot) != before[slot]) {
      EXPECT_FALSE(system.kernel().HasDomain(before[slot]));
      EXPECT_TRUE(system.kernel().HasDomain(manager.DomainOf(slot)));
      EXPECT_EQ(manager.GenerationOf(slot), 1u);
      ++replaced;
    }
  }
  EXPECT_EQ(replaced, 3u);
}

TEST(TenantChurn, RecycledSlotsLeaveNoLineInTheCache) {
  System system{SystemConfig{}};
  TenantConfig config = SmallPopulation(0);
  config.churn_rate = 1.0;
  TenantManager manager(&system.kernel(), &system.llc(), config);
  ASSERT_TRUE(manager.Init());
  // A dirty LLC copy of every line every slot maps.
  std::vector<std::vector<PhysAddr>> lines(config.slots);
  for (uint32_t slot = 0; slot < config.slots; ++slot) {
    for (const auto& [va_page, frame] : system.kernel().space(manager.DomainOf(slot)).pages()) {
      for (uint64_t l = 0; l < kLinesPerPage; ++l) {
        const PhysAddr pa = frame * kPageBytes + l * kLineBytes;
        system.llc().Fill(pa, 1, /*dirty=*/true);
        lines[slot].push_back(pa);
      }
    }
    ASSERT_EQ(lines[slot].size(), config.pages_per_slot * kLinesPerPage);
  }
  EXPECT_EQ(manager.Churn(/*epoch=*/0), config.slots - 2);
  for (uint32_t slot = 0; slot < config.slots; ++slot) {
    const bool pinned = slot == config.attacker_slot || slot == config.victim_slot;
    for (PhysAddr pa : lines[slot]) {
      EXPECT_EQ(system.llc().Lookup(pa).has_value(), pinned) << "slot " << slot << " pa " << pa;
    }
  }
}

TEST(TenantChurn, SameSeedChurnsIdentically) {
  auto fingerprint = [](uint64_t epochs) {
    System system{SystemConfig{}};
    TenantConfig config;
    config.slots = 16;
    config.pages_per_slot = 4;
    config.mix = "cloud";
    config.churn_rate = 0.25;
    config.seed = 42;
    TenantManager manager(&system.kernel(), &system.llc(), config);
    EXPECT_TRUE(manager.Init());
    for (uint64_t epoch = 0; epoch < epochs; ++epoch) {
      manager.Churn(epoch);
    }
    return manager.PageMapFingerprint();
  };
  EXPECT_EQ(fingerprint(4), fingerprint(4));
  EXPECT_NE(fingerprint(1), fingerprint(4));  // Churn actually moves pages.
}

// --- Cloud scenario invariants -----------------------------------------------

ScenarioSpec CloudSpec(const char* family_name) {
  ScenarioSpec spec;
  const std::optional<CloudDefenseFamily> family = CloudFamilyByName(family_name);
  EXPECT_TRUE(family.has_value()) << family_name;
  ApplyCloudFamily(spec, *family);
  spec.attack = AttackKind::kDoubleSided;
  spec.run_cycles = 2000000;
  spec.tenants = 96;
  spec.pages_per_tenant = 4;
  spec.traffic_mix = "cloud";
  spec.churn_rate = 0.05;
  spec.epochs = 4;
  spec.seed = 1;
  return spec;
}

TEST(CloudScenario, UndefendedHostLeaksAcrossTenantBoundaries) {
  std::vector<TenantFlipRecord> samples;
  ScenarioHooks hooks;
  hooks.on_tenants = [&samples](const TenantManager& tenants) {
    samples = tenants.flip_samples();
  };
  const ScenarioResult result = RunScenario(CloudSpec("none"), nullptr, &hooks);
  EXPECT_TRUE(result.attack_planned);
  EXPECT_GT(result.escaped_flips, 0u);
  EXPECT_GT(result.tenants_hit, 0u);
  EXPECT_GT(result.churn_events, 0u);
  // Every escaped flip stays within the disturbance blast radius of its
  // aggressor row: escapes come from physical adjacency, nothing else.
  const uint32_t blast = SystemConfig{}.dram.disturbance.blast_radius;
  bool saw_escape = false;
  for (const TenantFlipRecord& record : samples) {
    if (record.escaped) {
      saw_escape = true;
      EXPECT_LE(record.row_distance, blast);
      EXPECT_NE(record.victim_slot, record.aggressor_slot);
    }
  }
  EXPECT_TRUE(saw_escape);
}

TEST(CloudScenario, IsolationCentricPlacementDeniesEscapes) {
  const ScenarioResult result = RunScenario(CloudSpec("isolation"));
  // Subarray-isolated placement breaks the cross-tenant sandwich: the
  // planner reports the denial and no flip crosses a tenant boundary.
  EXPECT_FALSE(result.attack_planned);
  EXPECT_EQ(result.escaped_flips, 0u);
  EXPECT_EQ(result.tenants_hit, 0u);
}

TEST(CloudScenario, SkipIdleMatchesTickingOnTwoChannels) {
  // Idle skipping is a clock optimisation: a two-channel cloud traffic-mix
  // run — multiplexed tenant streams, churn, flip harvesting — must
  // produce the same result document when the System ticks every cycle.
  ScenarioSpec spec = CloudSpec("none");
  spec.run_cycles = 400000;
  spec.system.dram.org.channels = 2;
  ScenarioSpec ticking_spec = spec;
  ticking_spec.system.skip_idle = false;
  const ScenarioResult skipping = RunScenario(spec);
  const ScenarioResult ticking = RunScenario(ticking_spec);
  EXPECT_GT(skipping.churn_events, 0u);
  EXPECT_EQ(skipping.tenant_map_fingerprint, ticking.tenant_map_fingerprint);
  std::ostringstream a;
  std::ostringstream b;
  ScenarioResultToJson(skipping).Dump(a);
  ScenarioResultToJson(ticking).Dump(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(CloudScenario, ChurnDeterminismAcrossSerialAndThreaded) {
  ScenarioSpec spec = CloudSpec("none");
  spec.run_cycles = 200000;  // Determinism, not flips; keep it quick.
  const ScenarioResult serial = RunScenario(spec);
  const std::vector<ScenarioResult> threaded = RunScenarios({spec, spec}, /*threads=*/4);
  ASSERT_EQ(threaded.size(), 2u);
  for (const ScenarioResult& result : threaded) {
    EXPECT_EQ(result.tenant_map_fingerprint, serial.tenant_map_fingerprint);
    std::ostringstream a;
    std::ostringstream b;
    ScenarioResultToJson(serial).Dump(a);
    ScenarioResultToJson(result).Dump(b);
    EXPECT_EQ(a.str(), b.str());
  }
}

// --- Spec plumbing -----------------------------------------------------------

TEST(CloudSpecKey, CanonicalJsonRoundTripsCloudFields) {
  const ScenarioSpec spec = CloudSpec("frequency");
  const JsonValue canonical = SpecCanonicalJson(spec);
  std::string error;
  const std::optional<ScenarioSpec> parsed = SpecFromCanonicalJson(canonical, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->traffic_mix, spec.traffic_mix);
  EXPECT_EQ(parsed->tenants, spec.tenants);
  EXPECT_EQ(parsed->pages_per_tenant, spec.pages_per_tenant);
  EXPECT_DOUBLE_EQ(parsed->churn_rate, spec.churn_rate);
  EXPECT_EQ(parsed->epochs, spec.epochs);
  EXPECT_EQ(SweepKey(*parsed), SweepKey(spec));
}

TEST(CloudFamilies, RegistryNamesRecoverFromCanonicalSpecs) {
  for (const CloudDefenseFamily& family : AllCloudDefenseFamilies()) {
    const ScenarioSpec spec = CloudSpec(family.name.c_str());
    EXPECT_EQ(CloudFamilyNameFor(SpecCanonicalJson(spec)), family.name);
  }
  EXPECT_FALSE(CloudFamilyByName("no-such-family").has_value());
}

}  // namespace
}  // namespace ht
