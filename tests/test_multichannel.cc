// Multi-channel / multi-rank configurations: the full stack must behave
// identically with more parallel resources, and the event-driven
// scheduler must match per-cycle scheduling on every channel.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "attack/hammer.h"
#include "attack/planner.h"
#include "common/rng.h"
#include "mc/controller.h"
#include "sim/scenario.h"
#include "sim/system.h"
#include "sim/workloads.h"

namespace ht {
namespace {

SystemConfig WideConfig() {
  SystemConfig config;
  config.dram.org.channels = 2;
  config.dram.org.ranks = 2;
  config.cores = 4;
  return config;
}

TEST(MultiChannel, MapperBijectiveAcrossChannelsAndRanks) {
  const DramOrg org = WideConfig().dram.org;
  for (InterleaveScheme scheme :
       {InterleaveScheme::kBankSequential, InterleaveScheme::kCacheLine,
        InterleaveScheme::kPermutation, InterleaveScheme::kSubarrayIsolated}) {
    AddressMapper mapper(org, scheme);
    std::set<uint32_t> channels;
    std::set<uint32_t> ranks;
    // Sample densely (fine-grained interleavers change channel/rank in
    // the low bits) and strided (bank-sequential changes them only at
    // coarse boundaries).
    const uint64_t stride = std::max<uint64_t>(1, mapper.total_lines() / 8192);
    for (uint64_t i = 0; i < 16384; ++i) {
      const uint64_t line = i < 8192 ? i : (i - 8192) * stride + (i % 3);
      const DdrCoord coord = mapper.MapLine(line);
      EXPECT_EQ(mapper.LineOf(coord), line) << ToString(scheme);
      channels.insert(coord.channel);
      ranks.insert(coord.rank);
    }
    EXPECT_EQ(channels.size(), 2u) << ToString(scheme);
    EXPECT_EQ(ranks.size(), 2u) << ToString(scheme);
  }
}

TEST(MultiChannel, BenignRunSpreadsTrafficAndStaysClean) {
  System system(WideConfig());
  auto tenants = SetupTenants(system, 4, 256);
  for (uint32_t i = 0; i < 4; ++i) {
    system.AssignCore(i, tenants[i],
                      MakeWorkload("random", tenants[i], AddressSpace::BaseFor(tenants[i]),
                                   256 * kPageBytes, 100000, 21 + i));
  }
  system.RunFor(500000);
  // Both channels served traffic.
  EXPECT_GT(system.mc().device(0).stats().Get("dram.reads"), 100u);
  EXPECT_GT(system.mc().device(1).stats().Get("dram.reads"), 100u);
  const SecurityOutcome outcome = Assess(system);
  EXPECT_EQ(outcome.flip_events, 0u);
  EXPECT_EQ(outcome.corrupted_lines, 0u);
}

TEST(MultiChannel, RefreshCoversEveryChannelAndRank) {
  System system(WideConfig());
  system.RunFor(system.config().dram.retention.refresh_window + 2000);
  for (uint32_t c = 0; c < 2; ++c) {
    EXPECT_EQ(system.mc().device(c).CountRetentionViolations(system.now()), 0u)
        << "channel " << c;
  }
}

TEST(MultiChannel, AttackAndDefenseWorkOnAnyChannel) {
  SystemConfig config = WideConfig();
  ApplyDefensePreset(config, DefenseKind::kSwRefresh, 256);
  System system(config);
  auto tenants = SetupTenants(system, 2, 512);
  system.InstallDefense(MakeDefense(DefenseKind::kSwRefresh, config.dram));
  auto plan = PlanDoubleSidedCross(system.kernel(), tenants[0], tenants[1]);
  ASSERT_TRUE(plan.has_value());
  HammerConfig hammer;
  hammer.aggressors = plan->aggressor_vas;
  system.AssignCore(0, tenants[0], std::make_unique<HammerStream>(hammer));
  system.RunFor(800000);
  EXPECT_EQ(Assess(system).cross_domain_flips, 0u);
  EXPECT_GT(system.defense()->stats().Get("defense.victim_refreshes"), 0u);
}

// --- Event-driven scheduling identity fuzz ---------------------------------
//
// Drives two identical MemoryControllers with the same randomized request
// and refresh-instruction mix in fixed windows: one event-driven (memo
// scans, exact NextWake), one scanning every cycle while work is queued.
// Everything observable — counters, latency histograms, per-channel
// device stats, flip events — must match bit-for-bit; only the wake
// telemetry, which counts the scans themselves, may differ.

struct FuzzParams {
  uint64_t seed = 0;
  uint32_t channels = 2;
  uint32_t ranks = 1;
  bool per_bank_refresh = false;
};

DramConfig FuzzDramConfig(const FuzzParams& params) {
  DramConfig dram = DramConfig::SimDefault();
  dram.org.channels = params.channels;
  dram.org.ranks = params.ranks;
  dram.retention.per_bank_refresh = params.per_bank_refresh;
  // Small enough that several refresh periods land inside the run.
  dram.retention.refresh_window = 100000;
  dram.retention.ref_commands_per_window = 64;
  return dram;
}

McConfig FuzzMcConfig(bool event_driven) {
  McConfig mc;
  mc.event_driven = event_driven;
  return mc;
}

// Identical enqueue decisions for both controllers: requests are drawn
// once per window from a same-seeded Rng and offered to each controller
// at the window-start cycle.
std::vector<MemRequest> DrawWindowRequests(Rng& rng, const AddressMapper& mapper) {
  std::vector<MemRequest> batch;
  const uint64_t count = rng.NextBelow(24);
  const PhysAddr span = mapper.total_lines() * kLineBytes;
  for (uint64_t i = 0; i < count; ++i) {
    MemRequest request;
    request.id = rng.Next();
    request.op = rng.NextBool(0.3) ? MemOp::kWrite : MemOp::kRead;
    request.addr = (rng.NextBelow(span) / kLineBytes) * kLineBytes;
    request.write_value = rng.Next();
    batch.push_back(request);
  }
  return batch;
}

// Wake telemetry: one entry per channel scan, so it counts the very
// scans event-driven mode exists to skip.
bool IsWakeTelemetry(const std::string& name) {
  return name == "mc.wake_batches" || name == "mc.cmds_per_wake";
}

void RunEventDrivenFuzzCase(const FuzzParams& params) {
  const DramConfig dram = FuzzDramConfig(params);
  MemoryController event(dram, FuzzMcConfig(true));
  MemoryController legacy(dram, FuzzMcConfig(false));
  std::vector<RefreshDone> event_done;
  std::vector<RefreshDone> legacy_done;

  Rng rng(params.seed);
  const Cycle window = 1500;
  const uint32_t windows = 40;
  for (uint32_t w = 0; w < windows; ++w) {
    const Cycle wstart = static_cast<Cycle>(w) * window;
    const Cycle wend = wstart + window;
    for (const MemRequest& request : DrawWindowRequests(rng, event.mapper())) {
      const bool a = event.Enqueue(request, wstart);
      const bool b = legacy.Enqueue(request, wstart);
      ASSERT_EQ(a, b) << "enqueue diverged in window " << w;
    }
    if (rng.NextBool(0.2)) {
      const PhysAddr addr = rng.NextBelow(event.mapper().total_lines()) * kLineBytes;
      const bool auto_pre = rng.NextBool(0.5);
      const bool a = event.RefreshRow(addr, auto_pre, wstart,
                                      [&](const RefreshDone& done) { event_done.push_back(done); });
      const bool b = legacy.RefreshRow(
          addr, auto_pre, wstart, [&](const RefreshDone& done) { legacy_done.push_back(done); });
      ASSERT_EQ(a, b) << "refresh-row diverged in window " << w;
    }
    // Both visit their own NextWake cycles: the event-driven one skips
    // straight to its next issueable cycle, the legacy one returns `now`
    // while any queue holds work.
    for (MemoryController* mc : {&event, &legacy}) {
      for (Cycle t = wstart; t < wend;) {
        mc->Tick(t);
        t = std::max(t + 1, std::min(mc->NextWake(t), wend));
      }
    }
  }

  const StatSet& a = event.stats();
  const StatSet& b = legacy.stats();
  ASSERT_EQ(a.counters().size(), b.counters().size());
  for (const auto& [name, counter] : a.counters()) {
    if (!IsWakeTelemetry(name)) {
      EXPECT_EQ(counter.value(), b.Get(name)) << "counter " << name;
    }
  }
  ASSERT_EQ(a.histograms().size(), b.histograms().size());
  for (const auto& [name, histogram] : a.histograms()) {
    const Histogram* other = b.GetHistogram(name);
    ASSERT_NE(other, nullptr) << "histogram " << name;
    if (!IsWakeTelemetry(name)) {
      EXPECT_TRUE(histogram == *other) << "histogram " << name;
    }
  }
  for (uint32_t c = 0; c < params.channels; ++c) {
    EXPECT_EQ(event.device(c).stats().ToString(), legacy.device(c).stats().ToString())
        << "device stats diverged on channel " << c;
  }
  EXPECT_EQ(event.TotalFlipEvents(), legacy.TotalFlipEvents());
  ASSERT_EQ(event_done.size(), legacy_done.size());
  for (size_t i = 0; i < event_done.size(); ++i) {
    EXPECT_EQ(event_done[i].completed, legacy_done[i].completed) << "refresh " << i;
  }
  // The fuzz exercised the scheduler, and the event mode skipped scans.
  EXPECT_GT(a.Get("mc.reads_done"), 0u);
  EXPECT_LT(a.Get("mc.wake_batches"), b.Get("mc.wake_batches"));
}

TEST(MultiChannelFuzz, TwoChannelEventDrivenMatchesPerCycle) {
  RunEventDrivenFuzzCase({/*seed=*/1001, /*channels=*/2, /*ranks=*/1, /*per_bank_refresh=*/false});
  RunEventDrivenFuzzCase({/*seed=*/1002, /*channels=*/2, /*ranks=*/2, /*per_bank_refresh=*/false});
}

TEST(MultiChannelFuzz, FourChannelEventDrivenMatchesPerCycle) {
  RunEventDrivenFuzzCase({/*seed=*/2001, /*channels=*/4, /*ranks=*/1, /*per_bank_refresh=*/false});
  RunEventDrivenFuzzCase({/*seed=*/2002, /*channels=*/4, /*ranks=*/2, /*per_bank_refresh=*/true});
}

TEST(MultiChannelFuzz, SingleChannelEventDrivenMatchesPerCycle) {
  RunEventDrivenFuzzCase({/*seed=*/3001, /*channels=*/1, /*ranks=*/2, /*per_bank_refresh=*/true});
}

TEST(MultiChannelFuzz, PerBankRefreshEventDrivenMatchesPerCycle) {
  RunEventDrivenFuzzCase({/*seed=*/4001, /*channels=*/2, /*ranks=*/1, /*per_bank_refresh=*/true});
}

TEST(MultiChannelFuzz, FourChannelSingleRankEventDrivenMatchesPerCycle) {
  RunEventDrivenFuzzCase({/*seed=*/6001, /*channels=*/4, /*ranks=*/1, /*per_bank_refresh=*/false});
  RunEventDrivenFuzzCase({/*seed=*/6002, /*channels=*/4, /*ranks=*/1, /*per_bank_refresh=*/true});
}

TEST(MultiChannelFuzz, EightChannelEventDrivenMatchesPerCycle) {
  for (const uint64_t seed : {5001u, 5002u, 5004u, 5008u}) {
    RunEventDrivenFuzzCase({seed, /*channels=*/8, /*ranks=*/1, /*per_bank_refresh=*/false});
  }
}

TEST(MultiChannelFuzz, EightChannelPerBankRefreshEventDrivenMatchesPerCycle) {
  RunEventDrivenFuzzCase({/*seed=*/7001, /*channels=*/8, /*ranks=*/2, /*per_bank_refresh=*/true});
}

TEST(MultiChannel, UndefendedAttackFlipsOnWideSystem) {
  System system(WideConfig());
  auto tenants = SetupTenants(system, 2, 512);
  auto plan = PlanDoubleSidedCross(system.kernel(), tenants[0], tenants[1]);
  ASSERT_TRUE(plan.has_value());
  HammerConfig hammer;
  hammer.aggressors = plan->aggressor_vas;
  system.AssignCore(0, tenants[0], std::make_unique<HammerStream>(hammer));
  system.RunFor(800000);
  EXPECT_GT(Assess(system).cross_domain_flips, 0u);
}

}  // namespace
}  // namespace ht
