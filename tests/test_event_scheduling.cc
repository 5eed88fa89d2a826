// Differential checks for the event-driven busy-phase scheduler: the
// event mode (exact NextWake during busy phases, memo-gated channel
// scans, interval-accounted core stalls) must be an optimization only —
// identical command streams, flips, and stats to the per-cycle legacy
// mode, with the scheduler's own telemetry the lone permitted difference.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "attack/hammer.h"
#include "attack/planner.h"
#include "check/sched_ref.h"
#include "common/rng.h"
#include "mc/controller.h"
#include "mc/mitigations.h"
#include "sim/scenario.h"
#include "sim/system.h"
#include "sim/workloads.h"

namespace ht {
namespace {

// Stats whose whole purpose is to measure the scheduling mechanism; they
// legitimately differ between the event and legacy wake patterns (the
// cmds_per_wake histogram counts one entry per channel scan, so legacy
// mode's every-cycle scans dwarf the event mode's).
bool IsSchedulerTelemetry(const std::string& name) {
  return name == "mc.wake_batches" || name == "mc.cmds_per_wake";
}

// Nothing is exempt: a comparison whose two sides scan the same cycles.
bool NoExemptions(const std::string&) { return false; }

void ExpectStatsIdentical(const StatSet& a, const StatSet& b,
                          bool (*exempt)(const std::string&) = IsSchedulerTelemetry) {
  ASSERT_EQ(a.counters().size(), b.counters().size());
  for (const auto& [name, counter] : a.counters()) {
    if (exempt(name)) {
      continue;
    }
    EXPECT_EQ(counter.value(), b.Get(name)) << "counter " << name;
  }
  ASSERT_EQ(a.histograms().size(), b.histograms().size());
  for (const auto& [name, histogram] : a.histograms()) {
    if (exempt(name)) {
      continue;
    }
    const Histogram* other = b.GetHistogram(name);
    ASSERT_NE(other, nullptr) << "histogram " << name;
    EXPECT_TRUE(histogram == *other) << "histogram " << name;
  }
}

enum class Hw { kNone, kBlockHammer, kGraphene };

struct VariantOutcome {
  StatSet stats;
  uint64_t flips = 0;
  uint64_t ops = 0;
  Cycle end = 0;
  uint64_t wake_batches = 0;
};

// One hammer core plus one benign streaming core (row conflicts, window
// stalls, and MC backpressure all get exercised), run for `cycles`.
VariantOutcome RunVariant(bool event_driven, Hw hw, bool per_bank_refresh, Cycle cycles) {
  SystemConfig config;
  config.cores = 2;
  config.core.window = 2;  // Small window: force window-stall intervals.
  config.mc.event_driven = event_driven;
  config.core.event_driven = event_driven;
  config.dram.retention.per_bank_refresh = per_bank_refresh;
  // Shrink the refresh window so mitigation epochs roll over in-test.
  config.dram.retention.refresh_window = 200000;
  config.dram.retention.ref_commands_per_window = 64;

  System system(config);
  switch (hw) {
    case Hw::kNone:
      break;
    case Hw::kBlockHammer:
      // Throttling puts ACT-gate answers into the scan memos.
      system.mc().InstallMitigation(std::make_unique<BlockHammerMitigation>(
          config.dram.org, config.dram.retention, config.dram.disturbance,
          BlockHammerConfig{}));
      break;
    case Hw::kGraphene:
      // Neighbour refreshes exercise the internal-op stage.
      system.mc().InstallMitigation(std::make_unique<GrapheneMitigation>(
          config.dram.org, config.dram.disturbance, GrapheneConfig{}));
      break;
  }

  auto tenants = SetupTenants(system, 2, /*pages_each=*/512);
  auto plan = PlanDoubleSidedCross(system.kernel(), tenants[0], tenants[1]);
  HammerConfig hammer;
  if (plan.has_value()) {
    hammer.aggressors = plan->aggressor_vas;
  }
  system.AssignCore(0, tenants[0], std::make_unique<HammerStream>(hammer));
  system.AssignCore(1, tenants[1],
                    MakeWorkload("stream", tenants[1], AddressSpace::BaseFor(tenants[1]),
                                 512 * kPageBytes, 50000, 8));
  system.RunFor(cycles);

  VariantOutcome outcome;
  outcome.stats = system.CollectStats();
  outcome.flips = system.TotalFlips();
  outcome.ops = system.TotalOpsCompleted();
  outcome.end = system.now();
  outcome.wake_batches = outcome.stats.Get("mc.wake_batches");
  return outcome;
}

void ExpectVariantsMatch(Hw hw, bool per_bank_refresh, Cycle cycles) {
  const VariantOutcome event = RunVariant(true, hw, per_bank_refresh, cycles);
  const VariantOutcome legacy = RunVariant(false, hw, per_bank_refresh, cycles);
  EXPECT_EQ(event.end, legacy.end);
  EXPECT_EQ(event.flips, legacy.flips);
  EXPECT_EQ(event.ops, legacy.ops);
  ExpectStatsIdentical(event.stats, legacy.stats);
  // The fast path must actually engage: strictly fewer scheduling wakes.
  EXPECT_LT(event.wake_batches, legacy.wake_batches);
}

TEST(EventScheduling, MatchesLegacyOnHammerPlusStream) {
  ExpectVariantsMatch(Hw::kNone, false, 400000);
}

TEST(EventScheduling, MatchesLegacyUnderBlockHammerThrottle) {
  ExpectVariantsMatch(Hw::kBlockHammer, false, 450000);
}

TEST(EventScheduling, MatchesLegacyUnderGrapheneWithPerBankRefresh) {
  ExpectVariantsMatch(Hw::kGraphene, true, 450000);
}

// Two-channel system with finite benign workloads: a busy phase, then a
// refresh-only tail that idle skipping jumps through.
VariantOutcome RunTwoChannelVariant(bool skip_idle, Cycle cycles) {
  SystemConfig config;
  config.cores = 2;
  config.core.window = 2;
  config.dram.org.channels = 2;
  config.skip_idle = skip_idle;
  config.dram.retention.refresh_window = 200000;
  config.dram.retention.ref_commands_per_window = 64;

  System system(config);
  auto tenants = SetupTenants(system, 2, /*pages_each=*/512);
  for (uint32_t i = 0; i < 2; ++i) {
    system.AssignCore(i, tenants[i],
                      MakeWorkload("stream", tenants[i], AddressSpace::BaseFor(tenants[i]),
                                   512 * kPageBytes, 20000, 8));
  }
  system.RunFor(cycles);

  VariantOutcome outcome;
  outcome.stats = system.CollectStats();
  outcome.flips = system.TotalFlips();
  outcome.ops = system.TotalOpsCompleted();
  outcome.end = system.now();
  outcome.wake_batches = outcome.stats.Get("mc.wake_batches");
  return outcome;
}

TEST(EventScheduling, SkipIdleMatchesTickingOnTwoChannels) {
  const VariantOutcome skipping = RunTwoChannelVariant(true, 600000);
  const VariantOutcome ticking = RunTwoChannelVariant(false, 600000);
  EXPECT_EQ(skipping.end, ticking.end);
  EXPECT_EQ(skipping.flips, ticking.flips);
  EXPECT_EQ(skipping.ops, ticking.ops);
  EXPECT_GT(skipping.ops, 0u);
  // Wake telemetry included: each channel's scan memo, not the System
  // clock, decides when it scans, so both runs scan the same cycles.
  ExpectStatsIdentical(skipping.stats, ticking.stats, NoExemptions);
  EXPECT_EQ(skipping.wake_batches, ticking.wake_batches);
}

TEST(EventScheduling, StallCountersSurviveRepeatedCollection) {
  SystemConfig config;
  config.cores = 1;
  config.core.window = 2;
  System system(config);
  auto tenants = SetupTenants(system, 1, 512);
  system.AssignCore(0, tenants[0],
                    MakeWorkload("stream", tenants[0], AddressSpace::BaseFor(tenants[0]),
                                 512 * kPageBytes, 20000, 8));
  system.RunFor(150000);
  // SyncStallStats is idempotent: collecting twice (possibly mid-stall)
  // must not double-count the open interval.
  const uint64_t first = system.CollectStats().Get("core.window_stalls");
  const uint64_t second = system.CollectStats().Get("core.window_stalls");
  EXPECT_GT(first, 0u);  // The small window actually stalled.
  EXPECT_EQ(first, second);
}

// The tentpole contract: even while queues hold work, NextWake names the
// exact next-issueable cycle — every strictly earlier tick leaves the
// device untouched, and progress still happens (the queue drains).
TEST(EventScheduling, NextWakeIsExactDuringBusyPhases) {
  const DramConfig dram = DramConfig::SimDefault();
  McConfig mc_config;
  mc_config.event_driven = true;
  MemoryController mc(dram, mc_config);

  // Same bank, distinct rows: every access conflicts, so the channel
  // spends most cycles timing-blocked between ACT/PRE/RD commands.
  const AddressMapper& mapper = mc.mapper();
  std::vector<PhysAddr> addrs;
  uint32_t last_row = ~0u;
  for (PhysAddr addr = 0; addrs.size() < 16 && addr < mapper.total_lines() * kLineBytes;
       addr += kLineBytes) {
    const DdrCoord coord = mapper.Map(addr);
    if (coord.channel == 0 && coord.rank == 0 && coord.bank == 0 && coord.row != last_row) {
      addrs.push_back(addr);
      last_row = coord.row;
    }
  }
  ASSERT_EQ(addrs.size(), 16u);

  Cycle now = 0;
  size_t next_addr = 0;
  uint64_t busy_skips = 0;
  auto device_snapshot = [&mc]() { return mc.device(0).stats().ToString(); };
  while (now < 200000 && (next_addr < addrs.size() || !mc.Idle())) {
    if (next_addr < addrs.size()) {
      MemRequest request;
      request.id = next_addr;
      request.op = MemOp::kRead;
      request.addr = addrs[next_addr];
      if (mc.Enqueue(request, now)) {
        ++next_addr;
      }
    }
    mc.Tick(now);
    const Cycle wake = mc.NextWake(now);
    ASSERT_GE(wake, now);
    if (wake > now + 1) {
      if (mc.QueuedRequests() > 0) {
        ++busy_skips;  // NextWake skipped ahead while work was queued.
      }
      const std::string before = device_snapshot();
      for (Cycle t = now + 1; t < wake; ++t) {
        mc.Tick(t);
        ASSERT_EQ(device_snapshot(), before)
            << "command issued at " << t << " before NextWake=" << wake;
      }
      now = wake;
    } else {
      ++now;
    }
  }
  EXPECT_TRUE(mc.Idle());
  EXPECT_GT(busy_skips, 0u);
}

// --- Per-bank scheduler vs. the reference three-pass scan --------------------

enum class SchedHw { kNone, kPara, kBlockHammer };

struct SchedCase {
  uint32_t ranks = 1;
  bool per_bank_refresh = false;
  bool open_page = true;
  SchedHw hw = SchedHw::kNone;
  uint32_t depth = 32;          // Queue capacity, kept full.
  uint32_t write_percent = 30;  // Read/write mix.
};

std::string Describe(const SchedCase& c) {
  static const char* const kHw[] = {"none", "para", "blockhammer"};
  return std::to_string(c.ranks) + " rank(s), " + (c.per_bank_refresh ? "REFsb" : "REFab") +
         ", " + (c.open_page ? "open" : "closed") + " page, " +
         kHw[static_cast<int>(c.hw)] + ", depth " + std::to_string(c.depth) + ", " +
         std::to_string(c.write_percent) + "% writes";
}

// Drives a bare controller with skewed traffic — most requests hit two
// banks and four rows per bank, so hits, conflicts and same-bank queues
// are common — and checks every scan against the reference.
void RunSchedulerCheck(const SchedCase& c, Cycle cycles, SchedulerOracle& oracle) {
  DramConfig dram = DramConfig::SimDefault();
  dram.org.ranks = c.ranks;
  dram.retention.per_bank_refresh = c.per_bank_refresh;
  dram.retention.refresh_window = 1u << 18;  // REF every 4096 cycles.
  dram.retention.ref_commands_per_window = 64;
  McConfig mc_config;
  mc_config.open_page = c.open_page;
  mc_config.queue_capacity = c.depth;
  MemoryController mc(dram, mc_config);
  switch (c.hw) {
    case SchedHw::kNone:
      break;
    case SchedHw::kPara: {
      ParaConfig para;
      para.refresh_probability = 0.1;  // Neighbour refreshes preempt requests.
      mc.InstallMitigation(std::make_unique<ParaMitigation>(dram.org, para));
      break;
    }
    case SchedHw::kBlockHammer: {
      BlockHammerConfig bh;
      bh.blacklist_threshold = 8;
      bh.throttle_delay = 500;
      mc.InstallMitigation(std::make_unique<BlockHammerMitigation>(
          dram.org, dram.retention, dram.disturbance, bh));
      break;
    }
  }
  mc.set_response_handler([](const MemResponse&) {});
  mc.set_sched_check_observer(&oracle);

  Rng rng(c.depth * 131 + c.write_percent);
  const uint32_t banks = dram.org.ranks * dram.org.banks;
  uint64_t id = 0;
  for (Cycle now = 0; now < cycles;) {
    while (mc.QueuedRequests() < c.depth) {
      const uint32_t b =
          rng.NextBool(0.6) ? static_cast<uint32_t>(rng.NextBelow(2)) * (banks - 1)
                            : static_cast<uint32_t>(rng.NextBelow(banks));
      DdrCoord coord;
      coord.rank = b / dram.org.banks;
      coord.bank = b % dram.org.banks;
      coord.row = 100 + static_cast<uint32_t>(rng.NextBelow(4)) * 3;
      coord.column = static_cast<uint32_t>(rng.NextBelow(dram.org.columns));
      MemRequest request;
      request.id = ++id;
      request.op = rng.NextBelow(100) < c.write_percent ? MemOp::kWrite : MemOp::kRead;
      request.addr = mc.mapper().AddrOf(coord);
      if (!mc.Enqueue(request, now)) {
        break;
      }
    }
    mc.Tick(now);
    now = std::max(now + 1, mc.NextWake(now + 1));
  }
  mc.set_sched_check_observer(nullptr);
}

TEST(EventScheduling, PerBankPicksMatchReferenceScanOnEveryScan) {
  constexpr uint32_t kDepths[] = {8, 16, 32, 64};
  constexpr uint32_t kWritePercents[] = {5, 50, 90};
  uint64_t scans = 0;
  uint64_t by_kind[4] = {0, 0, 0, 0};
  uint64_t throttled = 0;
  uint64_t draining = 0;
  uint64_t memos = 0;
  uint64_t gated_memos = 0;
  size_t variant = 0;
  for (const uint32_t ranks : {1u, 2u}) {
    for (const bool per_bank_refresh : {false, true}) {
      for (const bool open_page : {true, false}) {
        for (const SchedHw hw : {SchedHw::kNone, SchedHw::kPara, SchedHw::kBlockHammer}) {
          // Two (depth, mix) points per configuration, rotating so every
          // depth and mix meets every other axis across the matrix.
          for (int rep = 0; rep < 2; ++rep, ++variant) {
            SchedCase c;
            c.ranks = ranks;
            c.per_bank_refresh = per_bank_refresh;
            c.open_page = open_page;
            c.hw = hw;
            c.depth = kDepths[variant % 4];
            c.write_percent = kWritePercents[variant % 3];
            SchedulerOracle oracle;
            // Throttled BlockHammer traffic issues (and so scans) slower.
            RunSchedulerCheck(c, hw == SchedHw::kBlockHammer ? 40000 : 20000, oracle);
            EXPECT_TRUE(oracle.ok()) << Describe(c) << "\n" << oracle.Report();
            EXPECT_GT(oracle.scans_checked(), 1000u) << Describe(c);
            scans += oracle.scans_checked();
            for (size_t k = 0; k < 4; ++k) {
              by_kind[k] += oracle.picks_by_kind()[k];
            }
            throttled += oracle.gate_bound_picks();
            draining += oracle.draining_scans();
            memos += oracle.memos_checked();
            if (hw == SchedHw::kBlockHammer) {
              gated_memos += oracle.memos_checked();
            }
          }
        }
      }
    }
  }
  // The matrix reached every outcome the scan can have.
  EXPECT_GT(by_kind[static_cast<size_t>(SchedPick::Kind::kNone)], 0u);
  EXPECT_GT(by_kind[static_cast<size_t>(SchedPick::Kind::kHit)], 0u);
  EXPECT_GT(by_kind[static_cast<size_t>(SchedPick::Kind::kAct)], 0u);
  EXPECT_GT(by_kind[static_cast<size_t>(SchedPick::Kind::kPre)], 0u);
  EXPECT_GT(throttled, 0u);
  EXPECT_GT(draining, 0u);
  EXPECT_GT(scans, 0u);
  EXPECT_GT(memos, 0u);  // Issue and enqueue memos were checked too,
  EXPECT_GT(gated_memos, 0u);  // also behind a gate that throttles.
}

// The oracle is not vacuous: a doctored pick, a pick that ignores a
// closed bank's ACT-gate deadline, and a memo past that deadline are
// reported.
TEST(EventScheduling, SchedulerOracleFlagsDivergentPicks) {
  const DramConfig dram = DramConfig::SimDefault();
  SchedScan scan;
  scan.now = 100;
  scan.banks = dram.org.banks;
  scan.timing.emplace(dram.org, dram.timing, false);
  scan.queue.push_back({0, DdrCoord{0, 0, 1, 7, 0}, MemOp::kRead});
  scan.queue.push_back({1, DdrCoord{0, 0, 2, 9, 0}, MemOp::kRead});
  const SchedPick ref = ReferenceSchedPick(scan);
  ASSERT_EQ(ref.kind, SchedPick::Kind::kAct);
  EXPECT_EQ(ref.seq, 0u);
  EXPECT_FALSE(ref.gate_bound);

  SchedulerOracle oracle;
  oracle.OnScan(scan, ref);
  EXPECT_TRUE(oracle.ok()) << oracle.Report();
  SchedPick younger = ref;
  younger.seq = 1;
  younger.cmd = DdrCommand::Act(0, 2, 9);
  oracle.OnScan(scan, younger);
  EXPECT_EQ(oracle.total_divergences(), 1u);

  // The oldest bank's ACT is held until cycle 900, so the reference takes
  // the younger bank's; the oldest one is the pick that ignores the gate.
  scan.queue[0].act_allowed = 900;
  const SchedPick gated = ReferenceSchedPick(scan);
  EXPECT_EQ(gated.seq, 1u);
  EXPECT_FALSE(gated.gate_bound);
  oracle.OnScan(scan, gated);
  EXPECT_EQ(oracle.total_divergences(), 1u) << oracle.Report();
  oracle.OnScan(scan, ref);
  EXPECT_EQ(oracle.total_divergences(), 2u);

  // Released at its deadline, the ACT is gate-bound: the gate, not
  // timing, held it.
  scan.now = 900;
  const SchedPick released = ReferenceSchedPick(scan);
  EXPECT_EQ(released.seq, 0u);
  EXPECT_TRUE(released.gate_bound);
  SchedPick unbound = released;
  unbound.gate_bound = false;
  oracle.OnScan(scan, unbound);
  EXPECT_EQ(oracle.total_divergences(), 3u);

  // A memo may claim cycles up to the deadline, not the cycle it releases.
  scan.queue.pop_back();
  SchedulerOracle memos;
  scan.now = 899;  // A memo of 900: the ACT is still held on its last claimed cycle.
  memos.OnMemo(scan, SchedMemoKind::kIssue);
  EXPECT_TRUE(memos.ok()) << memos.Report();
  scan.now = 900;  // A memo of 901 claims the cycle the ACT is released.
  memos.OnMemo(scan, SchedMemoKind::kIssue);
  EXPECT_EQ(memos.total_divergences(), 1u);
}

// A memo claims no request issues before it; the oracle checks the claim
// on its last cycle, so a memo past a legal ACT is reported.
TEST(EventScheduling, SchedulerOracleFlagsMemosPastALegalCommand) {
  const DramConfig dram = DramConfig::SimDefault();
  SchedScan scan;
  scan.now = 100;  // The memo's last claimed cycle.
  scan.banks = dram.org.banks;
  scan.timing.emplace(dram.org, dram.timing, false);
  SchedulerOracle oracle;
  oracle.OnMemo(scan, SchedMemoKind::kIssue);  // Empty queue: nothing to issue.
  EXPECT_TRUE(oracle.ok()) << oracle.Report();
  scan.queue.push_back({0, DdrCoord{0, 0, 1, 7, 0}, MemOp::kRead});
  oracle.OnMemo(scan, SchedMemoKind::kEnqueue);
  EXPECT_EQ(oracle.total_divergences(), 1u);
  EXPECT_EQ(oracle.memos_checked(), 2u);
}

// Fault injection: past `break_after` scans the reference ignores the
// drain mask, so a draining scan that rightly picks nothing diverges.
TEST(EventScheduling, SchedulerOracleInjectionDropsTheDrainMask) {
  const DramConfig dram = DramConfig::SimDefault();
  SchedScan scan;
  scan.now = 100;
  scan.banks = dram.org.banks;
  scan.due_slots = 1;  // Rank 0 is draining for REF.
  scan.timing.emplace(dram.org, dram.timing, false);
  scan.queue.push_back({0, DdrCoord{0, 0, 1, 7, 0}, MemOp::kRead});
  const SchedPick ref = ReferenceSchedPick(scan);
  ASSERT_EQ(ref.kind, SchedPick::Kind::kNone);

  SchedulerOracle oracle(/*max_divergences=*/16, /*break_after=*/1);
  oracle.OnScan(scan, ref);
  EXPECT_TRUE(oracle.ok()) << oracle.Report();
  oracle.OnScan(scan, ref);
  EXPECT_EQ(oracle.total_divergences(), 1u);
}

}  // namespace
}  // namespace ht
