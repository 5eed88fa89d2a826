#include "mc/controller.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dram/check_hooks.h"

namespace ht {
namespace {

// Records every command the device accepted, in issue order.
class CommandLog final : public DeviceCheckObserver {
 public:
  struct Entry {
    DdrCommand cmd;
    Cycle at = 0;
  };

  void OnCommand(const DdrCommand&, Cycle, TimingVerdict, uint32_t) override {}
  void OnRepair(uint32_t, uint32_t, uint32_t, Cycle) override {}
  void OnFlip(uint32_t, uint32_t, uint32_t, uint32_t, Cycle) override {}
  void OnCommandApplied(const DdrCommand& cmd, Cycle now) override {
    entries.push_back({cmd, now});
  }

  // Index of the first command at or after `from` with this type (and,
  // for bank-addressed commands, this bank); entries.size() if none.
  size_t Find(DdrCommandType type, uint32_t bank, size_t from = 0) const {
    for (size_t i = from; i < entries.size(); ++i) {
      const DdrCommand& cmd = entries[i].cmd;
      const bool rank_wide =
          type == DdrCommandType::kPrechargeAll || type == DdrCommandType::kRefresh;
      if (cmd.type == type && (rank_wide || cmd.bank == bank)) {
        return i;
      }
    }
    return entries.size();
  }

  // Index of the first command at or after `from` on `bank` (any type).
  size_t FindBank(uint32_t bank, size_t from) const {
    for (size_t i = from; i < entries.size(); ++i) {
      if (entries[i].cmd.bank == bank && entries[i].cmd.type != DdrCommandType::kPrechargeAll &&
          entries[i].cmd.type != DdrCommandType::kRefresh) {
        return i;
      }
    }
    return entries.size();
  }

  std::vector<Entry> entries;
};

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() { Rebuild(DramConfig::SimDefault(), McConfig{}); }

  void Rebuild(const DramConfig& dram, const McConfig& mc_config) {
    mc_ = std::make_unique<MemoryController>(dram, mc_config);
    responses_.clear();
    mc_->set_response_handler([this](const MemResponse& r) { responses_.push_back(r); });
    log_.entries.clear();
    mc_->device(0).set_check_observer(&log_);
  }

  // Ticks until the device has accepted `count` commands in total.
  void RunUntilCommands(size_t count) {
    const Cycle limit = now_ + 100000;
    while (log_.entries.size() < count && now_ < limit) {
      mc_->Tick(now_++);
    }
    ASSERT_GE(log_.entries.size(), count);
  }

  // Address of (rank, bank, row, column) on channel 0.
  PhysAddr At(uint32_t rank, uint32_t bank, uint32_t row, uint32_t column) const {
    return mc_->mapper().AddrOf(DdrCoord{0, rank, bank, row, column});
  }

  void RunFor(Cycle cycles) {
    const Cycle end = now_ + cycles;
    for (; now_ < end; ++now_) {
      mc_->Tick(now_);
    }
  }

  MemRequest Read(PhysAddr addr, DomainId domain = 1) {
    MemRequest r;
    r.id = next_id_++;
    r.op = MemOp::kRead;
    r.addr = addr;
    r.domain = domain;
    return r;
  }

  MemRequest Write(PhysAddr addr, uint64_t value, DomainId domain = 1) {
    MemRequest r = Read(addr, domain);
    r.op = MemOp::kWrite;
    r.write_value = value;
    return r;
  }

  std::unique_ptr<MemoryController> mc_;
  std::vector<MemResponse> responses_;
  CommandLog log_;
  Cycle now_ = 0;
  uint64_t next_id_ = 1;
};

TEST_F(ControllerTest, WriteThenReadReturnsValue) {
  ASSERT_TRUE(mc_->Enqueue(Write(0x1000, 0xCAFE), now_));
  RunFor(200);
  ASSERT_TRUE(mc_->Enqueue(Read(0x1000), now_));
  RunFor(200);
  ASSERT_EQ(responses_.size(), 2u);
  EXPECT_EQ(responses_[0].op, MemOp::kWrite);
  EXPECT_EQ(responses_[1].op, MemOp::kRead);
  EXPECT_EQ(responses_[1].read_value, 0xCAFEu);
  EXPECT_GT(responses_[1].Latency(), 0u);
}

TEST_F(ControllerTest, ColdAccessesAreRowMisses) {
  // Two reads to different banks: both are pure row misses.
  ASSERT_TRUE(mc_->Enqueue(Read(0x0), now_));
  RunFor(200);
  ASSERT_TRUE(mc_->Enqueue(Read(64), now_));
  RunFor(200);
  EXPECT_EQ(mc_->stats().Get("mc.row_misses"), 2u);
  EXPECT_EQ(mc_->stats().Get("mc.row_hits"), 0u);
  EXPECT_EQ(responses_.size(), 2u);
}

TEST_F(ControllerTest, SameRowSecondAccessIsRowHit) {
  const AddressMapper& mapper = mc_->mapper();
  const DdrCoord base = mapper.Map(0);
  DdrCoord second = base;
  second.column = base.column + 1;  // Same bank, same row, next column.
  const PhysAddr addr2 = mapper.AddrOf(second);

  ASSERT_TRUE(mc_->Enqueue(Read(0), now_));
  RunFor(200);
  ASSERT_TRUE(mc_->Enqueue(Read(addr2), now_));
  RunFor(200);
  EXPECT_EQ(mc_->stats().Get("mc.row_hits"), 1u);
  EXPECT_EQ(mc_->stats().Get("mc.row_misses"), 1u);
  // The hit completes faster than the miss.
  EXPECT_LT(responses_[1].Latency(), responses_[0].Latency());
}

TEST_F(ControllerTest, ConflictingRowsForcePrecharge) {
  const AddressMapper& mapper = mc_->mapper();
  const DdrCoord base = mapper.Map(0);
  DdrCoord other = base;
  other.row = base.row + 1;  // Same bank, different row.
  ASSERT_TRUE(mc_->Enqueue(Read(0), now_));
  RunFor(200);
  ASSERT_TRUE(mc_->Enqueue(Read(mapper.AddrOf(other)), now_));
  RunFor(300);
  EXPECT_EQ(mc_->stats().Get("mc.row_conflicts"), 1u);
  EXPECT_EQ(responses_.size(), 2u);
}

TEST_F(ControllerTest, QueueBackpressure) {
  McConfig mc_config;
  mc_config.queue_capacity = 4;
  Rebuild(DramConfig::SimDefault(), mc_config);
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (mc_->Enqueue(Read(static_cast<PhysAddr>(i) * 4096), now_)) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(mc_->stats().Get("mc.enqueue_rejected"), 6u);
}

TEST_F(ControllerTest, PeriodicRefreshIssued) {
  const Cycle period = mc_->dram_config().RefPeriod();
  RunFor(period * 4 + 100);
  EXPECT_GE(mc_->stats().Get("mc.refs_issued"), 3u);
  EXPECT_EQ(mc_->device(0).CountRetentionViolations(now_), 0u);
}

TEST_F(ControllerTest, RefreshSurvivesHeavyTraffic) {
  const Cycle period = mc_->dram_config().RefPeriod();
  Rng rng(3);
  for (Cycle end = now_ + period * 3; now_ < end;) {
    mc_->Enqueue(Read(rng.NextBelow(1 << 20) * 64), now_);
    RunFor(20);
  }
  EXPECT_GE(mc_->stats().Get("mc.refs_issued"), 2u);
}

TEST_F(ControllerTest, RefreshInstructionRepairsRow) {
  // Hammer a row's neighbour close to MAC via raw requests, then refresh
  // the victim with the §4.3 primitive and verify the accumulator reset.
  const AddressMapper& mapper = mc_->mapper();
  DdrCoord aggressor = mapper.Map(0);
  aggressor.row = 10;
  aggressor.column = 0;
  DdrCoord conflict = aggressor;
  conflict.row = 12;
  const PhysAddr a_addr = mapper.AddrOf(aggressor);
  const PhysAddr c_addr = mapper.AddrOf(conflict);
  // Alternate two rows in one bank: every access is a row miss -> ACT.
  for (int i = 0; i < 50; ++i) {
    mc_->Enqueue(Read(a_addr), now_);
    RunFor(120);
    mc_->Enqueue(Read(c_addr), now_);
    RunFor(120);
  }
  DdrCoord victim = aggressor;
  victim.row = 11;
  EXPECT_GT(mc_->device(0).DisturbanceLevel(victim.rank, victim.bank, victim.row), 0.0);

  bool done = false;
  ASSERT_TRUE(mc_->RefreshRow(mapper.AddrOf(victim), true, now_,
                              [&done](const RefreshDone&) { done = true; }));
  RunFor(500);
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(mc_->device(0).DisturbanceLevel(victim.rank, victim.bank, victim.row), 0.0);
  EXPECT_EQ(mc_->stats().Get("mc.refresh_instr"), 1u);
  EXPECT_EQ(mc_->stats().Get("mc.refresh_instr_acts"), 1u);
}

TEST_F(ControllerTest, RefreshNeighborsCommandRepairsVictims) {
  const AddressMapper& mapper = mc_->mapper();
  DdrCoord aggressor = mapper.Map(0);
  aggressor.row = 20;
  aggressor.column = 0;
  DdrCoord conflict = aggressor;
  conflict.row = 24;
  for (int i = 0; i < 50; ++i) {
    mc_->Enqueue(Read(mapper.AddrOf(aggressor)), now_);
    RunFor(120);
    mc_->Enqueue(Read(mapper.AddrOf(conflict)), now_);
    RunFor(120);
  }
  DdrCoord victim = aggressor;
  victim.row = 21;
  ASSERT_GT(mc_->device(0).DisturbanceLevel(victim.rank, victim.bank, victim.row), 0.0);
  ASSERT_TRUE(mc_->RefreshNeighbors(mapper.AddrOf(aggressor), 2, now_));
  RunFor(1000);
  EXPECT_DOUBLE_EQ(mc_->device(0).DisturbanceLevel(victim.rank, victim.bank, victim.row), 0.0);
  EXPECT_GT(mc_->device(0).stats().Get("dram.ref_neighbors"), 0u);
}

TEST_F(ControllerTest, DomainGroupViolationDetected) {
  McConfig mc_config;
  mc_config.scheme = InterleaveScheme::kSubarrayIsolated;
  mc_config.enforce_domain_groups = true;
  Rebuild(DramConfig::SimDefault(), mc_config);
  mc_->SetDomainGroup(1, 0);  // Domain 1 belongs to subarray group 0.

  // An address in group 0: fine.
  const uint64_t band_lines = mc_->mapper().LinesPerSubarrayBand();
  ASSERT_TRUE(mc_->Enqueue(Read(0, 1), now_));
  EXPECT_EQ(mc_->stats().Get("mc.domain_group_violations"), 0u);
  // An address in group 1: violation.
  ASSERT_TRUE(mc_->Enqueue(Read(band_lines * kLineBytes, 1), now_));
  EXPECT_EQ(mc_->stats().Get("mc.domain_group_violations"), 1u);
}

TEST_F(ControllerTest, ActCounterFiresUnderConflictTraffic) {
  McConfig mc_config;
  mc_config.act_counter.enabled = true;
  mc_config.act_counter.threshold = 16;
  Rebuild(DramConfig::SimDefault(), mc_config);
  int interrupts = 0;
  PhysAddr last_addr = 0;
  mc_->SetActInterruptHandler([&](const ActInterrupt& irq) {
    ++interrupts;
    last_addr = irq.trigger_addr;
  });
  const AddressMapper& mapper = mc_->mapper();
  DdrCoord a = mapper.Map(0);
  a.row = 30;
  DdrCoord b = a;
  b.row = 40;
  for (int i = 0; i < 40; ++i) {
    mc_->Enqueue(Read(mapper.AddrOf(a)), now_);
    RunFor(120);
    mc_->Enqueue(Read(mapper.AddrOf(b)), now_);
    RunFor(120);
  }
  EXPECT_GT(interrupts, 0);
  // The latched address names one of the hammered lines.
  EXPECT_TRUE(last_addr == mapper.AddrOf(a) || last_addr == mapper.AddrOf(b));
}

TEST_F(ControllerTest, IdleAndQueuedReporting) {
  EXPECT_TRUE(mc_->Idle());
  mc_->Enqueue(Read(0x1000), now_);
  EXPECT_FALSE(mc_->Idle());
  EXPECT_EQ(mc_->QueuedRequests(), 1u);
  RunFor(300);
  EXPECT_TRUE(mc_->Idle());
}

TEST_F(ControllerTest, MitigationReceivesActivations) {
  class Recorder : public McMitigation {
   public:
    std::string name() const override { return "recorder"; }
    void OnActivate(uint32_t, uint32_t, uint32_t row, Cycle,
                    std::vector<NeighborRefreshRequest>& out) override {
      rows.push_back(row);
      (void)out;
    }
    uint64_t SramBits() const override { return 0; }
    std::vector<uint32_t> rows;
  };
  auto recorder = std::make_unique<Recorder>();
  Recorder* raw = recorder.get();
  mc_->InstallMitigation(std::move(recorder));
  mc_->Enqueue(Read(0x2000), now_);
  RunFor(300);
  ASSERT_EQ(raw->rows.size(), 1u);
  EXPECT_EQ(raw->rows[0], mc_->mapper().Map(0x2000).row);
}

TEST_F(ControllerTest, MitigationRefreshRequestsExecuted) {
  // A mitigation that asks for a neighbour refresh on every ACT: the MC
  // must turn it into internal PRE/ACT ops (visible as extra device ACTs).
  class AlwaysRefresh : public McMitigation {
   public:
    std::string name() const override { return "always"; }
    void OnActivate(uint32_t rank, uint32_t bank, uint32_t row, Cycle,
                    std::vector<NeighborRefreshRequest>& out) override {
      out.push_back({rank, bank, row});
    }
    uint64_t SramBits() const override { return 0; }
  };
  mc_->InstallMitigation(std::make_unique<AlwaysRefresh>());
  mc_->Enqueue(Read(0x3000), now_);
  RunFor(2000);
  EXPECT_GT(mc_->stats().Get("mc.mitigation_refreshes"), 0u);
  // 1 request ACT + up to 2*blast neighbour refresh ACTs.
  EXPECT_GT(mc_->device(0).stats().Get("dram.acts"), 1u);
}

// --- FR-FCFS priority ---------------------------------------------------------
//
// Default timing: after a RD at t, the next RD is legal at t+tCCD (t+6) but
// a WR waits for the data bus to turn around (t+tCL+tBL-tCWL = t+8); after
// a WR at t, the next WR is legal at t+6 but a RD waits for tWTR
// (t+tCWL+tBL+tWTR = t+25). Refresh is first due at cycle RefPeriod (8192).

TEST_F(ControllerTest, YoungerLegalReadHitOvertakesOlderWriteHitBlockedByTurnaround) {
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 0, 5, 0)), now_));
  RunFor(200);  // Row 5 of bank 0 is open and idle.
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 0, 5, 1)), now_));
  RunUntilCommands(3);  // ACT, RD, and the priming RD hit.
  const size_t primed = log_.entries.size();
  ASSERT_EQ(log_.entries.back().cmd.type, DdrCommandType::kRead);
  ASSERT_TRUE(mc_->Enqueue(Write(At(0, 0, 5, 2), 7), now_));  // Older.
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 0, 5, 3)), now_));      // Younger.
  RunFor(100);
  ASSERT_GE(log_.entries.size(), primed + 2);
  EXPECT_EQ(log_.entries[primed].cmd.type, DdrCommandType::kRead);
  EXPECT_EQ(log_.entries[primed].cmd.column, 3u);
  EXPECT_EQ(log_.entries[primed + 1].cmd.type, DdrCommandType::kWrite);
  EXPECT_EQ(log_.entries[primed + 1].cmd.column, 2u);
  EXPECT_EQ(mc_->stats().Get("mc.row_hits"), 3u);
}

TEST_F(ControllerTest, YoungerLegalWriteHitOvertakesOlderReadHitBlockedByTwtr) {
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 0, 5, 0)), now_));
  RunFor(200);
  ASSERT_TRUE(mc_->Enqueue(Write(At(0, 0, 5, 1), 1), now_));
  RunUntilCommands(3);
  const size_t primed = log_.entries.size();
  ASSERT_EQ(log_.entries.back().cmd.type, DdrCommandType::kWrite);
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 0, 5, 2)), now_));      // Older.
  ASSERT_TRUE(mc_->Enqueue(Write(At(0, 0, 5, 3), 9), now_));  // Younger.
  RunFor(100);
  ASSERT_GE(log_.entries.size(), primed + 2);
  EXPECT_EQ(log_.entries[primed].cmd.type, DdrCommandType::kWrite);
  EXPECT_EQ(log_.entries[primed].cmd.column, 3u);
  EXPECT_EQ(log_.entries[primed + 1].cmd.type, DdrCommandType::kRead);
  EXPECT_EQ(log_.entries[primed + 1].cmd.column, 2u);
  const DramTiming& t = mc_->dram_config().timing;
  EXPECT_EQ(log_.entries[primed + 1].at, log_.entries[primed].at + t.tCWL + t.tBL + t.tWTR);
}

TEST_F(ControllerTest, PrechargeServesOldestConflictAheadOfYoungerBlockedHit) {
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 0, 5, 0)), now_));
  RunFor(200);  // Bank 0 holds row 5 open; tRAS has long passed.
  // A WR on another bank of the rank blocks every RD for tWTR.
  ASSERT_TRUE(mc_->Enqueue(Write(At(0, 1, 9, 0), 1), now_));
  RunUntilCommands(4);
  ASSERT_EQ(log_.entries.back().cmd.type, DdrCommandType::kWrite);
  const size_t primed = log_.entries.size();
  const Cycle write_at = log_.entries.back().at;
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 0, 6, 0)), now_));  // Oldest: conflicts.
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 0, 5, 1)), now_));  // Younger: a hit.
  RunFor(300);
  const size_t first = log_.FindBank(0, primed);
  ASSERT_LT(first, log_.entries.size());
  EXPECT_EQ(log_.entries[first].cmd.type, DdrCommandType::kPrecharge);
  EXPECT_EQ(log_.entries[first].at, write_at + 1);
  const size_t act = log_.Find(DdrCommandType::kActivate, 0, first);
  ASSERT_LT(act, log_.entries.size());
  EXPECT_EQ(log_.entries[act].cmd.row, 6u);
  EXPECT_EQ(responses_.size(), 4u);
}

TEST_F(ControllerTest, NoPrechargeWhileOldestRequestWantsOpenRow) {
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 0, 5, 0)), now_));
  RunFor(200);
  ASSERT_TRUE(mc_->Enqueue(Write(At(0, 1, 9, 0), 1), now_));
  RunUntilCommands(4);
  ASSERT_EQ(log_.entries.back().cmd.type, DdrCommandType::kWrite);
  const size_t primed = log_.entries.size();
  const Cycle write_at = log_.entries.back().at;
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 0, 5, 1)), now_));  // Oldest: a blocked hit.
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 0, 6, 0)), now_));  // Younger: conflicts.
  RunFor(300);
  const size_t first = log_.FindBank(0, primed);
  ASSERT_LT(first, log_.entries.size());
  EXPECT_EQ(log_.entries[first].cmd.type, DdrCommandType::kRead);
  EXPECT_EQ(log_.entries[first].cmd.column, 1u);
  const DramTiming& t = mc_->dram_config().timing;
  EXPECT_EQ(log_.entries[first].at, write_at + t.tCWL + t.tBL + t.tWTR);
  EXPECT_EQ(log_.entries[first + 1].cmd.type, DdrCommandType::kPrecharge);
  EXPECT_EQ(responses_.size(), 4u);
}

TEST_F(ControllerTest, DrainingRankSkipsActAndReadButTakesPrecharge) {
  const Cycle due = mc_->dram_config().RefPeriod();
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 1, 7, 0)), now_));
  RunFor(due - 3 - now_);  // Bank 1 holds row 7 open.
  // An ACT three cycles before the REF is due: tRAS holds PREA back and
  // the RD hit becomes legal while the rank drains.
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 0, 5, 0)), now_));
  RunFor(3);
  ASSERT_EQ(now_, due);
  const size_t before_due = log_.entries.size();
  ASSERT_EQ(log_.entries.back().cmd.type, DdrCommandType::kActivate);
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 1, 8, 0)), now_));  // Conflicts in bank 1.
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 2, 3, 0)), now_));  // Closed bank 2.
  RunFor(1000);
  const size_t ref = log_.Find(DdrCommandType::kRefresh, 0, before_due);
  ASSERT_LT(ref, log_.entries.size());
  // While the rank drains only precharges issue, and bank 1's conflict
  // takes its own PRE at once.
  EXPECT_EQ(log_.entries[before_due].cmd.type, DdrCommandType::kPrecharge);
  EXPECT_EQ(log_.entries[before_due].cmd.bank, 1u);
  EXPECT_EQ(log_.entries[before_due].at, due);
  for (size_t i = before_due; i < ref; ++i) {
    const DdrCommandType type = log_.entries[i].cmd.type;
    EXPECT_TRUE(type == DdrCommandType::kPrecharge || type == DdrCommandType::kPrechargeAll)
        << log_.entries[i].cmd.ToDebugString() << " at " << log_.entries[i].at;
  }
  EXPECT_LT(log_.Find(DdrCommandType::kRead, 0, ref), log_.entries.size());
  EXPECT_LT(log_.Find(DdrCommandType::kActivate, 2, ref), log_.entries.size());
  EXPECT_EQ(responses_.size(), 4u);
}

// Holds ACTs of one row until a fixed cycle: a pure deadline gate.
class RowThrottle final : public McMitigation {
 public:
  RowThrottle(uint32_t row, Cycle until) : row_(row), until_(until) {}
  std::string name() const override { return "row-throttle"; }
  void OnActivate(uint32_t, uint32_t, uint32_t, Cycle,
                  std::vector<NeighborRefreshRequest>&) override {}
  Cycle ActAllowedAt(uint32_t, uint32_t, uint32_t row, Cycle now) override {
    return row == row_ ? std::max(now, until_) : now;
  }
  uint64_t SramBits() const override { return 0; }

 private:
  uint32_t row_;
  Cycle until_;
};

TEST_F(ControllerTest, YoungerSameBankRequestCannotTakeTheAct) {
  constexpr Cycle kRelease = 300;
  ASSERT_GT(mc_->dram_config().RefPeriod(), kRelease + 400);  // No REF in the way.
  mc_->InstallMitigation(std::make_unique<RowThrottle>(1, kRelease));
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 0, 1, 0)), now_));  // Older, held by the gate.
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 0, 2, 0)), now_));  // Younger, free.
  RunFor(kRelease);
  EXPECT_TRUE(log_.entries.empty());
  // The held ACT's gate cycle is the scan memo: one scan, not one per cycle.
  EXPECT_EQ(mc_->stats().Get("mc.wake_batches"), 1u);
  RunFor(400);
  const size_t act = log_.Find(DdrCommandType::kActivate, 0);
  ASSERT_LT(act, log_.entries.size());
  EXPECT_EQ(log_.entries[act].cmd.row, 1u);
  EXPECT_EQ(log_.entries[act].at, kRelease);
  // Row 1's ACT waited for the gate; row 2's, after it, waited for timing.
  EXPECT_EQ(mc_->stats().Get("mc.throttle_stalls"), 1u);
  EXPECT_EQ(responses_.size(), 2u);
}

TEST_F(ControllerTest, BlockHammerHoldsEachActUntilItsGateCycle) {
  const DramConfig dram = DramConfig::SimDefault();
  McConfig mc_config;
  mc_config.open_page = false;  // Every access closes its bank again.
  Rebuild(dram, mc_config);
  BlockHammerConfig bh;
  bh.blacklist_threshold = 1;  // One ACT blacklists a row.
  bh.throttle_delay = 1000;
  auto mitigation =
      std::make_unique<BlockHammerMitigation>(dram.org, dram.retention, dram.disturbance, bh);
  BlockHammerMitigation* gate = mitigation.get();
  mc_->InstallMitigation(std::move(mitigation));

  // Activate one row in each of banks 3, 1 and 2, far enough apart that
  // no timing constraint is still pending when the gate releases the next.
  for (const auto& [bank, row] : {std::pair{3u, 10u}, {1u, 11u}, {2u, 12u}}) {
    ASSERT_TRUE(mc_->Enqueue(Read(At(0, bank, row, 0)), now_));
    RunFor(100);
  }
  ASSERT_EQ(responses_.size(), 3u);
  EXPECT_EQ(mc_->stats().Get("mc.throttle_stalls"), 0u);

  // Revisit them; bank 3 also queues a younger request to a free row.
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 3, 10, 1)), now_));
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 1, 11, 1)), now_));
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 3, 13, 0)), now_));
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 2, 12, 1)), now_));
  const size_t revisit = log_.entries.size();
  const uint64_t scans = mc_->stats().Get("mc.wake_batches");
  // The gate is pure, so asking it now yields the cycles the ACTs wait for.
  struct Held {
    uint32_t bank = 0;
    uint32_t row = 0;
    Cycle release = 0;
  };
  std::vector<Held> held;
  for (const auto& [bank, row] : {std::pair{3u, 10u}, {1u, 11u}, {2u, 12u}}) {
    held.push_back({bank, row, gate->ActAllowedAt(0, bank, row, now_)});
    EXPECT_GT(held.back().release, now_ + 500) << "bank " << bank;
  }
  const Cycle first = std::min({held[0].release, held[1].release, held[2].release});
  ASSERT_GT(mc_->dram_config().RefPeriod(), first + 1000);  // No REF in the way.
  RunFor(first - now_);
  EXPECT_EQ(log_.entries.size(), revisit);
  EXPECT_LE(mc_->stats().Get("mc.wake_batches") - scans, 1u) << "rescanned while held";

  RunFor(1000);
  ASSERT_EQ(responses_.size(), 7u);
  for (const Held& h : held) {
    // The bank's oldest request takes the ACT, exactly at its gate cycle;
    // bank 3's younger row 13 never overtakes row 10.
    const size_t act = log_.Find(DdrCommandType::kActivate, h.bank, revisit);
    ASSERT_LT(act, log_.entries.size()) << "bank " << h.bank;
    EXPECT_EQ(log_.entries[act].cmd.row, h.row) << "bank " << h.bank;
    EXPECT_EQ(log_.entries[act].at, h.release) << "bank " << h.bank;
  }
  EXPECT_EQ(mc_->stats().Get("mc.throttle_stalls"), held.size());
}

// Forwards exactly the overrides a timing wrapper around a mitigation
// makes, so the controller must treat it like the mitigation it wraps.
class ForwardingGate final : public McMitigation {
 public:
  explicit ForwardingGate(std::unique_ptr<McMitigation> inner) : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  void OnActivate(uint32_t rank, uint32_t bank, uint32_t row, Cycle now,
                  std::vector<NeighborRefreshRequest>& out) override {
    inner_->OnActivate(rank, bank, row, now, out);
  }
  Cycle ActAllowedAt(uint32_t rank, uint32_t bank, uint32_t row, Cycle now) override {
    return inner_->ActAllowedAt(rank, bank, row, now);
  }
  void OnEpoch(Cycle now) override { inner_->OnEpoch(now); }
  uint64_t SramBits() const override { return inner_->SramBits(); }
  uint64_t TableProbes() const override { return inner_->TableProbes(); }

 private:
  std::unique_ptr<McMitigation> inner_;
};

std::unique_ptr<McMitigation> TestPara(const DramConfig& dram) {
  ParaConfig para;
  para.refresh_probability = 0.1;  // Neighbour refreshes preempt requests.
  return std::make_unique<ParaMitigation>(dram.org, para);
}

std::unique_ptr<McMitigation> TestBlockHammer(const DramConfig& dram, uint32_t threshold) {
  BlockHammerConfig bh;
  bh.blacklist_threshold = threshold;
  bh.throttle_delay = 500;
  return std::make_unique<BlockHammerMitigation>(dram.org, dram.retention, dram.disturbance, bh);
}

// Commands and stats of one run of skewed traffic under `mitigation`.
struct TrafficOutcome {
  std::vector<CommandLog::Entry> log;
  StatSet stats;
};

class GateTrafficTest : public ControllerTest {
 protected:
  // Keeps 16 requests queued for 30000 cycles, inside one refresh window
  // (an epoch rescans every channel once a mitigation is installed).
  // Most requests go to two banks and four rows per bank, so hits,
  // conflicts, closed-bank ACTs and throttles are all common.
  TrafficOutcome RunTraffic(std::unique_ptr<McMitigation> mitigation) {
    constexpr Cycle kCycles = 30000;
    const DramConfig dram = DramConfig::SimDefault();
    EXPECT_GT(dram.retention.refresh_window, kCycles);
    Rebuild(dram, McConfig{});
    now_ = 0;
    if (mitigation != nullptr) {
      mc_->InstallMitigation(std::move(mitigation));
    }
    Rng rng(7);
    const uint32_t banks = dram.org.ranks * dram.org.banks;
    for (; now_ < kCycles; ++now_) {
      while (mc_->QueuedRequests() < 16) {
        const uint32_t b = rng.NextBool(0.6) ? static_cast<uint32_t>(rng.NextBelow(2)) * (banks - 1)
                                             : static_cast<uint32_t>(rng.NextBelow(banks));
        const uint32_t row = 100 + static_cast<uint32_t>(rng.NextBelow(4)) * 3;
        const uint32_t column = static_cast<uint32_t>(rng.NextBelow(dram.org.columns));
        const PhysAddr addr = At(b / dram.org.banks, b % dram.org.banks, row, column);
        const bool write = rng.NextBelow(100) < 30;
        if (!mc_->Enqueue(write ? Write(addr, rng.Next()) : Read(addr), now_)) {
          break;
        }
      }
      mc_->Tick(now_);
    }
    return {log_.entries, mc_->stats()};
  }

  static void ExpectSameRun(const TrafficOutcome& a, const TrafficOutcome& b) {
    ASSERT_EQ(a.log.size(), b.log.size());
    for (size_t i = 0; i < a.log.size(); ++i) {
      ASSERT_EQ(a.log[i].cmd.ToDebugString(), b.log[i].cmd.ToDebugString()) << "command " << i;
      ASSERT_EQ(a.log[i].at, b.log[i].at) << "command " << i;
    }
    ASSERT_EQ(a.stats.counters().size(), b.stats.counters().size());
    for (const auto& [name, counter] : a.stats.counters()) {
      EXPECT_EQ(counter.value(), b.stats.Get(name)) << name;
    }
    ASSERT_EQ(a.stats.histograms().size(), b.stats.histograms().size());
    for (const auto& [name, histogram] : a.stats.histograms()) {
      const Histogram* other = b.stats.GetHistogram(name);
      ASSERT_NE(other, nullptr) << name;
      EXPECT_TRUE(histogram == *other) << name;
    }
  }
};

// A pass-through wrapper leaves the controller on the same path as the
// bare mitigation: same commands, same stats, same number of scans.
TEST_F(GateTrafficTest, ForwardingWrapperSchedulesLikeTheBareMitigation) {
  const DramConfig dram = DramConfig::SimDefault();
  const TrafficOutcome para = RunTraffic(TestPara(dram));
  EXPECT_GT(para.stats.Get("mc.mitigation_refreshes"), 0u);
  ExpectSameRun(para, RunTraffic(std::make_unique<ForwardingGate>(TestPara(dram))));

  const TrafficOutcome bh = RunTraffic(TestBlockHammer(dram, 8));
  EXPECT_GT(bh.stats.Get("mc.throttle_stalls"), 0u);
  ExpectSameRun(bh, RunTraffic(std::make_unique<ForwardingGate>(TestBlockHammer(dram, 8))));
}

// A BlockHammer that never throttles costs the scheduler nothing.
TEST_F(GateTrafficTest, IdleBlockHammerScansLikeNoMitigation) {
  const TrafficOutcome none = RunTraffic(nullptr);
  const TrafficOutcome bh = RunTraffic(TestBlockHammer(DramConfig::SimDefault(), ~0u));
  EXPECT_EQ(bh.stats.Get("mc.throttle_stalls"), 0u);
  EXPECT_EQ(bh.stats.Get("mc.wake_batches"), none.stats.Get("mc.wake_batches"));
  ExpectSameRun(none, bh);
}

// --- Scan memos set by issues and enqueues ----------------------------------

// The issuing scan sets the next scan cycle: after the ACT only the RD
// waits (at tRCD), so the pair costs exactly two scans, none wasted.
TEST_F(ControllerTest, ActThenReadScansOnlyAtTheirIssueCycles) {
  const DramTiming& t = mc_->dram_config().timing;
  RunFor(100);
  ASSERT_GT(mc_->dram_config().RefPeriod(), now_ + 1000);  // No REF in the way.
  const uint64_t scans = mc_->stats().Get("mc.wake_batches");
  const Cycle start = now_;
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 0, 5, 0)), now_));
  RunFor(t.tRCD + t.tCL + t.tBL + 100);
  ASSERT_EQ(log_.entries.size(), 2u);
  EXPECT_EQ(log_.entries[0].cmd.type, DdrCommandType::kActivate);
  EXPECT_EQ(log_.entries[0].at, start);
  EXPECT_EQ(log_.entries[1].cmd.type, DdrCommandType::kRead);
  EXPECT_EQ(log_.entries[1].at, start + t.tRCD);
  EXPECT_EQ(responses_.size(), 1u);
  EXPECT_EQ(mc_->stats().Get("mc.wake_batches") - scans, 2u);
}

// An enqueue lowers the memo to its own bank's earliest candidate and no
// further: a second bank's ACT, held by tRRD, is scanned for exactly then.
TEST_F(ControllerTest, EnqueueBehindTrrdScansOnlyWhenTheActIsLegal) {
  const DramTiming& t = mc_->dram_config().timing;
  ASSERT_LT(t.tRRD + 1, t.tRCD);  // The new ACT comes due before bank 0's RD.
  RunFor(100);
  const Cycle start = now_;
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 0, 5, 0)), now_));
  RunFor(1);  // ACT bank 0.
  const uint64_t scans = mc_->stats().Get("mc.wake_batches");
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 1, 7, 0)), now_));
  RunFor(t.tRRD - 1);
  EXPECT_EQ(mc_->stats().Get("mc.wake_batches"), scans) << "scanned before tRRD elapsed";
  RunFor(1);
  EXPECT_EQ(mc_->stats().Get("mc.wake_batches"), scans + 1);
  const size_t act = log_.Find(DdrCommandType::kActivate, 1);
  ASSERT_LT(act, log_.entries.size());
  EXPECT_EQ(log_.entries[act].at, start + t.tRRD);
}

// Completions drain inside Tick, before the channel's scan: a writeback
// the fill enqueues must still issue in that same cycle.
TEST_F(ControllerTest, WritebackEnqueuedByACompletionIssuesThatCycle) {
  Cycle completed = 0;
  mc_->set_response_handler([this, &completed](const MemResponse& r) {
    responses_.push_back(r);
    if (r.op == MemOp::kRead) {
      completed = r.complete_cycle;
      ASSERT_TRUE(mc_->Enqueue(Write(At(0, 2, 9, 0), 7), r.complete_cycle));
    }
  });
  RunFor(100);
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 0, 5, 0)), now_));
  RunFor(200);
  ASSERT_NE(completed, 0u);
  const size_t act = log_.Find(DdrCommandType::kActivate, 2);
  ASSERT_LT(act, log_.entries.size());
  EXPECT_EQ(log_.entries[act].at, completed);
  EXPECT_EQ(responses_.size(), 2u);
}

TEST_F(ControllerTest, PerBankRefreshDrainsOnlyTheDueBank) {
  DramConfig dram = DramConfig::SimDefault();
  dram.retention.per_bank_refresh = true;
  Rebuild(dram, McConfig{});
  const Cycle due = dram.RefPeriod();  // Bank 0 of rank 0 is due first.
  RunFor(due - 3);
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 0, 5, 0)), now_));
  RunFor(3);  // ACT bank 0; tRAS holds its PRE back past the due cycle.
  ASSERT_EQ(now_, due);
  ASSERT_TRUE(mc_->Enqueue(Read(At(0, 1, 7, 0)), now_));
  RunFor(1000);
  const size_t refsb = log_.Find(DdrCommandType::kRefreshSb, 0);
  ASSERT_LT(refsb, log_.entries.size());
  // Bank 1 is not draining: its ACT and RD go ahead of bank 0's REFsb.
  EXPECT_LT(log_.Find(DdrCommandType::kActivate, 1), refsb);
  EXPECT_LT(log_.Find(DdrCommandType::kRead, 1), refsb);
  // Bank 0 is: its legal RD hit waits for the REFsb and a fresh ACT.
  const size_t read0 = log_.Find(DdrCommandType::kRead, 0);
  EXPECT_GT(read0, refsb);
  EXPECT_LT(log_.Find(DdrCommandType::kActivate, 0, refsb), read0);
  EXPECT_EQ(responses_.size(), 2u);
}

}  // namespace
}  // namespace ht
