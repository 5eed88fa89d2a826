#include "mc/mitigations.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"

namespace ht {
namespace {

DramConfig Cfg() { return DramConfig::SimDefault(); }

TEST(Para, RefreshRateMatchesProbability) {
  ParaConfig config;
  config.refresh_probability = 0.1;
  ParaMitigation para(Cfg().org, config);
  std::vector<NeighborRefreshRequest> out;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    para.OnActivate(0, 0, 42, i, out);
  }
  EXPECT_NEAR(static_cast<double>(out.size()) / n, 0.1, 0.01);
  for (const auto& refresh : out) {
    EXPECT_EQ(refresh.aggressor_row, 42u);
  }
}

TEST(Para, NeverThrottles) {
  ParaMitigation para(Cfg().org, ParaConfig{});
  EXPECT_EQ(para.ActAllowedAt(0, 0, 5, 123), 123u);
}

// The controller folds gate answers into the cycles it next scans at and
// drops them only at the epoch, so BlockHammer's gate must be pure, and
// its answers may rise on any ACT but fall only at OnEpoch.
TEST(BlockHammer, GateAnswersFallOnlyAtTheEpoch) {
  BlockHammerConfig config;
  config.blacklist_threshold = 4;
  config.throttle_delay = 500;
  BlockHammerMitigation bh(Cfg().org, Cfg().retention, Cfg().disturbance, config);
  // Probes over two banks and a few rows, asked at a fixed cycle.
  constexpr Cycle kAsk = 100;
  const auto answers = [&bh] {
    std::vector<Cycle> out;
    for (uint32_t bank = 0; bank < 2; ++bank) {
      for (uint32_t row = 0; row < 6; ++row) {
        out.push_back(bh.ActAllowedAt(0, bank, row, kAsk));
      }
    }
    return out;
  };
  Rng rng(11);
  std::vector<NeighborRefreshRequest> out;
  std::vector<Cycle> before = answers();
  bool rose = false;
  for (Cycle now = 0; now < 60; ++now) {
    bh.OnActivate(0, static_cast<uint32_t>(rng.NextBelow(2)),
                  static_cast<uint32_t>(rng.NextBelow(6)), now, out);
    const std::vector<Cycle> after = answers();
    EXPECT_EQ(answers(), after) << "asking again changed an answer";
    for (size_t i = 0; i < after.size(); ++i) {
      EXPECT_GE(after[i], before[i]) << "probe " << i << " fell across an ACT at " << now;
      rose |= after[i] > before[i];
    }
    before = after;
  }
  EXPECT_TRUE(rose);
  bh.OnEpoch(1000);
  const std::vector<Cycle> reset = answers();
  for (size_t i = 0; i < reset.size(); ++i) {
    EXPECT_EQ(reset[i], kAsk) << "probe " << i << " still held after the epoch";
  }
}

TEST(Para, TinySramFootprint) {
  ParaMitigation para(Cfg().org, ParaConfig{});
  EXPECT_LE(para.SramBits(), 64u);
}

TEST(Graphene, DetectsHeavyHitterAtThreshold) {
  GrapheneConfig config;
  config.table_entries = 8;
  config.threshold = 100;
  GrapheneMitigation graphene(Cfg().org, Cfg().disturbance, config);
  std::vector<NeighborRefreshRequest> out;
  for (int i = 0; i < 99; ++i) {
    graphene.OnActivate(0, 0, 7, i, out);
  }
  EXPECT_TRUE(out.empty());
  graphene.OnActivate(0, 0, 7, 99, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].aggressor_row, 7u);
}

TEST(Graphene, ResetAfterServiceRequiresFullCountAgain) {
  GrapheneConfig config;
  config.threshold = 10;
  GrapheneMitigation graphene(Cfg().org, Cfg().disturbance, config);
  std::vector<NeighborRefreshRequest> out;
  for (int i = 0; i < 10; ++i) {
    graphene.OnActivate(0, 0, 7, i, out);
  }
  EXPECT_EQ(out.size(), 1u);
  out.clear();
  for (int i = 0; i < 9; ++i) {
    graphene.OnActivate(0, 0, 7, i, out);
  }
  EXPECT_TRUE(out.empty());
}

TEST(Graphene, MisraGriesNeverMissesTrueHeavyHitter) {
  // Property: a row activated more than spill+threshold times must be
  // caught even among many distractors (Misra-Gries guarantee).
  GrapheneConfig config;
  config.table_entries = 4;
  config.threshold = 50;
  GrapheneMitigation graphene(Cfg().org, Cfg().disturbance, config);
  std::vector<NeighborRefreshRequest> out;
  int distractor = 100;
  for (int i = 0; i < 2000; ++i) {
    graphene.OnActivate(0, 0, 7, i, out);          // Heavy hitter.
    if (i % 4 == 0) {
      graphene.OnActivate(0, 0, distractor++, i, out);  // One-shot noise.
    }
  }
  bool caught = false;
  for (const auto& refresh : out) {
    if (refresh.aggressor_row == 7) {
      caught = true;
    }
  }
  EXPECT_TRUE(caught);
}

TEST(Graphene, EpochClearsState) {
  GrapheneConfig config;
  config.threshold = 10;
  GrapheneMitigation graphene(Cfg().org, Cfg().disturbance, config);
  std::vector<NeighborRefreshRequest> out;
  for (int i = 0; i < 9; ++i) {
    graphene.OnActivate(0, 0, 7, i, out);
  }
  graphene.OnEpoch(1000);
  graphene.OnActivate(0, 0, 7, 1001, out);
  EXPECT_TRUE(out.empty());
}

TEST(Graphene, SramScalesWithEntries) {
  GrapheneConfig small;
  small.table_entries = 16;
  GrapheneConfig large;
  large.table_entries = 256;
  GrapheneMitigation a(Cfg().org, Cfg().disturbance, small);
  GrapheneMitigation b(Cfg().org, Cfg().disturbance, large);
  EXPECT_GT(b.SramBits(), a.SramBits() * 10);
}

TEST(Twice, CountsAndTriggers) {
  TwiceConfig config;
  config.threshold = 20;
  TwiceMitigation twice(Cfg().org, Cfg().timing, Cfg().disturbance, config);
  std::vector<NeighborRefreshRequest> out;
  for (int i = 0; i < 20; ++i) {
    twice.OnActivate(0, 0, 9, i, out);
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].aggressor_row, 9u);
}

TEST(Twice, PrunesColdEntries) {
  TwiceConfig config;
  config.threshold = 1000;
  config.prune_interval = 100;
  config.prune_min_rate = 2;
  TwiceMitigation twice(Cfg().org, Cfg().timing, Cfg().disturbance, config);
  std::vector<NeighborRefreshRequest> out;
  // Touch 50 rows once each (cold), hammer one row continuously.
  for (uint32_t r = 0; r < 50; ++r) {
    twice.OnActivate(0, 0, 1000 + r, 1, out);
  }
  const uint32_t peak_before = twice.peak_entries();
  EXPECT_GE(peak_before, 50u);
  // Advance past several prune intervals with only the hot row active.
  for (Cycle t = 100; t < 1000; t += 10) {
    twice.OnActivate(0, 0, 7, t, out);
    twice.OnActivate(0, 0, 7, t + 1, out);
    twice.OnActivate(0, 0, 7, t + 2, out);
  }
  // Cold entries were pruned: peak never grew past before + hot row.
  EXPECT_LE(twice.peak_entries(), peak_before + 1);
}

TEST(Twice, EpochClears) {
  TwiceConfig config;
  config.threshold = 5;
  TwiceMitigation twice(Cfg().org, Cfg().timing, Cfg().disturbance, config);
  std::vector<NeighborRefreshRequest> out;
  for (int i = 0; i < 4; ++i) {
    twice.OnActivate(0, 0, 9, i, out);
  }
  twice.OnEpoch(100);
  twice.OnActivate(0, 0, 9, 101, out);
  EXPECT_TRUE(out.empty());
}

TEST(BlockHammer, ThrottlesBlacklistedRow) {
  BlockHammerConfig config;
  config.blacklist_threshold = 10;
  config.throttle_delay = 500;
  BlockHammerMitigation bh(Cfg().org, Cfg().retention, Cfg().disturbance, config);
  std::vector<NeighborRefreshRequest> out;
  Cycle t = 0;
  for (int i = 0; i < 10; ++i) {
    t = bh.ActAllowedAt(0, 0, 7, t);
    bh.OnActivate(0, 0, 7, t, out);
    t += 60;
  }
  // Row is now blacklisted: next ACT must be delayed ~throttle_delay.
  const Cycle allowed = bh.ActAllowedAt(0, 0, 7, t);
  EXPECT_GT(allowed, t);
  EXPECT_LE(allowed, t + 500);
  EXPECT_EQ(bh.ActAllowedAt(0, 0, 7, allowed), allowed);  // Released exactly then.
  EXPECT_TRUE(out.empty());  // BlockHammer never refreshes.
}

TEST(BlockHammer, BenignRowsUnthrottled) {
  BlockHammerConfig config;
  config.blacklist_threshold = 100;
  BlockHammerMitigation bh(Cfg().org, Cfg().retention, Cfg().disturbance, config);
  std::vector<NeighborRefreshRequest> out;
  for (uint32_t r = 0; r < 500; ++r) {
    bh.OnActivate(0, 0, r, r, out);  // Each row touched once.
    EXPECT_EQ(bh.ActAllowedAt(0, 0, r + 1, r), Cycle{r});
  }
}

TEST(BlockHammer, EpochSwapAgesCounts) {
  BlockHammerConfig config;
  config.blacklist_threshold = 10;
  config.throttle_delay = 500;
  BlockHammerMitigation bh(Cfg().org, Cfg().retention, Cfg().disturbance, config);
  std::vector<NeighborRefreshRequest> out;
  for (int i = 0; i < 20; ++i) {
    bh.OnActivate(0, 0, 7, i, out);
  }
  EXPECT_GT(bh.ActAllowedAt(0, 0, 7, 100), 100u);
  bh.OnEpoch(1000);
  // After the swap the active filter is empty again.
  EXPECT_EQ(bh.ActAllowedAt(0, 0, 7, 2000), 2000u);
}

TEST(BlockHammer, DerivedThrottleDelayBoundsActsPerWindow) {
  // With defaults, a blacklisted row's ACT rate is capped such that it
  // cannot reach the MAC within a refresh window.
  const DramConfig dram = Cfg();
  BlockHammerMitigation bh(dram.org, dram.retention, dram.disturbance, BlockHammerConfig{});
  std::vector<NeighborRefreshRequest> out;
  Cycle t = 0;
  uint64_t acts_in_window = 0;
  while (t < dram.retention.refresh_window) {
    const Cycle allowed = bh.ActAllowedAt(0, 0, 7, t);
    if (allowed > t) {
      t = allowed;
      continue;
    }
    bh.OnActivate(0, 0, 7, t, out);
    ++acts_in_window;
    t += dram.timing.tRC;
  }
  EXPECT_LE(acts_in_window, uint64_t{dram.disturbance.mac} + dram.disturbance.mac / 8);
}

TEST(Mitigations, SramCostOrdering) {
  // The E4 scaling story in miniature: PARA << Graphene/TWiCe < BlockHammer.
  const DramConfig dram = Cfg();
  ParaMitigation para(dram.org, ParaConfig{});
  GrapheneMitigation graphene(dram.org, dram.disturbance, GrapheneConfig{});
  BlockHammerMitigation bh(dram.org, dram.retention, dram.disturbance, BlockHammerConfig{});
  EXPECT_LT(para.SramBits(), graphene.SramBits());
  EXPECT_LT(graphene.SramBits(), bh.SramBits());
}

}  // namespace
}  // namespace ht
