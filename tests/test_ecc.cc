// SECDED ECC model tests (Cojocar et al. [12] behaviour: correct 1,
// detect 2, 3+ escape).
#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>

#include "dram/data_store.h"
#include "dram/device.h"
#include "mc/controller.h"

namespace ht {
namespace {

TEST(EccDataStore, MaskTracksFlipsAndClearsOnWrite) {
  RowDataStore store(1024, 8, 1);
  store.WriteLine(1, 0, 0xAA);
  EXPECT_EQ(store.CorruptionMask(1, 0), 0u);
  store.FlipRandomBits(1, 1);
  uint64_t total_mask = 0;
  for (uint32_t c = 0; c < 8; ++c) {
    total_mask |= store.CorruptionMask(1, c);
  }
  EXPECT_NE(total_mask, 0u);
  // Rewriting every column clears all corruption.
  for (uint32_t c = 0; c < 8; ++c) {
    store.WriteLine(1, c, 0xBB);
    EXPECT_EQ(store.CorruptionMask(1, c), 0u);
  }
}

TEST(EccDataStore, MaskMatchesStoredCorruption) {
  RowDataStore store(1024, 8, 7);
  for (uint32_t c = 0; c < 8; ++c) {
    store.WriteLine(2, c, 0x1234);
  }
  store.FlipRandomBits(2, 3);
  for (uint32_t c = 0; c < 8; ++c) {
    EXPECT_EQ(store.ReadLine(2, c) ^ store.CorruptionMask(2, c), 0x1234u) << "column " << c;
  }
}

// Hammers bank 0 row 5 until at least `events` flip events land on its
// neighbours.
void HammerUntilFlips(DramDevice& device, uint64_t events) {
  Cycle t = 0;
  while (device.total_flip_events() < events) {
    const DdrCommand act = DdrCommand::Act(0, 0, 5);
    t = std::max(t + 1, device.EarliestCycle(act));
    ASSERT_EQ(device.Issue(act, t), TimingVerdict::kOk);
    const DdrCommand pre = DdrCommand::Pre(0, 0);
    t = std::max(t + 1, device.EarliestCycle(pre));
    ASSERT_EQ(device.Issue(pre, t), TimingVerdict::kOk);
    ASSERT_LT(t, Cycle{100000000}) << "no flips after bounded hammering";
  }
}

class EccDeviceTest : public ::testing::Test {
 protected:
  EccDeviceTest() {
    config_ = DramConfig::Tiny();
    config_.ecc.enabled = true;
  }

  DramConfig config_;
};

TEST_F(EccDeviceTest, SingleBitFlipsAreCorrected) {
  config_.disturbance.min_flip_bits = 1;
  config_.disturbance.max_flip_bits = 1;
  DramDevice device(config_, 0);
  for (uint32_t c = 0; c < config_.org.columns; ++c) {
    device.WriteLine(0, 0, 4, c, 0x5555);
    device.WriteLine(0, 0, 6, c, 0x5555);
  }
  HammerUntilFlips(device, 2);
  // Every readback is clean: one flipped bit per victim word, corrected.
  for (uint32_t row : {4u, 6u}) {
    for (uint32_t c = 0; c < config_.org.columns; ++c) {
      EXPECT_EQ(device.ReadLine(0, 0, row, c), 0x5555u) << "row " << row << " col " << c;
    }
  }
  EXPECT_GT(device.ecc_stats().Get("dram.ecc_corrected"), 0u);
  EXPECT_EQ(device.ecc_stats().Get("dram.ecc_escaped"), 0u);
}

TEST_F(EccDeviceTest, SustainedHammeringAccumulatesUncorrectableWords) {
  // Repeated flip events pile multiple bits into the same words; SECDED
  // then detects (2 bits) or silently misses (3+) — the [12] bypass.
  config_.disturbance.min_flip_bits = 4;
  config_.disturbance.max_flip_bits = 4;
  config_.org.columns = 2;  // Few words: collisions certain.
  DramDevice device(config_, 0);
  for (uint32_t c = 0; c < config_.org.columns; ++c) {
    device.WriteLine(0, 0, 4, c, 0x5555);
    device.WriteLine(0, 0, 6, c, 0x5555);
  }
  HammerUntilFlips(device, 8);
  for (uint32_t row : {4u, 6u}) {
    for (uint32_t c = 0; c < config_.org.columns; ++c) {
      device.ReadLine(0, 0, row, c);
    }
  }
  EXPECT_GT(device.ecc_stats().Get("dram.ecc_detected") +
                device.ecc_stats().Get("dram.ecc_escaped"),
            0u);
}

TEST_F(EccDeviceTest, DisabledEccReturnsRawCorruption) {
  config_.ecc.enabled = false;
  config_.disturbance.min_flip_bits = 1;
  config_.disturbance.max_flip_bits = 1;
  DramDevice device(config_, 0);
  for (uint32_t c = 0; c < config_.org.columns; ++c) {
    device.WriteLine(0, 0, 6, c, 0x5555);
    device.WriteLine(0, 0, 4, c, 0x5555);
  }
  HammerUntilFlips(device, 2);
  uint32_t corrupted = 0;
  for (uint32_t row : {4u, 6u}) {
    for (uint32_t c = 0; c < config_.org.columns; ++c) {
      if (device.ReadLine(0, 0, row, c) != 0x5555u) {
        ++corrupted;
      }
    }
  }
  EXPECT_GT(corrupted, 0u);
  EXPECT_EQ(device.ecc_stats().Get("dram.ecc_corrected"), 0u);
}

// The host page data plane (MemoryController::ReadPageWords and
// WritePageWords) against per-line device reads. One column per row puts
// every bit of a flip event into one word, so a k-bit event leaves k-bit
// words: 1 is corrected, 2 detected, 3 escape.
class EccPagePlaneTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(EccPagePlaneTest, PageReadsMatchPerLineReadsAndCounters) {
  const uint32_t bits = GetParam();
  DramConfig config = DramConfig::Tiny();
  config.ecc.enabled = true;
  config.org.columns = 1;  // 2 banks x 32 rows: the device is exactly page 0.
  config.disturbance.min_flip_bits = bits;
  config.disturbance.max_flip_bits = bits;
  MemoryController mc(config, McConfig{});
  ASSERT_EQ(mc.mapper().total_lines(), kLinesPerPage);
  DramDevice& device = mc.device(0);
  const StatSet& ecc = device.ecc_stats();
  const auto counts = [&ecc] {
    return std::array<uint64_t, 3>{ecc.Get("dram.ecc_corrected"), ecc.Get("dram.ecc_detected"),
                                   ecc.Get("dram.ecc_escaped")};
  };
  const auto read_lines = [&](uint64_t* words) {
    for (uint64_t i = 0; i < kLinesPerPage; ++i) {
      const DdrCoord c = mc.mapper().MapLine(i);
      words[i] = device.ReadLine(c.rank, c.bank, c.row, c.column);
    }
  };

  uint64_t written[kLinesPerPage];
  for (uint64_t i = 0; i < kLinesPerPage; ++i) {
    written[i] = 0x5555000000000000ULL + i;
  }
  mc.WritePageWords(0, written);
  HammerUntilFlips(device, 1);

  const std::array<uint64_t, 3> before = counts();
  uint64_t per_line[kLinesPerPage];
  read_lines(per_line);
  const std::array<uint64_t, 3> after_lines = counts();
  uint64_t paged[kLinesPerPage];
  mc.ReadPageWords(0, paged);
  const std::array<uint64_t, 3> after_page = counts();
  for (uint64_t i = 0; i < kLinesPerPage; ++i) {
    EXPECT_EQ(paged[i], per_line[i]) << "line " << i;
  }
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(after_page[k] - after_lines[k], after_lines[k] - before[k]) << "counter " << k;
  }
  // The injected width lands in its own counter.
  EXPECT_GT(after_lines[bits - 1] - before[bits - 1], 0u);

  // A page write after the flips clears every word's corruption mask:
  // reads return the new words and no counter moves.
  uint64_t fresh[kLinesPerPage];
  for (uint64_t i = 0; i < kLinesPerPage; ++i) {
    fresh[i] = ~written[i];
  }
  mc.WritePageWords(0, fresh);
  read_lines(per_line);
  mc.ReadPageWords(0, paged);
  for (uint64_t i = 0; i < kLinesPerPage; ++i) {
    EXPECT_EQ(per_line[i], fresh[i]) << "line " << i;
    EXPECT_EQ(paged[i], fresh[i]) << "line " << i;
  }
  EXPECT_EQ(counts(), after_page);
}

INSTANTIATE_TEST_SUITE_P(FlipWidths, EccPagePlaneTest, ::testing::Values(1u, 2u, 3u),
                         [](const auto& param_info) {
                           return std::to_string(param_info.param) + "bit";
                         });

TEST(EccPagePlane, SubRangeTouchesOnlyItsLines) {
  DramConfig config = DramConfig::Tiny();
  MemoryController mc(config, McConfig{});
  uint64_t words[kLinesPerPage];
  for (uint64_t i = 0; i < kLinesPerPage; ++i) {
    words[i] = 100 + i;
  }
  mc.WritePageWords(3, words, 10, 20);
  uint64_t back[kLinesPerPage] = {};
  mc.ReadPageWords(3, back);
  for (uint64_t i = 0; i < kLinesPerPage; ++i) {
    EXPECT_EQ(back[i], i >= 10 && i < 20 ? 100 + i : 0u) << "line " << i;
  }
}

TEST(EccPagePlane, OutOfRangeWriteStillThrows) {
  DramDevice device(DramConfig::Tiny(), 0);
  EXPECT_THROW(device.WriteLine(0, 2, 0, 0, 1), std::out_of_range);  // Bank 2 of 2.
  device.WriteLine(0, 1, 31, 7, 1);  // Last row: populated, fast path from here on.
  EXPECT_THROW(device.WriteLine(1, 0, 0, 0, 1), std::out_of_range);  // Rank 1 of 1.
}

}  // namespace
}  // namespace ht
