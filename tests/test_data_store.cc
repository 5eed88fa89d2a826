#include "dram/data_store.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "dram/device.h"

namespace ht {
namespace {

TEST(RowDataStore, ReadBackWritten) {
  RowDataStore store(1024, 8, 1);
  store.WriteLine(42, 3, 0xDEAD);
  EXPECT_EQ(store.ReadLine(42, 3), 0xDEADu);
  EXPECT_EQ(store.ReadLine(42, 4), 0u);
}

TEST(RowDataStore, UnwrittenRowsReadZero) {
  RowDataStore store(1024, 8, 1);
  EXPECT_EQ(store.ReadLine(7, 0), 0u);
  EXPECT_FALSE(store.RowPopulated(7));
}

TEST(RowDataStore, FlipCorruptsPopulatedRow) {
  RowDataStore store(1024, 8, 99);
  for (uint32_t c = 0; c < 8; ++c) {
    store.WriteLine(1, c, 0);
  }
  const uint32_t applied = store.FlipRandomBits(1, 3);
  EXPECT_EQ(applied, 3u);
  int nonzero = 0;
  for (uint32_t c = 0; c < 8; ++c) {
    if (store.ReadLine(1, c) != 0) {
      ++nonzero;
    }
  }
  EXPECT_GE(nonzero, 1);
}

TEST(RowDataStore, FlipOnEmptyRowReportsZero) {
  RowDataStore store(1024, 8, 99);
  EXPECT_EQ(store.FlipRandomBits(123, 4), 0u);
  EXPECT_FALSE(store.RowPopulated(123));
}

TEST(RowDataStore, FlipPositionsDeterministicAcrossPopulations) {
  // Flips on row A must land identically whether or not unrelated row B
  // holds data (RNG draws are consumed consistently).
  RowDataStore a(1024, 8, 5);
  RowDataStore b(1024, 8, 5);
  for (uint32_t c = 0; c < 8; ++c) {
    a.WriteLine(1, c, 0);
    b.WriteLine(1, c, 0);
  }
  a.FlipRandomBits(999, 2);  // Row 999 empty in a...
  b.WriteLine(999, 0, 7);    // ...but populated in b.
  b.FlipRandomBits(999, 2);
  a.FlipRandomBits(1, 2);
  b.FlipRandomBits(1, 2);
  for (uint32_t c = 0; c < 8; ++c) {
    EXPECT_EQ(a.ReadLine(1, c), b.ReadLine(1, c)) << "column " << c;
  }
}

TEST(RowDataStore, PopulatedRowsCounted) {
  RowDataStore store(1024, 8, 1);
  EXPECT_EQ(store.populated_rows(), 0u);
  store.WriteLine(1, 0, 1);
  store.WriteLine(2, 0, 1);
  store.WriteLine(1, 5, 1);
  EXPECT_EQ(store.populated_rows(), 2u);
}

TEST(RowDataStore, DoubleFlipRestores) {
  // XOR semantics: flipping the same deterministic positions twice with
  // identical RNG state undoes the corruption.
  RowDataStore a(1024, 4, 7);
  a.WriteLine(1, 0, 0x55);
  a.WriteLine(1, 1, 0x55);
  a.WriteLine(1, 2, 0x55);
  a.WriteLine(1, 3, 0x55);
  RowDataStore b(1024, 4, 7);
  b.WriteLine(1, 0, 0x55);
  b.WriteLine(1, 1, 0x55);
  b.WriteLine(1, 2, 0x55);
  b.WriteLine(1, 3, 0x55);
  a.FlipRandomBits(1, 1);
  b.FlipRandomBits(1, 1);
  // Same seed, same draws: a and b hold identical corrupted data.
  for (uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(a.ReadLine(1, c), b.ReadLine(1, c));
  }
}

TEST(RowDataStore, OutOfIndexRowsReadZeroAndRejectWrites) {
  RowDataStore store(16, 8, 3);
  store.WriteLine(15, 7, 9);
  EXPECT_EQ(store.ReadLine(15, 7), 9u);
  EXPECT_EQ(store.ReadLine(16, 0), 0u);
  EXPECT_EQ(store.ReadLine(~uint64_t{0}, 0), 0u);
  EXPECT_FALSE(store.RowPopulated(16));
  EXPECT_EQ(store.FlipRandomBits(16, 2), 0u);
  EXPECT_EQ(store.CorruptionMask(16, 0), 0u);
  EXPECT_THROW(store.WriteLine(16, 0, 1), std::out_of_range);
  EXPECT_EQ(store.populated_rows(), 1u);
}

TEST(RowDataStore, DeviceRowKeysNeverAliasAcrossRankAndBank) {
  DramConfig config = DramConfig::Tiny();
  config.org.ranks = 2;
  config.org.banks = 4;
  const uint32_t rows = config.org.rows_per_bank();
  DramDevice device(config, 0);
  // The same row numbers (first, middle, last) in every (rank, bank),
  // each holding a value unique to its coordinate.
  const uint32_t probe_rows[] = {0, rows / 2, rows - 1};
  auto value_of = [](uint32_t rank, uint32_t bank, uint32_t row) {
    return (uint64_t{rank} << 40) | (uint64_t{bank} << 20) | (row + 1);
  };
  size_t written = 0;
  for (uint32_t rank = 0; rank < config.org.ranks; ++rank) {
    for (uint32_t bank = 0; bank < config.org.banks; ++bank) {
      for (uint32_t row : probe_rows) {
        device.WriteLine(rank, bank, row, 3, value_of(rank, bank, row));
        device.WriteLine(rank, bank, row, 4, ~value_of(rank, bank, row));
        EXPECT_EQ(device.populated_rows(), ++written);
      }
    }
  }
  for (uint32_t rank = 0; rank < config.org.ranks; ++rank) {
    for (uint32_t bank = 0; bank < config.org.banks; ++bank) {
      for (uint32_t row : probe_rows) {
        EXPECT_EQ(device.ReadLine(rank, bank, row, 3), value_of(rank, bank, row));
        EXPECT_EQ(device.ReadLine(rank, bank, row, 4), ~value_of(rank, bank, row));
        EXPECT_EQ(device.ReadLine(rank, bank, row, 0), 0u);
      }
      EXPECT_EQ(device.ReadLine(rank, bank, 1, 3), 0u);  // Never written.
    }
  }
  EXPECT_EQ(device.populated_rows(), written);
}

}  // namespace
}  // namespace ht
