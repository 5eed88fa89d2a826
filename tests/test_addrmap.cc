#include "mc/addrmap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <vector>

namespace ht {
namespace {

DramOrg DefaultOrg() { return DramConfig::SimDefault().org; }

class AddrMapBijectionTest : public ::testing::TestWithParam<InterleaveScheme> {};

TEST_P(AddrMapBijectionTest, MapAndInverseRoundTrip) {
  AddressMapper mapper(DefaultOrg(), GetParam());
  // Sample a spread of lines plus the extremes.
  for (uint64_t line : {uint64_t{0}, uint64_t{1}, uint64_t{63}, uint64_t{64}, uint64_t{1000},
                        mapper.total_lines() / 2, mapper.total_lines() - 1}) {
    const DdrCoord coord = mapper.MapLine(line);
    EXPECT_EQ(mapper.LineOf(coord), line) << ToString(GetParam()) << " line " << line;
  }
}

TEST_P(AddrMapBijectionTest, CoordsStayInBounds) {
  const DramOrg org = DefaultOrg();
  AddressMapper mapper(org, GetParam());
  for (uint64_t line = 0; line < 4096; ++line) {
    const DdrCoord coord = mapper.MapLine(line);
    EXPECT_LT(coord.channel, org.channels);
    EXPECT_LT(coord.rank, org.ranks);
    EXPECT_LT(coord.bank, org.banks);
    EXPECT_LT(coord.row, org.rows_per_bank());
    EXPECT_LT(coord.column, org.columns);
  }
}

TEST_P(AddrMapBijectionTest, DenseRangeIsInjective) {
  AddressMapper mapper(DefaultOrg(), GetParam());
  std::set<uint64_t> seen;
  for (uint64_t line = 0; line < 8192; ++line) {
    const DdrCoord coord = mapper.MapLine(line);
    uint64_t key = coord.channel;
    key = key * 64 + coord.rank;
    key = key * 64 + coord.bank;
    key = key * (1ull << 32) + coord.row;
    key = key * 4096 + coord.column;
    EXPECT_TRUE(seen.insert(key).second) << "collision at line " << line;
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, AddrMapBijectionTest,
                         ::testing::Values(InterleaveScheme::kBankSequential,
                                           InterleaveScheme::kCacheLine,
                                           InterleaveScheme::kPermutation,
                                           InterleaveScheme::kSubarrayIsolated),
                         [](const auto& param_info) {
                           std::string name = ToString(param_info.param);
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(AddrMap, BankSequentialKeepsConsecutiveLinesInOneBank) {
  AddressMapper mapper(DefaultOrg(), InterleaveScheme::kBankSequential);
  const DdrCoord first = mapper.MapLine(0);
  for (uint64_t line = 0; line < DefaultOrg().columns; ++line) {
    const DdrCoord coord = mapper.MapLine(line);
    EXPECT_EQ(coord.bank, first.bank);
    EXPECT_EQ(coord.row, first.row);
    EXPECT_EQ(coord.column, line);
  }
}

TEST(AddrMap, CacheLineSpreadsPageAcrossAllBanks) {
  const DramOrg org = DefaultOrg();
  AddressMapper mapper(org, InterleaveScheme::kCacheLine);
  std::set<uint32_t> banks;
  for (uint64_t line = 0; line < kLinesPerPage; ++line) {
    banks.insert(mapper.MapLine(line).bank);
  }
  EXPECT_EQ(banks.size(), org.banks);
}

TEST(AddrMap, SubarrayIsolatedSpreadsPageAcrossAllBanks) {
  const DramOrg org = DefaultOrg();
  AddressMapper mapper(org, InterleaveScheme::kSubarrayIsolated);
  std::set<uint32_t> banks;
  for (uint64_t line = 0; line < kLinesPerPage; ++line) {
    banks.insert(mapper.MapLine(line).bank);
  }
  EXPECT_EQ(banks.size(), org.banks);  // Full interleaving retained (§4.1).
}

TEST(AddrMap, SubarrayIsolatedPinsBandsToSubarrays) {
  const DramOrg org = DefaultOrg();
  AddressMapper mapper(org, InterleaveScheme::kSubarrayIsolated);
  const uint64_t band = mapper.LinesPerSubarrayBand();
  for (uint32_t s = 0; s < org.subarrays_per_bank; ++s) {
    // Sample lines within band s: all rows must fall in subarray s.
    for (uint64_t offset : {uint64_t{0}, band / 2, band - 1}) {
      const DdrCoord coord = mapper.MapLine(s * band + offset);
      EXPECT_EQ(org.SubarrayOfRow(coord.row), s) << "band " << s << " offset " << offset;
      EXPECT_EQ(mapper.SubarrayBandOfLine(s * band + offset), s);
    }
  }
}

TEST(AddrMap, PermutationShufflesBanksAcrossRows) {
  const DramOrg org = DefaultOrg();
  AddressMapper mapper(org, InterleaveScheme::kPermutation);
  // The same bank-slot at different rows maps to different banks.
  const uint64_t lines_per_row = static_cast<uint64_t>(org.channels) * org.ranks * org.banks *
                                 org.columns;
  std::set<uint32_t> banks;
  for (uint32_t r = 0; r < org.banks; ++r) {
    banks.insert(mapper.MapLine(r * lines_per_row).bank);
  }
  EXPECT_GT(banks.size(), 1u);
}

TEST(AddrMap, CapacityMatchesOrg) {
  const DramOrg org = DefaultOrg();
  AddressMapper mapper(org, InterleaveScheme::kCacheLine);
  EXPECT_EQ(mapper.capacity_bytes(), org.capacity_bytes());
  EXPECT_EQ(mapper.total_lines() * kLineBytes, org.capacity_bytes());
}

// A geometry grid with non-power-of-two channels, banks, columns and
// rows_per_subarray: rows of 4-6 columns and subarrays of 3-5 rows make
// most pages straddle a row and many straddle a subarray.
std::vector<DramOrg> GeometryGrid() {
  std::vector<DramOrg> grid;
  for (uint32_t channels : {1u, 2u, 3u}) {
    for (uint32_t ranks : {1u, 2u}) {
      for (uint32_t banks : {2u, 3u, 8u}) {
        for (uint32_t subarrays : {2u, 3u}) {
          for (uint32_t rows_per_subarray : {3u, 4u, 5u}) {
            for (uint32_t columns : {4u, 6u, 128u}) {
              DramOrg org;
              org.channels = channels;
              org.ranks = ranks;
              org.banks = banks;
              org.subarrays_per_bank = subarrays;
              org.rows_per_subarray = rows_per_subarray;
              org.columns = columns;
              grid.push_back(org);
            }
          }
        }
      }
    }
  }
  return grid;
}

constexpr InterleaveScheme kAllSchemes[] = {
    InterleaveScheme::kBankSequential, InterleaveScheme::kCacheLine,
    InterleaveScheme::kPermutation, InterleaveScheme::kSubarrayIsolated};

TEST(AddrMapPage, MapPageEqualsPerLineMapAndRoundTrips) {
  uint64_t pages_checked = 0;
  uint64_t row_straddles = 0;
  uint64_t subarray_straddles = 0;
  for (const DramOrg& org : GeometryGrid()) {
    for (InterleaveScheme scheme : kAllSchemes) {
      const AddressMapper mapper(org, scheme);
      const uint64_t frames = mapper.total_lines() / kLinesPerPage;
      // Every page of small geometries, a spread of large ones, and
      // always the last page.
      const uint64_t step = std::max<uint64_t>(1, frames / 97);
      std::vector<uint64_t> sample;
      for (uint64_t frame = 0; frame < frames; frame += step) {
        sample.push_back(frame);
      }
      if (frames > 0) {
        sample.push_back(frames - 1);
      }
      for (uint64_t frame : sample) {
        DdrCoord coords[kLinesPerPage];
        mapper.MapPage(frame, coords);
        for (uint64_t i = 0; i < kLinesPerPage; ++i) {
          const uint64_t line = frame * kLinesPerPage + i;
          ASSERT_EQ(coords[i], mapper.MapLine(line))
              << ToString(scheme) << " ch" << org.channels << " rk" << org.ranks << " bk"
              << org.banks << " sa" << org.subarrays_per_bank << " rps"
              << org.rows_per_subarray << " col" << org.columns << " line " << line;
          ASSERT_EQ(mapper.LineOf(coords[i]), line) << ToString(scheme) << " line " << line;
        }
        ++pages_checked;
        const DdrCoord& first = coords[0];
        const DdrCoord& last = coords[kLinesPerPage - 1];
        row_straddles += first.row != last.row;
        subarray_straddles += org.SubarrayOfRow(first.row) != org.SubarrayOfRow(last.row);
      }
    }
  }
  EXPECT_GT(pages_checked, 10000u);
  EXPECT_GT(row_straddles, 1000u);
  EXPECT_GT(subarray_straddles, 100u);
}

TEST(AddrMapPage, ShiftMaskMapEqualsDivisionOnPowerOfTwoConfigs) {
  uint64_t configs = 0;
  for (uint32_t channels : {1u, 2u, 4u}) {
    for (uint32_t ranks : {1u, 2u}) {
      for (uint32_t banks : {1u, 2u, 16u}) {
        for (uint32_t subarrays : {1u, 2u, 8u}) {
          for (uint32_t rows_per_subarray : {4u, 128u}) {
            for (uint32_t columns : {8u, 128u}) {
              DramOrg org;
              org.channels = channels;
              org.ranks = ranks;
              org.banks = banks;
              org.subarrays_per_bank = subarrays;
              org.rows_per_subarray = rows_per_subarray;
              org.columns = columns;
              for (InterleaveScheme scheme : kAllSchemes) {
                const AddressMapper mapper(org, scheme);
                ASSERT_TRUE(mapper.shift_map()) << ToString(scheme);
                ++configs;
                // Lines past the end too: the top field keeps the high bits
                // on both paths.
                const uint64_t total = mapper.total_lines();
                for (uint64_t line = 0; line < 4 * total; line += 1 + line / 64) {
                  ASSERT_EQ(mapper.MapLine(line), mapper.MapLineByDivision(line))
                      << ToString(scheme) << " line " << line;
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(configs, 3u * 2 * 3 * 3 * 2 * 2 * 4);
}

TEST(AddrMapPage, NonPowerOfTwoRadixKeepsDivisionPath) {
  for (const DramOrg& org : GeometryGrid()) {
    for (InterleaveScheme scheme : kAllSchemes) {
      const AddressMapper mapper(org, scheme);
      if (mapper.shift_map()) {
        // kSubarrayIsolated never divides by rows_per_subarray on its
        // own; whatever takes the shift path must still match.
        for (uint64_t line = 0; line < mapper.total_lines(); line += 13) {
          ASSERT_EQ(mapper.MapLine(line), mapper.MapLineByDivision(line)) << ToString(scheme);
        }
      } else {
        EXPECT_FALSE(std::has_single_bit(org.channels) && std::has_single_bit(org.ranks) &&
                     std::has_single_bit(org.banks) && std::has_single_bit(org.columns) &&
                     std::has_single_bit(org.rows_per_bank()))
            << ToString(scheme);
      }
    }
  }
}

TEST(AddrMapPage, ShippedConfigsTakeTheShiftPath) {
  // The density generations share SimDefault's org; E12 narrows rows to
  // 16 columns and hammerfuzz draws 1, 2 or 4 channels.
  std::vector<DramOrg> orgs = {DramConfig::SimDefault().org, DramConfig::Tiny().org};
  orgs.push_back(orgs[0]);
  orgs.back().columns = 16;
  orgs.push_back(orgs[0]);
  orgs.back().channels = 4;
  for (const DramOrg& org : orgs) {
    for (InterleaveScheme scheme : kAllSchemes) {
      EXPECT_TRUE(AddressMapper(org, scheme).shift_map()) << ToString(scheme);
    }
  }
}

TEST(AddrMap, AddrOfInvertsMap) {
  AddressMapper mapper(DefaultOrg(), InterleaveScheme::kCacheLine);
  const PhysAddr addr = 12345 * kLineBytes;
  EXPECT_EQ(mapper.AddrOf(mapper.Map(addr)), addr);
}

}  // namespace
}  // namespace ht
