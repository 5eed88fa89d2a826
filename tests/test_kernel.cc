#include "os/kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>
#include <vector>

namespace ht {
namespace {

class KernelTest : public ::testing::Test {
 protected:
  KernelTest()
      : mc_(DramConfig::SimDefault(), McConfig{}),
        alloc_(mc_.mapper().total_lines() / kLinesPerPage),
        kernel_(&mc_, &alloc_) {}

  MemoryController mc_;
  LinearAllocator alloc_;
  HostKernel kernel_;
};

TEST_F(KernelTest, AllocRegionMapsContiguousVa) {
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  auto base = kernel_.AllocRegion(d, 4);
  ASSERT_TRUE(base.has_value());
  for (uint64_t p = 0; p < 4; ++p) {
    EXPECT_TRUE(kernel_.Translate(d, *base + p * kPageBytes).has_value());
  }
  EXPECT_FALSE(kernel_.Translate(d, *base + 4 * kPageBytes).has_value());
}

TEST_F(KernelTest, TranslationPreservesPageOffset) {
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  auto base = kernel_.AllocRegion(d, 1);
  const auto pa = kernel_.Translate(d, *base + 123);
  ASSERT_TRUE(pa.has_value());
  EXPECT_EQ(*pa % kPageBytes, 123u);
}

TEST_F(KernelTest, DomainsAreDisjoint) {
  const DomainId a = kernel_.CreateDomain({.name = "a"});
  const DomainId b = kernel_.CreateDomain({.name = "b"});
  auto base_a = kernel_.AllocRegion(a, 8);
  auto base_b = kernel_.AllocRegion(b, 8);
  std::set<uint64_t> frames;
  for (uint64_t p = 0; p < 8; ++p) {
    frames.insert(*kernel_.Translate(a, *base_a + p * kPageBytes) / kPageBytes);
    frames.insert(*kernel_.Translate(b, *base_b + p * kPageBytes) / kPageBytes);
  }
  EXPECT_EQ(frames.size(), 16u);
  // Ownership is recorded.
  EXPECT_EQ(kernel_.OwnerOfPhys(*kernel_.Translate(a, *base_a)), a);
  EXPECT_EQ(kernel_.OwnerOfPhys(*kernel_.Translate(b, *base_b)), b);
}

TEST_F(KernelTest, FillAndVerifyClean) {
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  auto base = kernel_.AllocRegion(d, 4);
  kernel_.FillRegion(d, *base, 4);
  const VerifyResult result = kernel_.VerifyRegion(d, *base, 4);
  EXPECT_EQ(result.lines_checked, 4 * kLinesPerPage);
  EXPECT_EQ(result.corrupted_lines, 0u);
}

TEST_F(KernelTest, VerifyDetectsCorruption) {
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  auto base = kernel_.AllocRegion(d, 1);
  kernel_.FillRegion(d, *base, 1);
  // Corrupt one line directly in DRAM.
  const PhysAddr pa = *kernel_.Translate(d, *base);
  const DdrCoord coord = mc_.mapper().Map(pa);
  const uint64_t good = mc_.device(coord.channel)
                            .ReadLine(coord.rank, coord.bank, coord.row, coord.column);
  mc_.device(coord.channel)
      .WriteLine(coord.rank, coord.bank, coord.row, coord.column, good ^ 1);
  const VerifyResult result = kernel_.VerifyRegion(d, *base, 1);
  EXPECT_EQ(result.corrupted_lines, 1u);
  EXPECT_EQ(result.dos_lockups, 0u);  // Not an enclave.
}

TEST_F(KernelTest, IntegrityCheckedEnclaveCorruptionIsDos) {
  const DomainId d = kernel_.CreateDomain(
      {.name = "enclave", .enclave = true, .integrity_checked = true});
  auto base = kernel_.AllocRegion(d, 1);
  kernel_.FillRegion(d, *base, 1);
  const PhysAddr pa = *kernel_.Translate(d, *base);
  const DdrCoord coord = mc_.mapper().Map(pa);
  mc_.device(coord.channel).WriteLine(coord.rank, coord.bank, coord.row, coord.column, ~0ull);
  const VerifyResult result = kernel_.VerifyRegion(d, *base, 1);
  EXPECT_EQ(result.corrupted_lines, 1u);
  EXPECT_EQ(result.dos_lockups, 1u);
}

TEST_F(KernelTest, NeighborRowAddrsMapToAdjacentRows) {
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  auto base = kernel_.AllocRegion(d, 1);
  const PhysAddr pa = *kernel_.Translate(d, *base);
  const DdrCoord coord = mc_.mapper().Map(pa);
  const auto neighbors = kernel_.NeighborRowAddrs(pa, 2);
  ASSERT_FALSE(neighbors.empty());
  for (PhysAddr n : neighbors) {
    const DdrCoord nc = mc_.mapper().Map(n);
    EXPECT_EQ(nc.channel, coord.channel);
    EXPECT_EQ(nc.rank, coord.rank);
    EXPECT_EQ(nc.bank, coord.bank);
    const uint32_t dist = nc.row > coord.row ? nc.row - coord.row : coord.row - nc.row;
    EXPECT_GE(dist, 1u);
    EXPECT_LE(dist, 2u);
  }
}

TEST_F(KernelTest, NeighborRowAddrsClampAtEdges) {
  // Row 0 has no lower neighbours.
  const PhysAddr pa = 0;  // Maps to row 0 in every scheme.
  const uint32_t blast = 3;
  const auto neighbors = kernel_.NeighborRowAddrs(pa, blast);
  EXPECT_EQ(neighbors.size(), blast);  // Upper side only.
}

TEST_F(KernelTest, MovePagePreservesContentsAndRemaps) {
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  auto base = kernel_.AllocRegion(d, 2);
  kernel_.FillRegion(d, *base, 2);
  const PhysAddr old_pa = *kernel_.Translate(d, *base);
  ASSERT_TRUE(kernel_.MovePage(d, *base));
  const PhysAddr new_pa = *kernel_.Translate(d, *base);
  EXPECT_NE(old_pa / kPageBytes, new_pa / kPageBytes);
  // Contents moved: verification still passes.
  const VerifyResult result = kernel_.VerifyRegion(d, *base, 2);
  EXPECT_EQ(result.corrupted_lines, 0u);
  EXPECT_EQ(kernel_.page_moves(), 1u);
  // Ownership tables updated.
  EXPECT_EQ(kernel_.OwnerOfPhys(new_pa), d);
  EXPECT_EQ(kernel_.OwnerOfPhys(old_pa), kInvalidDomain);
}

TEST_F(KernelTest, MovePageCarriesCorruption) {
  // §4.2 wear-leveling moves data as-is; it must not "heal" flips.
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  auto base = kernel_.AllocRegion(d, 1);
  kernel_.FillRegion(d, *base, 1);
  const PhysAddr pa = *kernel_.Translate(d, *base);
  const DdrCoord coord = mc_.mapper().Map(pa);
  const uint64_t good =
      mc_.device(coord.channel).ReadLine(coord.rank, coord.bank, coord.row, coord.column);
  mc_.device(coord.channel).WriteLine(coord.rank, coord.bank, coord.row, coord.column, good ^ 4);
  ASSERT_TRUE(kernel_.MovePage(d, *base));
  EXPECT_EQ(kernel_.VerifyRegion(d, *base, 1).corrupted_lines, 1u);
}

TEST_F(KernelTest, LocatePhysFindsPage) {
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  auto base = kernel_.AllocRegion(d, 3);
  const PhysAddr pa = *kernel_.Translate(d, *base + 2 * kPageBytes + 100);
  const auto located = kernel_.LocatePhys(pa);
  ASSERT_TRUE(located.has_value());
  EXPECT_EQ(located->first, d);
  EXPECT_EQ(located->second, *base + 2 * kPageBytes);
}

TEST_F(KernelTest, MovePageByPhysWorks) {
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  auto base = kernel_.AllocRegion(d, 1);
  const PhysAddr pa = *kernel_.Translate(d, *base);
  EXPECT_TRUE(kernel_.MovePageByPhys(pa + 77));
  EXPECT_NE(*kernel_.Translate(d, *base), pa);
  EXPECT_FALSE(kernel_.MovePageByPhys(pa + 77));  // Old frame unmapped now.
}

TEST_F(KernelTest, RowOwnersListsDomainsInRow) {
  const DomainId a = kernel_.CreateDomain({.name = "a"});
  auto base = kernel_.AllocRegion(a, 16);
  const PhysAddr pa = *kernel_.Translate(a, *base);
  const DdrCoord coord = mc_.mapper().Map(pa);
  const auto owners = kernel_.RowOwners(coord.channel, coord.rank, coord.bank, coord.row);
  ASSERT_FALSE(owners.empty());
  EXPECT_EQ(owners[0], a);
}

TEST_F(KernelTest, PatternValueDependsOnDomainAndAddress) {
  EXPECT_NE(HostKernel::PatternValue(1, 0), HostKernel::PatternValue(2, 0));
  EXPECT_NE(HostKernel::PatternValue(1, 0), HostKernel::PatternValue(1, 64));
  EXPECT_EQ(HostKernel::PatternValue(1, 64), HostKernel::PatternValue(1, 64));
}

TEST_F(KernelTest, TranslatorClosureMatchesTranslate) {
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  auto base = kernel_.AllocRegion(d, 1);
  auto translator = kernel_.TranslatorFor(d);
  EXPECT_EQ(translator(*base), kernel_.Translate(d, *base));
  EXPECT_FALSE(translator(0xDEAD0000).has_value());
}

TEST_F(KernelTest, TranslateMissesDeadAndUnknownDomains) {
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  const DomainId gone = kernel_.CreateDomain({.name = "gone"});
  auto base = kernel_.AllocRegion(d, 1);
  auto gone_base = kernel_.AllocRegion(gone, 1);
  kernel_.DestroyDomain(gone);
  const DomainId past_table = gone + 100;
  // Id 0 is never handed out; ids past the table were never created.
  for (DomainId id : {DomainId{0}, gone, past_table}) {
    EXPECT_FALSE(kernel_.Translate(id, *gone_base).has_value()) << id;
    EXPECT_FALSE(kernel_.HasDomain(id)) << id;
    EXPECT_THROW(kernel_.space(id), std::out_of_range) << id;
    EXPECT_THROW(kernel_.spec(id), std::out_of_range) << id;
  }
  EXPECT_THROW(kernel_.AllocRegion(gone, 1), std::out_of_range);
  EXPECT_THROW(kernel_.VerifyRegion(gone, *gone_base, 1), std::out_of_range);
  // The live domain is untouched, and ids are not reused.
  EXPECT_TRUE(kernel_.Translate(d, *base).has_value());
  EXPECT_EQ(kernel_.spec(d).name, "a");
  EXPECT_EQ(kernel_.CreateDomain({.name = "b"}), gone + 1);
}

TEST_F(KernelTest, VerifyCountsOneCorruptLineOnInnerPage) {
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  auto base = kernel_.AllocRegion(d, 4);
  kernel_.FillRegion(d, *base, 4);
  // Line 17 of page 2: neither the region's first page nor a page edge.
  const PhysAddr pa = *kernel_.Translate(d, *base + 2 * kPageBytes + 17 * kLineBytes);
  const DdrCoord coord = mc_.mapper().Map(pa);
  DramDevice& device = mc_.device(coord.channel);
  const uint64_t good = device.ReadLine(coord.rank, coord.bank, coord.row, coord.column);
  device.WriteLine(coord.rank, coord.bank, coord.row, coord.column, good ^ 8);
  const VerifyResult result = kernel_.VerifyRegion(d, *base, 4);
  EXPECT_EQ(result.lines_checked, 4 * kLinesPerPage);
  EXPECT_EQ(result.corrupted_lines, 1u);
  const VerifyResult all = kernel_.VerifyAll();
  EXPECT_EQ(all.lines_checked, 4 * kLinesPerPage);
  EXPECT_EQ(all.corrupted_lines, 1u);
}

// What FillRegion/VerifyRegion cover, walked line by line through
// Translate: the `pages * kLinesPerPage` lines from `base` whose VA page
// is mapped. Checks that each such line's DRAM word holds its pattern
// and returns how many there are.
uint64_t CheckFilledLines(HostKernel& kernel, DomainId d, VirtAddr base, uint64_t pages) {
  MemoryController& mc = kernel.mc();
  uint64_t mapped = 0;
  for (uint64_t i = 0; i < pages * kLinesPerPage; ++i) {
    const VirtAddr va = base + i * kLineBytes;
    const std::optional<PhysAddr> pa = kernel.Translate(d, va);
    if (!pa.has_value()) {
      continue;
    }
    ++mapped;
    const DdrCoord c = mc.mapper().Map(*pa);
    EXPECT_EQ(mc.device(c.channel).ReadLine(c.rank, c.bank, c.row, c.column),
              HostKernel::PatternValue(d, va))
        << "va " << va;
  }
  return mapped;
}

TEST_F(KernelTest, FillAndVerifyNonPageAlignedBase) {
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  const VirtAddr base = *kernel_.AllocRegion(d, 4);
  // 3 lines and 8 bytes into the first page: the 3-page region touches
  // four pages, partly at each end.
  const VirtAddr start = base + 3 * kLineBytes + 8;
  kernel_.FillRegion(d, start, 3);
  EXPECT_EQ(CheckFilledLines(kernel_, d, start, 3), 3 * kLinesPerPage);
  const VerifyResult result = kernel_.VerifyRegion(d, start, 3);
  EXPECT_EQ(result.lines_checked, 3 * kLinesPerPage);
  EXPECT_EQ(result.corrupted_lines, 0u);

  // Four pages from 200 bytes in run 3 lines into the unmapped fifth page.
  kernel_.FillRegion(d, base + 200, 4);
  EXPECT_EQ(CheckFilledLines(kernel_, d, base + 200, 4), 4 * kLinesPerPage - 3);
  EXPECT_EQ(kernel_.VerifyRegion(d, base + 200, 4).lines_checked, 4 * kLinesPerPage - 3);
}

TEST_F(KernelTest, FillAndVerifySkipUnmappedPage) {
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  const VirtAddr base = *kernel_.AllocRegion(d, 3);
  kernel_.space(d).UnmapPage(base + kPageBytes);
  kernel_.FillRegion(d, base, 3);
  EXPECT_EQ(CheckFilledLines(kernel_, d, base, 3), 2 * kLinesPerPage);
  const VerifyResult result = kernel_.VerifyRegion(d, base, 3);
  EXPECT_EQ(result.lines_checked, 2 * kLinesPerPage);
  EXPECT_EQ(result.corrupted_lines, 0u);
  // Unaligned as well: 59 lines of page 0, none of page 1, 5 of page 2.
  EXPECT_EQ(kernel_.VerifyRegion(d, base + 5 * kLineBytes, 2).lines_checked, 64u);
}

TEST_F(KernelTest, FrameRecordFollowsMoveAndDestroy) {
  const DomainId d = kernel_.CreateDomain({.name = "a"});
  auto base = kernel_.AllocRegion(d, 2);
  const uint64_t old_frame = *kernel_.Translate(d, *base + kPageBytes) / kPageBytes;
  const uint64_t kept_frame = *kernel_.Translate(d, *base) / kPageBytes;
  const auto new_frame = alloc_.AllocFrame(d);
  ASSERT_TRUE(new_frame.has_value());
  ASSERT_TRUE(kernel_.MovePageToFrame(d, *base + kPageBytes + 5, *new_frame));

  EXPECT_EQ(kernel_.OwnerOfFrame(*new_frame), d);
  EXPECT_EQ(kernel_.OwnerOfFrame(old_frame), kInvalidDomain);
  const auto located = kernel_.LocatePhys(*new_frame * kPageBytes + 300);
  ASSERT_TRUE(located.has_value());
  EXPECT_EQ(located->first, d);
  EXPECT_EQ(located->second, *base + kPageBytes);
  EXPECT_FALSE(kernel_.LocatePhys(old_frame * kPageBytes).has_value());
  std::vector<uint64_t> expected = {kept_frame, *new_frame};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(kernel_.MappedFrames(), expected);

  kernel_.DestroyDomain(d);
  for (uint64_t frame : {kept_frame, *new_frame, old_frame}) {
    EXPECT_EQ(kernel_.OwnerOfFrame(frame), kInvalidDomain) << frame;
    EXPECT_FALSE(kernel_.LocatePhys(frame * kPageBytes).has_value()) << frame;
  }
  EXPECT_TRUE(kernel_.MappedFrames().empty());
  EXPECT_EQ(kernel_.OwnerOfFrame(~uint64_t{0} / kPageBytes), kInvalidDomain);
}

}  // namespace
}  // namespace ht
