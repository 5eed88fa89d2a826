// Physical-address to DDR-logical-address mapping (§2.1: "the memory
// controller converts requests targeting CPU physical addresses into
// commands targeting DDR logical addresses ... according to a fixed
// mapping determined by BIOS settings").
//
// Four BIOS-selectable schemes are modeled:
//  * kBankSequential  — no interleaving: consecutive lines fill a row,
//                       then the next row of the same bank. The BIOS
//                       fallback §4.1 calls "an undesirable solution".
//  * kCacheLine       — classic fine-grained interleaving: consecutive
//                       lines rotate channel → rank → bank, achieving
//                       bank-level parallelism but mixing every page
//                       across every bank (the isolation problem).
//  * kPermutation     — cache-line interleaving with the bank index
//                       permuted by row bits (Zhang et al. [63]) to cut
//                       row-buffer conflicts for strided streams.
//  * kSubarrayIsolated— the paper's proposed primitive (§4.1, Fig. 2):
//                       identical bank-level interleaving, but the
//                       subarray index is taken from the top physical
//                       bits, so the OS can pin each trust domain to its
//                       own subarray group while keeping interleaving.
#ifndef HAMMERTIME_SRC_MC_ADDRMAP_H_
#define HAMMERTIME_SRC_MC_ADDRMAP_H_

#include <cstdint>

#include "common/types.h"
#include "dram/config.h"

namespace ht {

enum class InterleaveScheme : uint8_t {
  kBankSequential,
  kCacheLine,
  kPermutation,
  kSubarrayIsolated,
};

const char* ToString(InterleaveScheme scheme);

class AddressMapper {
 public:
  AddressMapper(const DramOrg& org, InterleaveScheme scheme);

  // Total mappable lines / bytes.
  uint64_t total_lines() const { return total_lines_; }
  uint64_t capacity_bytes() const { return total_lines_ * kLineBytes; }

  // Maps a line-aligned physical address to its DDR coordinate.
  DdrCoord Map(PhysAddr addr) const { return MapLine(addr / kLineBytes); }
  // Shifts and masks when every radix the scheme divides by is a power
  // of two (every shipped config), otherwise the division chain.
  DdrCoord MapLine(uint64_t line) const {
    return shift_map_ ? MapLineByShift(line) : MapLineByDivision(line);
  }
  // The reference mapping, defined for every geometry; the shift/mask
  // path must agree with it wherever it is taken.
  DdrCoord MapLineByDivision(uint64_t line) const;
  bool shift_map() const { return shift_map_; }

  // Coordinates of the kLinesPerPage lines of page `frame`, in line
  // order: out[i] == MapLine(frame * kLinesPerPage + i). Maps the first
  // line once, then carries through the scheme's mixed-radix digits.
  void MapPage(uint64_t frame, DdrCoord out[kLinesPerPage]) const;

  // Inverse mapping: DDR coordinate back to the line index / address.
  uint64_t LineOf(const DdrCoord& coord) const;
  PhysAddr AddrOf(const DdrCoord& coord) const { return LineOf(coord) * kLineBytes; }

  InterleaveScheme scheme() const { return scheme_; }
  const DramOrg& org() const { return org_; }

  // For kSubarrayIsolated: physical frames are partitioned into
  // `subarrays_per_bank` equal contiguous bands; band i maps onto
  // subarray i of every bank. These helpers let the OS allocator find a
  // band's frame range.
  uint64_t LinesPerSubarrayBand() const { return total_lines_ / org_.subarrays_per_bank; }
  uint32_t SubarrayBandOfLine(uint64_t line) const {
    return static_cast<uint32_t>(line / LinesPerSubarrayBand());
  }

 private:
  // Right-shift of each coordinate field in the line index, used only
  // when shift_map_. The most significant field (channel for
  // kBankSequential, row otherwise) keeps every bit above its shift.
  struct FieldShifts {
    uint32_t channel = 0;
    uint32_t rank = 0;
    uint32_t bank = 0;
    uint32_t row = 0;
    uint32_t column = 0;
  };

  DdrCoord MapLineByShift(uint64_t line) const {
    const auto field = [line](uint32_t shift, uint32_t radix) {
      return static_cast<uint32_t>((line >> shift) & (radix - 1));
    };
    DdrCoord coord;
    coord.column = field(shifts_.column, org_.columns);
    coord.bank = field(shifts_.bank, org_.banks);
    coord.rank = field(shifts_.rank, org_.ranks);
    if (scheme_ == InterleaveScheme::kBankSequential) {
      coord.row = field(shifts_.row, rows_per_bank_);
      coord.channel = static_cast<uint32_t>(line >> shifts_.channel);
      return coord;
    }
    coord.channel = field(shifts_.channel, org_.channels);
    // kSubarrayIsolated's subarray * rows_per_subarray + row_within is the
    // quotient itself, so it shares kCacheLine's row field.
    coord.row = static_cast<uint32_t>(line >> shifts_.row);
    if (scheme_ == InterleaveScheme::kPermutation) {
      coord.bank = (coord.bank + coord.row) & (org_.banks - 1);
    }
    return coord;
  }

  DramOrg org_;
  InterleaveScheme scheme_;
  uint64_t total_lines_;
  uint32_t rows_per_bank_;
  bool shift_map_ = false;
  FieldShifts shifts_;
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_MC_ADDRMAP_H_
