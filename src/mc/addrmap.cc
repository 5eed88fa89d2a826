#include "mc/addrmap.h"

#include <bit>

namespace ht {

const char* ToString(InterleaveScheme scheme) {
  switch (scheme) {
    case InterleaveScheme::kBankSequential:
      return "bank-sequential";
    case InterleaveScheme::kCacheLine:
      return "cache-line";
    case InterleaveScheme::kPermutation:
      return "permutation";
    case InterleaveScheme::kSubarrayIsolated:
      return "subarray-isolated";
  }
  return "?";
}

AddressMapper::AddressMapper(const DramOrg& org, InterleaveScheme scheme)
    : org_(org), scheme_(scheme), rows_per_bank_(org.rows_per_bank()) {
  total_lines_ = static_cast<uint64_t>(org_.channels) * org_.ranks * org_.banks *
                 rows_per_bank_ * org_.columns;
  // Lay the fields out from the least significant digit up; the top
  // field is unbounded, so its radix need not be a power of two.
  uint32_t shift = 0;
  bool pow2 = true;
  const auto place = [&](uint32_t& field_shift, uint32_t radix) {
    field_shift = shift;
    pow2 = pow2 && std::has_single_bit(radix);
    shift += static_cast<uint32_t>(std::countr_zero(radix));
  };
  if (scheme_ == InterleaveScheme::kBankSequential) {
    place(shifts_.column, org_.columns);
    place(shifts_.row, rows_per_bank_);
    place(shifts_.bank, org_.banks);
    place(shifts_.rank, org_.ranks);
    shifts_.channel = shift;
  } else {
    place(shifts_.channel, org_.channels);
    place(shifts_.rank, org_.ranks);
    place(shifts_.bank, org_.banks);
    place(shifts_.column, org_.columns);
    shifts_.row = shift;
  }
  shift_map_ = pow2;
}

DdrCoord AddressMapper::MapLineByDivision(uint64_t line) const {
  DdrCoord coord;
  uint64_t l = line;
  switch (scheme_) {
    case InterleaveScheme::kBankSequential: {
      coord.column = static_cast<uint32_t>(l % org_.columns);
      l /= org_.columns;
      coord.row = static_cast<uint32_t>(l % rows_per_bank_);
      l /= rows_per_bank_;
      coord.bank = static_cast<uint32_t>(l % org_.banks);
      l /= org_.banks;
      coord.rank = static_cast<uint32_t>(l % org_.ranks);
      l /= org_.ranks;
      coord.channel = static_cast<uint32_t>(l);
      break;
    }
    case InterleaveScheme::kCacheLine:
    case InterleaveScheme::kPermutation: {
      coord.channel = static_cast<uint32_t>(l % org_.channels);
      l /= org_.channels;
      coord.rank = static_cast<uint32_t>(l % org_.ranks);
      l /= org_.ranks;
      coord.bank = static_cast<uint32_t>(l % org_.banks);
      l /= org_.banks;
      coord.column = static_cast<uint32_t>(l % org_.columns);
      l /= org_.columns;
      coord.row = static_cast<uint32_t>(l);
      if (scheme_ == InterleaveScheme::kPermutation) {
        coord.bank = (coord.bank + coord.row) % org_.banks;
      }
      break;
    }
    case InterleaveScheme::kSubarrayIsolated: {
      coord.channel = static_cast<uint32_t>(l % org_.channels);
      l /= org_.channels;
      coord.rank = static_cast<uint32_t>(l % org_.ranks);
      l /= org_.ranks;
      coord.bank = static_cast<uint32_t>(l % org_.banks);
      l /= org_.banks;
      coord.column = static_cast<uint32_t>(l % org_.columns);
      l /= org_.columns;
      const uint32_t row_within = static_cast<uint32_t>(l % org_.rows_per_subarray);
      l /= org_.rows_per_subarray;
      const uint32_t subarray = static_cast<uint32_t>(l);
      coord.row = subarray * org_.rows_per_subarray + row_within;
      break;
    }
  }
  return coord;
}

void AddressMapper::MapPage(uint64_t frame, DdrCoord out[kLinesPerPage]) const {
  const uint64_t first = frame * kLinesPerPage;
  DdrCoord coord = MapLine(first);
  out[0] = coord;
  if (scheme_ == InterleaveScheme::kBankSequential) {
    // column -> row -> bank -> rank -> channel.
    for (uint64_t i = 1; i < kLinesPerPage; ++i) {
      if (++coord.column == org_.columns) {
        coord.column = 0;
        if (++coord.row == rows_per_bank_) {
          coord.row = 0;
          if (++coord.bank == org_.banks) {
            coord.bank = 0;
            if (++coord.rank == org_.ranks) {
              coord.rank = 0;
              ++coord.channel;
            }
          }
        }
      }
      out[i] = coord;
    }
    return;
  }
  // channel -> rank -> bank -> column -> row. For kSubarrayIsolated the
  // row digit is row-within-subarray -> subarray, whose carry is exactly
  // ++row. kPermutation carries the unpermuted bank digit and re-derives
  // the bank from the row on every line.
  const bool permute = scheme_ == InterleaveScheme::kPermutation;
  uint32_t bank = coord.bank;
  if (permute) {
    bank = static_cast<uint32_t>(
        shift_map_ ? (first >> shifts_.bank) & (org_.banks - 1)
                   : first / (static_cast<uint64_t>(org_.channels) * org_.ranks) % org_.banks);
  }
  for (uint64_t i = 1; i < kLinesPerPage; ++i) {
    if (++coord.channel == org_.channels) {
      coord.channel = 0;
      if (++coord.rank == org_.ranks) {
        coord.rank = 0;
        if (++bank == org_.banks) {
          bank = 0;
          if (++coord.column == org_.columns) {
            coord.column = 0;
            ++coord.row;
          }
        }
      }
    }
    coord.bank = bank;
    if (permute) {
      coord.bank = shift_map_ ? (bank + coord.row) & (org_.banks - 1)
                              : (bank + coord.row) % org_.banks;
    }
    out[i] = coord;
  }
}

uint64_t AddressMapper::LineOf(const DdrCoord& coord) const {
  switch (scheme_) {
    case InterleaveScheme::kBankSequential: {
      uint64_t l = coord.channel;
      l = l * org_.ranks + coord.rank;
      l = l * org_.banks + coord.bank;
      l = l * org_.rows_per_bank() + coord.row;
      l = l * org_.columns + coord.column;
      return l;
    }
    case InterleaveScheme::kCacheLine:
    case InterleaveScheme::kPermutation: {
      uint32_t bank = coord.bank;
      if (scheme_ == InterleaveScheme::kPermutation) {
        bank = (coord.bank + org_.banks - coord.row % org_.banks) % org_.banks;
      }
      uint64_t l = coord.row;
      l = l * org_.columns + coord.column;
      l = l * org_.banks + bank;
      l = l * org_.ranks + coord.rank;
      l = l * org_.channels + coord.channel;
      return l;
    }
    case InterleaveScheme::kSubarrayIsolated: {
      const uint32_t subarray = org_.SubarrayOfRow(coord.row);
      const uint32_t row_within = org_.RowWithinSubarray(coord.row);
      uint64_t l = subarray;
      l = l * org_.rows_per_subarray + row_within;
      l = l * org_.columns + coord.column;
      l = l * org_.banks + coord.bank;
      l = l * org_.ranks + coord.rank;
      l = l * org_.channels + coord.channel;
      return l;
    }
  }
  return 0;
}

}  // namespace ht
