#include "dram/data_store.h"

namespace ht {

void RowDataStore::WriteLineSlow(uint64_t row_key, uint32_t column, uint64_t value) {
  std::unique_ptr<uint64_t[]>& row = rows_.at(row_key);
  if (row == nullptr) {
    row = std::make_unique<uint64_t[]>(columns_);  // Zero-filled.
    ++populated_rows_;
  }
  row[column] = value;
  if (!corruption_.empty()) {
    corruption_.erase(MaskKey(row_key, column));  // Fresh data is clean.
  }
}

uint32_t RowDataStore::FlipRandomBits(uint64_t row_key, uint32_t bits) {
  if (!RowPopulated(row_key)) {
    // Still consume RNG draws (two per bit: column + bit position) so flip
    // positions stay deterministic regardless of which rows hold data.
    for (uint32_t i = 0; i < bits; ++i) {
      rng_.Next();
      rng_.Next();
    }
    return 0;
  }
  uint64_t* row = rows_[row_key].get();
  for (uint32_t i = 0; i < bits; ++i) {
    const uint32_t column = static_cast<uint32_t>(rng_.NextBelow(columns_));
    const uint32_t bit = static_cast<uint32_t>(rng_.NextBelow(64));
    row[column] ^= (1ULL << bit);
    corruption_[MaskKey(row_key, column)] ^= (1ULL << bit);
  }
  return bits;
}

uint64_t RowDataStore::CorruptionMaskSlow(uint64_t row_key, uint32_t column) const {
  auto it = corruption_.find(MaskKey(row_key, column));
  return it == corruption_.end() ? 0 : it->second;
}

}  // namespace ht
