// Dense storage for row contents plus bit-flip corruption injection.
//
// To keep memory bounded we store one 64-bit word per cache-line-sized
// column — enough to detect and localize corruption (which line of which
// row, which bit) without holding 64 bytes per line. Experiments write
// known patterns and later verify them; a Rowhammer flip XORs a random bit
// of a random column, so verification fails exactly like it would on real
// hardware.
//
// Rows are addressed by a dense key in [0, rows) (the device uses
// (rank * banks + bank) * rows_per_bank + row). The index holds one
// pointer per row; a row's column words are allocated on its first write,
// so a never-written row costs one null pointer.
#ifndef HAMMERTIME_SRC_DRAM_DATA_STORE_H_
#define HAMMERTIME_SRC_DRAM_DATA_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace ht {

class RowDataStore {
 public:
  RowDataStore(uint64_t rows, uint32_t columns, uint64_t flip_seed)
      : columns_(columns), rng_(flip_seed), rows_(rows) {}

  // Writes the representative word for (row_key, column). Throws
  // std::out_of_range for a row_key outside the index. A write to an
  // already-populated row while no word holds corruption is one store.
  void WriteLine(uint64_t row_key, uint32_t column, uint64_t value) {
    if (row_key < rows_.size() && rows_[row_key] != nullptr && corruption_.empty()) {
      rows_[row_key][column] = value;
      return;
    }
    WriteLineSlow(row_key, column, value);
  }

  // Reads the representative word; rows never written (or outside the
  // index) read as zero.
  uint64_t ReadLine(uint64_t row_key, uint32_t column) const {
    const uint64_t* row = Row(row_key);
    return row == nullptr ? 0 : row[column];
  }

  // Whether any line of the row has ever been written.
  bool RowPopulated(uint64_t row_key) const { return Row(row_key) != nullptr; }

  // Flips `bits` random bits across the row. Returns the number of bits
  // actually flipped in stored data (0 if the row was never written; the
  // caller still records the flip event).
  uint32_t FlipRandomBits(uint64_t row_key, uint32_t bits);

  // XOR distance between the stored word and the last written (clean)
  // word — the accumulated Rowhammer corruption of that word. Writes
  // clear it. ECC decisions key off its popcount.
  uint64_t CorruptionMask(uint64_t row_key, uint32_t column) const {
    return corruption_.empty() ? 0 : CorruptionMaskSlow(row_key, column);
  }

  size_t populated_rows() const { return populated_rows_; }

 private:
  const uint64_t* Row(uint64_t row_key) const {
    return row_key < rows_.size() ? rows_[row_key].get() : nullptr;
  }
  void WriteLineSlow(uint64_t row_key, uint32_t column, uint64_t value);
  uint64_t CorruptionMaskSlow(uint64_t row_key, uint32_t column) const;
  uint64_t MaskKey(uint64_t row_key, uint32_t column) const {
    return row_key * columns_ + column;
  }

  uint32_t columns_;
  Rng rng_;
  std::vector<std::unique_ptr<uint64_t[]>> rows_;  // Null until first write.
  size_t populated_rows_ = 0;
  std::unordered_map<uint64_t, uint64_t> corruption_;  // MaskKey -> mask.
};

}  // namespace ht

#endif  // HAMMERTIME_SRC_DRAM_DATA_STORE_H_
