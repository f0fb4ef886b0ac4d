// Schema: ordered list of typed columns plus tuple (de)serialization between
// the executor representation (vector<Value>) and page bytes.

#ifndef SMOOTHSCAN_STORAGE_SCHEMA_H_
#define SMOOTHSCAN_STORAGE_SCHEMA_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace smoothscan {

/// A tuple in executor representation: one Value per column.
using Tuple = std::vector<Value>;

/// Little-endian 8-byte load — the primitive of every decode hot loop. On
/// little-endian hosts it compiles to a single mov; the byte-wise fallback
/// keeps big-endian hosts correct. Serialization must stay byte-for-byte
/// symmetric with this (see schema.cc PutU64).
inline uint64_t LoadU64LE(const uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  } else {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
  }
}

/// One column of a schema.
struct Column {
  std::string name;
  ValueType type;
};

/// Ordered, immutable column list. Serialization format: fixed-width columns
/// are 8-byte little-endian; strings are a 4-byte length followed by bytes,
/// laid out in column order.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns) : columns_(std::move(columns)) {
    for (const Column& c : columns_) {
      if (!smoothscan::IsFixedWidth(c.type)) fixed_width_ = false;
      if (c.type != ValueType::kInt64) all_int64_ = false;
    }
  }

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of the column named `name`, or -1 when absent.
  int FindColumn(const std::string& name) const;

  /// Appends the serialized form of `tuple` to `out`. Aborts on schema
  /// mismatch (a programming error).
  void Serialize(const Tuple& tuple, std::vector<uint8_t>* out) const;

  /// Parses one tuple from `data` of `size` bytes.
  Tuple Deserialize(const uint8_t* data, uint32_t size) const;

  /// Parses one tuple from `data` into `out`, reusing `out`'s storage. The
  /// vectorized scan hot path decodes into recycled TupleBatch slots with
  /// this, and the steady state performs no allocation: fixed-width schemas
  /// decode inline in the caller's loop; var-width schemas assign each
  /// string into the slot's existing buffer (Value::SetString), which
  /// allocates only when a string outgrows it.
  void DeserializeInto(const uint8_t* data, uint32_t size, Tuple* out) const {
    if (fixed_width_) {
      // Scan hot path: direct 8-byte loads into recycled slots, bounds
      // checked once per tuple.
      SMOOTHSCAN_CHECK(static_cast<uint32_t>(columns_.size()) * 8 <= size);
      const size_t n = columns_.size();
      out->resize(n);
      Value* slots = out->data();
      if (all_int64_) {
        // The micro-benchmark's schema: no per-column type dispatch at all.
        for (size_t c = 0; c < n; ++c) {
          slots[c].SetInt64(static_cast<int64_t>(LoadU64LE(data + c * 8)));
        }
        return;
      }
      for (size_t c = 0; c < n; ++c) {
        const uint64_t bits = LoadU64LE(data + c * 8);
        switch (columns_[c].type) {
          case ValueType::kInt64:
            slots[c].SetInt64(static_cast<int64_t>(bits));
            break;
          case ValueType::kDate:
            slots[c].SetDate(static_cast<int64_t>(bits));
            break;
          default: {
            double d;
            std::memcpy(&d, &bits, sizeof(d));
            slots[c].SetDouble(d);
            break;
          }
        }
      }
      return;
    }
    DeserializeVarWidthInto(data, size, out);
  }

  /// Deserializes only column `col` — the common case for predicate
  /// evaluation, avoiding materializing the full tuple.
  Value DeserializeColumn(const uint8_t* data, uint32_t size, size_t col) const;

  /// Reads INT64/DATE column `col` without materializing a Value — the
  /// per-tuple key check of every scan's hot loop. Inline; takes the direct
  /// 8-byte load for fixed-width schemas and walks the string lengths before
  /// `col` for var-width ones.
  int64_t ReadInt64Column(const uint8_t* data, uint32_t size,
                          size_t col) const {
    SMOOTHSCAN_CHECK(columns_[col].type == ValueType::kInt64 ||
                     columns_[col].type == ValueType::kDate);
    const uint32_t off = fixed_width_ ? static_cast<uint32_t>(col) * 8
                                      : VarWidthOffset(data, size, col);
    SMOOTHSCAN_CHECK(off + 8 <= size);
    return static_cast<int64_t>(LoadU64LE(data + off));
  }

  /// Serialized size in bytes of `tuple` under this schema.
  uint32_t SerializedSize(const Tuple& tuple) const;

  /// True when every column is fixed width (all tuples have the same size).
  bool IsFixedWidth() const { return fixed_width_; }

 private:
  /// Byte offset of column `col` in a var-width tuple.
  uint32_t VarWidthOffset(const uint8_t* data, uint32_t size,
                          size_t col) const;

  /// Out-of-line decode for schemas with variable-width (string) columns.
  void DeserializeVarWidthInto(const uint8_t* data, uint32_t size,
                               Tuple* out) const;

  std::vector<Column> columns_;
  bool fixed_width_ = true;  ///< Cached: scans branch on it per tuple.
  bool all_int64_ = true;    ///< Cached: enables the dispatch-free decode.
};

/// Convenience constructor for the ubiquitous all-INT64 schemas of the
/// micro-benchmark: columns are named c1..cN.
Schema MakeIntSchema(size_t num_columns);

}  // namespace smoothscan

#endif  // SMOOTHSCAN_STORAGE_SCHEMA_H_
