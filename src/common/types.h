// Fundamental value types shared across the smoothscan library: column types,
// typed values, tuple identifiers and page-size constants.

#ifndef SMOOTHSCAN_COMMON_TYPES_H_
#define SMOOTHSCAN_COMMON_TYPES_H_

#include <cstdint>
#include <compare>
#include <string>

#include "common/status.h"

namespace smoothscan {

/// Page identifier within a heap file or index file.
using PageId = uint32_t;
/// Slot number within a page.
using SlotId = uint16_t;
/// File identifier assigned by the StorageManager.
using FileId = uint32_t;

inline constexpr PageId kInvalidPageId = UINT32_MAX;

/// Default page size, matching PostgreSQL's 8 KB default used in the paper.
inline constexpr uint32_t kDefaultPageSize = 8192;

/// Tuple identifier: the physical address of a heap tuple. Secondary index
/// leaves store (key, Tid) pairs pointing into the heap.
struct Tid {
  PageId page_id = kInvalidPageId;
  SlotId slot = 0;

  friend auto operator<=>(const Tid&, const Tid&) = default;
};

/// Column type tags. Dates are stored as days since 1970-01-01 in an Int64.
enum class ValueType : uint8_t {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,
  kDate = 3,
};

/// Returns "INT64", "DOUBLE", "STRING" or "DATE".
const char* ValueTypeToString(ValueType type);

/// True for types with a fixed-width serialized representation.
inline bool IsFixedWidth(ValueType type) { return type != ValueType::kString; }

/// Serialized width in bytes for fixed-width types.
inline uint32_t FixedWidth(ValueType type) {
  return IsFixedWidth(type) ? 8u : 0u;
}

/// A typed runtime value. Used at the executor boundary; the storage layer
/// serializes values into page bytes (see storage/schema.h).
///
/// Representation: a hand-rolled 16-byte tagged union rather than
/// std::variant. Numeric values (the overwhelming majority in every scan hot
/// loop) copy as two register stores with no alternative dispatch; strings
/// live behind an owned heap pointer. This halves tuple memory traffic and
/// keeps batch decode at hardware speed.
class Value {
 public:
  Value() : type_(ValueType::kInt64) { rep_.i = 0; }

  static Value Int64(int64_t v) {
    Value out(ValueType::kInt64);
    out.rep_.i = v;
    return out;
  }
  static Value Double(double v) {
    Value out(ValueType::kDouble);
    out.rep_.d = v;
    return out;
  }
  static Value String(std::string v) {
    Value out(ValueType::kString);
    out.rep_.s = new std::string(std::move(v));
    return out;
  }
  /// `days` is days since the epoch.
  static Value Date(int64_t days) {
    Value out(ValueType::kDate);
    out.rep_.i = days;
    return out;
  }

  Value(const Value& other) : rep_(other.rep_), type_(other.type_) {
    if (type_ == ValueType::kString) rep_.s = new std::string(*other.rep_.s);
  }
  Value(Value&& other) noexcept : rep_(other.rep_), type_(other.type_) {
    other.rep_.i = 0;
    other.type_ = ValueType::kInt64;
  }
  Value& operator=(const Value& other) {
    if (this == &other) return *this;
    if (type_ == ValueType::kString) {
      if (other.type_ == ValueType::kString) {
        *rep_.s = *other.rep_.s;  // Reuse the existing string's storage.
        return *this;
      }
      delete rep_.s;
    }
    type_ = other.type_;
    rep_ = other.rep_;
    if (type_ == ValueType::kString) rep_.s = new std::string(*other.rep_.s);
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this == &other) return *this;
    if (type_ == ValueType::kString) delete rep_.s;
    rep_ = other.rep_;
    type_ = other.type_;
    other.rep_.i = 0;
    other.type_ = ValueType::kInt64;
    return *this;
  }
  ~Value() {
    if (type_ == ValueType::kString) delete rep_.s;
  }

  ValueType type() const { return type_; }

  /// In-place numeric mutators for batch decode: overwrite this value
  /// without constructing a temporary.
  void SetInt64(int64_t v) {
    if (type_ == ValueType::kString) delete rep_.s;
    type_ = ValueType::kInt64;
    rep_.i = v;
  }
  void SetDate(int64_t days) {
    if (type_ == ValueType::kString) delete rep_.s;
    type_ = ValueType::kDate;
    rep_.i = days;
  }
  void SetDouble(double v) {
    if (type_ == ValueType::kString) delete rep_.s;
    type_ = ValueType::kDouble;
    rep_.d = v;
  }
  /// Reuses the slot's string storage when it already holds a string, so
  /// var-width decode into warm slots allocates only when a string outgrows
  /// its buffer.
  void SetString(const char* data, size_t len) {
    if (type_ == ValueType::kString) {
      rep_.s->assign(data, len);
      return;
    }
    rep_.s = new std::string(data, len);
    type_ = ValueType::kString;
  }

  int64_t AsInt64() const {
    SMOOTHSCAN_CHECK(type_ == ValueType::kInt64 || type_ == ValueType::kDate);
    return rep_.i;
  }
  double AsDouble() const {
    SMOOTHSCAN_CHECK(type_ == ValueType::kDouble);
    return rep_.d;
  }
  const std::string& AsString() const {
    SMOOTHSCAN_CHECK(type_ == ValueType::kString);
    return *rep_.s;
  }

  /// Total order within a type; comparing values of different types aborts.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const {
    if (type_ != other.type_) return false;
    switch (type_) {
      case ValueType::kInt64:
      case ValueType::kDate:
        return rep_.i == other.rep_.i;
      case ValueType::kDouble:
        return rep_.d == other.rep_.d;
      case ValueType::kString:
        return *rep_.s == *other.rep_.s;
    }
    return false;
  }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  std::string ToString() const;

 private:
  explicit Value(ValueType t) : type_(t) {}

  union Rep {
    int64_t i;
    double d;
    std::string* s;
  };
  Rep rep_;
  ValueType type_;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_COMMON_TYPES_H_
