#include "common/types.h"

#include <cstdio>

namespace smoothscan {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
    case ValueType::kDate:
      return "DATE";
  }
  return "UNKNOWN";
}

std::string Value::ToString() const {
  switch (type_) {
    case ValueType::kInt64:
      return std::to_string(rep_.i);
    case ValueType::kDate: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "date(%lld)",
                    static_cast<long long>(rep_.i));
      return buf;
    }
    case ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", rep_.d);
      return buf;
    }
    case ValueType::kString:
      return *rep_.s;
  }
  return "?";
}

}  // namespace smoothscan
