// Checked text-to-value helpers shared by the text front ends (the query
// grammar in plan/query_text.cc, the wire frames and the HELLO options in
// net/). Each caller words its own error; these only decide.

#ifndef SMOOTHSCAN_COMMON_PARSE_H_
#define SMOOTHSCAN_COMMON_PARSE_H_

#include <cctype>
#include <charconv>
#include <string_view>
#include <system_error>

namespace smoothscan {

/// Parses all of `text` as a base-10 integer of type T: an optional '-' (for
/// a signed T) and digits, nothing else. False, with `*out` untouched, for
/// empty text, any other character, or a value outside T's range.
template <typename T>
bool ParseInteger(std::string_view text, T* out) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) return false;
  *out = v;
  return true;
}

/// ASCII case-insensitive equality (keywords and option names).
inline bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace smoothscan

#endif  // SMOOTHSCAN_COMMON_PARSE_H_
