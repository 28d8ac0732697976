// Whole-field integer parsing for the text inputs (query literals, DB
// frames, request k and options, prepared handles, cancel targets, HELLO
// versions, CSV fields, flags). Unlike strtoll and std::stoll it rejects
// trailing junk and tells an out-of-range value from a malformed one, so no
// input is silently truncated or clamped into another value.

#ifndef ADP_UTIL_PARSE_INT_H_
#define ADP_UTIL_PARSE_INT_H_

#include <charconv>
#include <cstdint>
#include <limits>
#include <string_view>
#include <system_error>

namespace adp {

enum class IntParse { kOk, kMalformed, kOutOfRange };

/// Parses all of `text` as a decimal int64 with an optional '+' or '-'
/// sign. Writes `*out` only when it returns kOk.
inline IntParse ParseInt64(std::string_view text, std::int64_t* out) {
  // from_chars takes a '-' sign but not a '+' one.
  if (text.size() > 1 && text[0] == '+' && text[1] != '-') {
    text.remove_prefix(1);
  }
  std::int64_t value = 0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec == std::errc::result_out_of_range) return IntParse::kOutOfRange;
  if (ec != std::errc() || end != last) return IntParse::kMalformed;
  *out = value;
  return IntParse::kOk;
}

/// Parses all of `text` as ParseInt64 does, and accepts it only in
/// [min_value, max_value], a range `T` must hold (an integer flag). Writes
/// `*out` only when it returns true.
template <typename T>
bool ParseIntInRange(std::string_view text, std::int64_t min_value,
                     std::int64_t max_value, T* out) {
  std::int64_t value = 0;
  if (ParseInt64(text, &value) != IntParse::kOk || value < min_value ||
      value > max_value) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

/// Parses all of `text` as ParseInt64 does, and accepts it only in the
/// uint32 range. Writes `*out` only when it returns true.
inline bool ParseUint32(std::string_view text, std::uint32_t* out) {
  return ParseIntInRange(text, 0, std::numeric_limits<std::uint32_t>::max(),
                         out);
}

}  // namespace adp

#endif  // ADP_UTIL_PARSE_INT_H_
