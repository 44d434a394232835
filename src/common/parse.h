// Strict parsing of the numeric fields of a label such as
// "csma:1,2,64,8,0.3".
//
// A field is one whole token of its type: no leading whitespace or '+',
// nothing after it, and in range for the type.  (sscanf's %d and %lld
// are undefined on overflow — glibc wraps or clamps — and skip leading
// whitespace, so they accept labels that name other values.)
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>
#include <vector>

namespace ammb {

/// Parses all of `text` as one in-range value of `T` (an integer type
/// or double).  Returns false, leaving `out` unspecified, otherwise.
template <class T>
bool parseNumber(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const std::from_chars_result r = std::from_chars(text.data(), end, out);
  return r.ec == std::errc() && r.ptr == end;
}

/// Parses `text` as comma-separated numbers, exactly one per `out`, in
/// order.  Returns false on a wrong field count or any bad field.
template <class... T>
bool parseNumbers(std::string_view text, T&... out) {
  std::vector<std::string_view> fields;
  for (std::size_t from = 0;;) {
    const std::size_t comma = text.find(',', from);
    fields.push_back(text.substr(from, comma - from));
    if (comma == std::string_view::npos) break;
    from = comma + 1;
  }
  if (fields.size() != sizeof...(T)) return false;
  std::size_t i = 0;
  return (parseNumber(fields[i++], out) && ...);
}

}  // namespace ammb
