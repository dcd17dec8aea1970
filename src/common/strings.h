// Small string utilities shared by the frontend parser and RTL emitters.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace db {

/// Split on a single delimiter; empty fields are kept.
std::vector<std::string> Split(std::string_view text, char delim);

/// Strip leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// True if `text` begins with / ends with the given prefix / suffix.
bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// Lower-case an ASCII string.
std::string ToLower(std::string_view text);

/// Join items with a separator.
std::string Join(const std::vector<std::string>& items,
                 std::string_view sep);

/// printf-style formatting into std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Parse `text` as a whole decimal integer in [min, max].  Anything
/// else — empty text, stray characters, overflow, out of range — throws
/// db::Error naming `what` (e.g. the flag).
std::int64_t ParseInt(std::string_view text, std::int64_t min,
                      std::int64_t max, std::string_view what);

/// Sanitise an arbitrary name into a legal Verilog identifier.
std::string ToIdentifier(std::string_view name);

}  // namespace db
