#ifndef ATENA_COMMON_STRING_UTILS_H_
#define ATENA_COMMON_STRING_UTILS_H_

#include <string>
#include <string_view>
#include <vector>

namespace atena {

/// Splits `input` on `delim`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> SplitString(std::string_view input, char delim);

/// Joins `parts` with `sep`.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view input);

/// ASCII lowercase copy.
std::string ToLower(std::string_view input);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);
bool Contains(std::string_view text, std::string_view needle);

/// Parses a decimal integer / double. Returns false (leaving *out untouched)
/// on any trailing garbage, empty input, out-of-range magnitude, or — for
/// ParseDouble — a non-finite spelling ("nan"/"inf"/"infinity"): hostile or
/// corrupt numeric fields must surface as null-or-error, never as a value.
bool ParseInt64(std::string_view text, int64_t* out);
bool ParseDouble(std::string_view text, double* out);

/// Formats a double the way notebooks display it: up to `precision` decimals
/// with trailing zeros trimmed ("27.650" -> "27.65", "3.000" -> "3").
std::string FormatDouble(double value, int precision = 3);

/// Pads/truncates `text` to exactly `width` columns (left-aligned).
std::string PadRight(std::string_view text, size_t width);

/// JSON-safe number for the JSONL event log (common/event_log.h): finite
/// doubles round-trip via %.17g; non-finite ones — which JSON cannot
/// represent — become the quoted strings "nan"/"inf"/"-inf", so a NaN loss
/// or a ratio over zero steps can be logged without producing an
/// unparseable line.
std::string JsonNumber(double value);

/// `"..."` with backslash, quote and control characters escaped — safe to
/// splice a Status message, file path or command line into a JSON object
/// body. Numbers go through JsonNumber.
std::string JsonString(const std::string& value);

}  // namespace atena

#endif  // ATENA_COMMON_STRING_UTILS_H_
