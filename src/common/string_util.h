#ifndef FIXREP_COMMON_STRING_UTIL_H_
#define FIXREP_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fixrep {

class Rng;

// Splits `s` on `sep`, keeping empty fields ("a,,b" -> {"a", "", "b"}).
std::vector<std::string> Split(std::string_view s, char sep);

// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

// ASCII lower-casing.
std::string ToLower(std::string_view s);

// True when `field` must be quoted as a CSV field: it holds a comma, a
// quote, or a line break.
bool CsvFieldNeedsQuotes(std::string_view field);

// Appends `field` to *out as one CSV field: verbatim, or '"'-quoted with
// embedded quotes doubled when CsvFieldNeedsQuotes(field).
void AppendCsvField(std::string* out, std::string_view field);

// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

// Levenshtein edit distance; O(|a|*|b|) time, O(min) space.
size_t EditDistance(std::string_view a, std::string_view b);

// Produces a single-character typo of `s` (substitute, insert, delete, or
// transpose, chosen at random). Never returns `s` itself; for empty input
// returns a one-character string.
std::string MakeTypo(std::string_view s, Rng* rng);

}  // namespace fixrep

#endif  // FIXREP_COMMON_STRING_UTIL_H_
