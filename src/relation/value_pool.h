#ifndef FIXREP_RELATION_VALUE_POOL_H_
#define FIXREP_RELATION_VALUE_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace fixrep {

// Interned value identifier. All cell values, pattern constants, and facts
// are represented as ValueIds so that matching, inverted lists, and
// violation detection are integer comparisons. kNullValue represents a
// missing value and never equals any interned constant.
using ValueId = int32_t;
inline constexpr ValueId kNullValue = -1;

// Interns strings to dense ValueIds. A pool is shared by every table and
// rule set that must be comparable (e.g., the dirty table, the ground
// truth, and the rules repairing it).
//
// Ids are dense and handed out in first-intern order; the strings live
// in a deque so their addresses never move. The intern index is a flat
// open-addressing table: each 8-byte slot holds a 32-bit hash tag and
// the ValueId (kNullValue marks an empty slot). A lookup hashes the
// bytes once (8-byte words folded through SplitMix64), probes linearly
// from tag & mask, and compares strings only on a tag match. The table
// keeps its load at or below 7/8 and doubles when it would pass that;
// a rehash moves slots by their tags alone, without touching a string.
//
// Not thread-safe for concurrent interning; concurrent read-only lookups
// (GetString / Find) are safe once interning has stopped. Debug builds
// enforce the single-writer rule: two Intern calls overlapping in time
// trip a CHECK (release builds compile the guard out).
class ValuePool {
 public:
  ValuePool() = default;

  ValuePool(const ValuePool&) = delete;
  ValuePool& operator=(const ValuePool&) = delete;

  // Returns the id for `s`, interning it if new.
  ValueId Intern(std::string_view s);

  // Returns the id for `s` or kNullValue if it has never been interned.
  ValueId Find(std::string_view s) const;

  // Returns the string for a valid id. id must be in [0, size()).
  const std::string& GetString(ValueId id) const;

  // Number of distinct interned values.
  size_t size() const { return strings_.size(); }

 private:
  struct Slot {
    uint32_t tag = 0;
    ValueId id = kNullValue;
  };

  // The slot index holding `s` (tag `tag`), or the empty slot where it
  // would go.
  size_t Probe(std::string_view s, uint32_t tag) const;
  // Doubles the slot table (or makes the first one) and reinserts.
  void Grow();

  std::deque<std::string> strings_;
  std::vector<Slot> slots_;  // power-of-two size, or empty
#ifndef NDEBUG
  // Debug-only concurrent-interning detector (see class comment). Not a
  // lock: it aborts on overlap instead of serializing it.
  mutable std::atomic<bool> interning_{false};
#endif
};

}  // namespace fixrep

#endif  // FIXREP_RELATION_VALUE_POOL_H_
