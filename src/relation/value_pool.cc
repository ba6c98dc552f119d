#include "relation/value_pool.h"

#include <cstring>

#include "common/logging.h"
#include "common/simd.h"

namespace fixrep {

namespace {

#ifndef NDEBUG
// Flags any second Intern that overlaps the first in time. Catches the
// misuse the class comment warns about (concurrent interning) in debug
// and sanitizer builds instead of silently corrupting the hash.
class InternGuard {
 public:
  explicit InternGuard(std::atomic<bool>* busy) : busy_(busy) {
    FIXREP_CHECK(!busy_->exchange(true, std::memory_order_acquire))
        << "concurrent ValuePool::Intern detected; the pool is "
           "single-writer (see value_pool.h)";
  }
  ~InternGuard() { busy_->store(false, std::memory_order_release); }

 private:
  std::atomic<bool>* busy_;
};
#endif

// Folds `s` 8 bytes at a time through SplitMix64. The tail word is
// zero-padded and the length seeds the hash, so "a" and "a\0" differ.
uint32_t HashTag(std::string_view s) {
  uint64_t h = s.size() * 0x9e3779b97f4a7c15ULL;
  const char* p = s.data();
  size_t n = s.size();
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    h = SplitMix64(h ^ word);
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    uint64_t word = 0;
    std::memcpy(&word, p, n);
    h = SplitMix64(h ^ word);
  }
  return static_cast<uint32_t>(h ^ (h >> 32));
}

}  // namespace

size_t ValuePool::Probe(std::string_view s, uint32_t tag) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = tag & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kNullValue) return i;
    if (slot.tag == tag && strings_[static_cast<size_t>(slot.id)] == s) {
      return i;
    }
  }
}

void ValuePool::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id == kNullValue) continue;
    size_t i = slot.tag & mask;
    while (slots_[i].id != kNullValue) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

ValueId ValuePool::Intern(std::string_view s) {
#ifndef NDEBUG
  const InternGuard guard(&interning_);
#endif
  // Grow before probing so the insert below keeps the load <= 7/8.
  if ((strings_.size() + 1) * 8 > slots_.size() * 7) Grow();
  const uint32_t tag = HashTag(s);
  Slot& slot = slots_[Probe(s, tag)];
  if (slot.id != kNullValue) return slot.id;
  strings_.emplace_back(s);
  slot.tag = tag;
  slot.id = static_cast<ValueId>(strings_.size() - 1);
  return slot.id;
}

ValueId ValuePool::Find(std::string_view s) const {
  if (slots_.empty()) return kNullValue;
  return slots_[Probe(s, HashTag(s))].id;
}

const std::string& ValuePool::GetString(ValueId id) const {
  FIXREP_CHECK_GE(id, 0);
  FIXREP_CHECK_LT(static_cast<size_t>(id), strings_.size());
  return strings_[static_cast<size_t>(id)];
}

}  // namespace fixrep
