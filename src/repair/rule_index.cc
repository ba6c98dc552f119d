#include "repair/rule_index.h"

#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/metric_scope.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "rules/fingerprint.h"

namespace fixrep {

CompiledRuleIndex::CompiledRuleIndex(const RuleSet* rules) : rules_(rules) {
  FIXREP_CHECK(rules_ != nullptr);
  FIXREP_TRACE_SPAN("lrepair.index_build");
  arity_ = rules_->schema().arity();
  const size_t n = rules_->size();
  // The batched chase packs the rule id and a prescreen flag into one
  // uint32 queue entry; bit 31 is the flag.
  FIXREP_CHECK_LT(n, size_t{1} << 31);

  evidence_count_.resize(n);
  target_.resize(n);
  fact_.resize(n);
  assured_bits_.resize(n);
  ev_offsets_.reserve(n + 1);
  neg_offsets_.reserve(n + 1);

  // Gather postings per key, then pack. The scratch map only lives during
  // the build; lookups afterwards touch the flat structures exclusively.
  std::unordered_map<uint64_t, std::vector<uint32_t>> gathered;
  size_t total_postings = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const FixingRule& rule = rules_->rule(i);
    evidence_count_[i] = static_cast<uint32_t>(rule.evidence_attrs.size());
    target_[i] = rule.target;
    fact_[i] = rule.fact;
    assured_bits_[i] = rule.AssuredSet().bits();
    // CSR-pack the full patterns for MatchesFlat. negative_patterns is
    // sorted/deduped by Validate(), so the packed slice binary-searches.
    ev_offsets_.push_back(static_cast<uint32_t>(ev_attrs_.size()));
    ev_attrs_.insert(ev_attrs_.end(), rule.evidence_attrs.begin(),
                     rule.evidence_attrs.end());
    ev_values_.insert(ev_values_.end(), rule.evidence_values.begin(),
                      rule.evidence_values.end());
    neg_offsets_.push_back(static_cast<uint32_t>(neg_values_.size()));
    neg_values_.insert(neg_values_.end(), rule.negative_patterns.begin(),
                       rule.negative_patterns.end());
    if (rule.evidence_attrs.empty()) {
      empty_evidence_rules_.push_back(i);
      continue;
    }
    for (size_t e = 0; e < rule.evidence_attrs.size(); ++e) {
      gathered[PackKey(rule.evidence_attrs[e], rule.evidence_values[e])]
          .push_back(i);
      ++total_postings;
    }
  }
  ev_offsets_.push_back(static_cast<uint32_t>(ev_attrs_.size()));
  neg_offsets_.push_back(static_cast<uint32_t>(neg_values_.size()));

  uint64_t ev_attr_mask = 0;
  for (const AttrId a : ev_attrs_) ev_attr_mask |= uint64_t{1} << a;
  for (AttrId a = 0; a < static_cast<AttrId>(arity_); ++a) {
    if (ev_attr_mask & (uint64_t{1} << a)) evidence_attr_list_.push_back(a);
  }

  num_keys_ = gathered.size();
  size_t capacity = 16;
  while (capacity < num_keys_ * 2) capacity <<= 1;
  mask_ = capacity - 1;
  slots_.assign(capacity, RuleSlot{});
  postings_.reserve(total_postings);
  for (auto& [key, rule_ids] : gathered) {
    size_t slot = SplitMix64(key) & mask_;
    while (slots_[slot].key != kEmptyRuleKey) slot = (slot + 1) & mask_;
    slots_[slot].key = key;
    slots_[slot].begin = static_cast<uint32_t>(postings_.size());
    postings_.insert(postings_.end(), rule_ids.begin(), rule_ids.end());
    slots_[slot].end = static_cast<uint32_t>(postings_.size());
  }

  RuleSource::Init init;
  init.slots = slots_.data();
  init.slot_mask = mask_;
  init.postings = postings_.data();
  init.evidence_count = evidence_count_.data();
  init.target = target_.data();
  init.fact = fact_.data();
  init.assured_bits = assured_bits_.data();
  init.ev_offsets = ev_offsets_.data();
  init.ev_attrs = ev_attrs_.data();
  init.ev_values = ev_values_.data();
  init.neg_offsets = neg_offsets_.data();
  init.neg_values = neg_values_.data();
  init.empty_evidence_rules = empty_evidence_rules_.data();
  init.num_empty_evidence_rules = empty_evidence_rules_.size();
  init.evidence_attr_list = evidence_attr_list_.data();
  init.num_evidence_attrs = evidence_attr_list_.size();
  init.num_rules = n;
  init.arity = arity_;
  view_ = RuleSource(init);

  auto& registry = CurrentMetrics();
  // fixrep.lrepair.index_builds must tick once per rule set — sharing one
  // CompiledRuleIndex across engines/workers is the whole point;
  // parallel_test asserts it stays at 1 for a multi-worker repair.
  registry.GetCounter("fixrep.lrepair.index_builds")->Add(1);
  registry.GetGauge("fixrep.lrepair.index_keys")
      ->Set(static_cast<int64_t>(num_keys_));
  registry.GetCounter("fixrep.index.builds")->Add(1);
  registry.GetGauge("fixrep.index.keys")
      ->Set(static_cast<int64_t>(num_keys_));
  registry.GetGauge("fixrep.index.postings")
      ->Set(static_cast<int64_t>(postings_.size()));
  registry.GetGauge("fixrep.index.bytes")->Set(static_cast<int64_t>(bytes()));
}

uint64_t CompiledRuleIndex::fingerprint() const {
  // Lazy: rendering the canonical text is O(corpus), and most indexes
  // never need their identity (only WAL and dictionary flows do).
  std::call_once(fingerprint_once_,
                 [this] { fingerprint_ = RuleSetFingerprint(*rules_); });
  return fingerprint_;
}

size_t CompiledRuleIndex::bytes() const {
  return slots_.capacity() * sizeof(RuleSlot) +
         postings_.capacity() * sizeof(uint32_t) +
         evidence_count_.capacity() * sizeof(uint32_t) +
         target_.capacity() * sizeof(AttrId) +
         fact_.capacity() * sizeof(ValueId) +
         assured_bits_.capacity() * sizeof(uint64_t) +
         empty_evidence_rules_.capacity() * sizeof(uint32_t) +
         ev_offsets_.capacity() * sizeof(uint32_t) +
         ev_attrs_.capacity() * sizeof(AttrId) +
         ev_values_.capacity() * sizeof(ValueId) +
         neg_offsets_.capacity() * sizeof(uint32_t) +
         neg_values_.capacity() * sizeof(ValueId) +
         evidence_attr_list_.capacity() * sizeof(AttrId);
}

}  // namespace fixrep
