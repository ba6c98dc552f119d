#ifndef FIXREP_TESTS_TESTING_UTIL_H_
#define FIXREP_TESTS_TESTING_UTIL_H_

#include <algorithm>
#include <istream>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "relation/row_store.h"
#include "relation/schema.h"
#include "relation/value_pool.h"
#include "repair/driver.h"
#include "rules/fixing_rule.h"
#include "rules/rule_set.h"

namespace fixrep::testing {

// A small universe for randomized tests: 4-attribute schema, per-attribute
// value spaces "a<attr>v<k>" so that values collide across rules (which is
// what makes conflicts and cascades reachable) but never across
// attributes.
struct RandomRuleUniverse {
  std::shared_ptr<ValuePool> pool = std::make_shared<ValuePool>();
  std::shared_ptr<const Schema> schema = std::make_shared<Schema>(
      "R", std::vector<std::string>{"a0", "a1", "a2", "a3"});
  int values_per_attribute = 4;

  ValueId Value(AttrId attr, int k) {
    return pool->Intern("a" + std::to_string(attr) + "v" + std::to_string(k));
  }

  FixingRule RandomRule(Rng* rng) {
    FixingRule rule;
    const auto arity = static_cast<AttrId>(schema->arity());
    rule.target = static_cast<AttrId>(rng->Uniform(arity));
    for (AttrId a = 0; a < arity; ++a) {
      if (a == rule.target || !rng->Bernoulli(0.5)) continue;
      rule.evidence_attrs.push_back(a);
      rule.evidence_values.push_back(
          Value(a, static_cast<int>(rng->Uniform(values_per_attribute))));
    }
    // Leave at least one non-negative value so a fact always exists.
    const size_t max_negatives =
        std::min<size_t>(3, static_cast<size_t>(values_per_attribute) - 1);
    const size_t num_negatives = 1 + rng->Uniform(max_negatives);
    while (rule.negative_patterns.size() < num_negatives) {
      const ValueId v = Value(
          rule.target, static_cast<int>(rng->Uniform(values_per_attribute)));
      if (!rule.IsNegative(v)) {
        rule.negative_patterns.push_back(v);
        std::sort(rule.negative_patterns.begin(),
                  rule.negative_patterns.end());
      }
    }
    // values_per_attribute > max negatives, so a fact always exists.
    while (true) {
      const ValueId v = Value(
          rule.target, static_cast<int>(rng->Uniform(values_per_attribute)));
      if (!rule.IsNegative(v)) {
        rule.fact = v;
        break;
      }
    }
    rule.Validate(*schema);
    return rule;
  }

  // A random tuple over the value universe; with probability null_share a
  // cell is the out-of-universe placeholder.
  Tuple RandomTuple(Rng* rng, double null_share = 0.2) {
    Tuple t(schema->arity(), kNullValue);
    for (size_t a = 0; a < schema->arity(); ++a) {
      if (rng->Bernoulli(null_share)) continue;
      t[a] = Value(static_cast<AttrId>(a),
                   static_cast<int>(rng->Uniform(values_per_attribute)));
    }
    return t;
  }
};

// Minimal recursive-descent JSON syntax checker for validating metric /
// trace dumps without a JSON dependency. Accepts exactly one value with
// optional surrounding whitespace; numbers are the JSON grammar's.
class JsonChecker {
 public:
  static bool IsValid(const std::string& text) {
    JsonChecker checker(text);
    return checker.Value() && (checker.Ws(), checker.pos_ == text.size());
  }

 private:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool Eat(char c) { return Peek() == c && (++pos_, true); }
  void Ws() {
    while (Peek() == ' ' || Peek() == '\n' || Peek() == '\t' ||
           Peek() == '\r') {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    const size_t n = std::string(word).size();
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool String() {
    if (!Eat('"')) return false;
    while (Peek() != '"') {
      if (Peek() == '\0') return false;
      if (Eat('\\')) {
        if (Peek() == '\0') return false;
      }
      ++pos_;
    }
    return Eat('"');
  }

  bool Number() {
    const size_t start = pos_;
    Eat('-');
    while (Peek() >= '0' && Peek() <= '9') ++pos_;
    if (Eat('.')) {
      while (Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    return pos_ > start;
  }

  bool Value() {
    Ws();
    if (Peek() == '{') {
      ++pos_;
      Ws();
      if (Eat('}')) return true;
      do {
        Ws();
        if (!String()) return false;
        Ws();
        if (!Eat(':')) return false;
        if (!Value()) return false;
        Ws();
      } while (Eat(','));
      return Eat('}');
    }
    if (Peek() == '[') {
      ++pos_;
      Ws();
      if (Eat(']')) return true;
      do {
        if (!Value()) return false;
        Ws();
      } while (Eat(','));
      return Eat(']');
    }
    if (Peek() == '"') return String();
    if (Peek() == 't') return Literal("true");
    if (Peek() == 'f') return Literal("false");
    if (Peek() == 'n') return Literal("null");
    return Number();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// The reference CSV record parser: one istream::get per character, the
// state machine relation/csv.cc runs on every record with a '"' or '\r'.
// Parses one record (quoted fields may span lines) into *fields. Returns
// false at EOF with no data consumed. With a non-null `raw` the record's
// text is stored verbatim, line terminators outside quotes stripped, as
// quarantine diagnostics carry it. `*unterminated` reports a quoted field
// still open when the input ended.
inline bool ReferenceReadRecord(std::istream& in,
                                std::vector<std::string>* fields,
                                std::string* raw, bool* unterminated) {
  fields->clear();
  if (raw != nullptr) raw->clear();
  *unterminated = false;
  std::string field;
  bool in_quotes = false;
  bool saw_any = false;
  int c;
  while ((c = in.get()) != EOF) {
    saw_any = true;
    const char ch = static_cast<char>(c);
    if (raw != nullptr && ch != '\n' && ch != '\r') raw->push_back(ch);
    if (in_quotes) {
      if (raw != nullptr && (ch == '\n' || ch == '\r')) raw->push_back(ch);
      if (ch == '"') {
        if (in.peek() == '"') {
          in.get();
          field.push_back('"');
          if (raw != nullptr) raw->push_back('"');
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(ch);
      }
      continue;
    }
    switch (ch) {
      case '"':
        in_quotes = true;
        break;
      case ',':
        fields->push_back(std::move(field));
        field.clear();
        break;
      case '\r':
        break;  // tolerate CRLF
      case '\n':
        fields->push_back(std::move(field));
        return true;
      default:
        field.push_back(ch);
        break;
    }
  }
  if (!saw_any) return false;
  *unterminated = in_quotes;
  fields->push_back(std::move(field));
  return true;
}

// One RepairDriver pass over every row of a table: the range outcome plus
// the driver's merged stats, with fixrep.lrepair.* published.
struct DriveResult {
  RangeOutcome outcome;
  RepairStats stats;
};

inline DriveResult DriveTable(const RuleRepository& repo, Table* table,
                              const RepairDriverOptions& options = {}) {
  RepairDriver driver(repo, options);
  DriveResult result;
  result.outcome = driver.RepairRows(table, 0, table->num_rows());
  driver.FlushMetrics();
  result.stats = driver.stats();
  return result;
}

// A stream of `rows` at `cap` rows per chunk takes this many chunks.
inline size_t ChunksFor(size_t rows, size_t cap) {
  return rows == 0 ? 0 : (rows - 1) / cap + 1;
}

// The most cell bytes a chunk capped by a memory budget may hold: the
// budget rounded up to whole RowStore blocks (the chunk table reserves
// whole blocks).
inline size_t BudgetCeilingBytes(size_t budget, size_t arity) {
  const size_t block = RowStore::kRowsPerBlock * arity * sizeof(ValueId);
  return ChunksFor(budget, block) * block;
}

}  // namespace fixrep::testing

#endif  // FIXREP_TESTS_TESTING_UTIL_H_
