// Query predicates: the common query representation shared by Propeller's
// query engine, the index structures, and the baselines.
//
// A query is a conjunction of terms, e.g. the paper's Query #1
// "size > 1GB & mtime < 1 day" is two comparison terms, and Query #2
// adds a keyword term ("firefox" appears as a path component).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "index/attr.h"

namespace propeller::index {

enum class CmpOp {
  kEq,
  kLt,
  kLe,
  kGt,
  kGe,
  // String containment as a path component / word token, e.g.
  // path CONTAINS_WORD "firefox".  Accelerated by keyword hash indices.
  kContainsWord,
};

const char* CmpOpName(CmpOp op);

// True if `word` occurs in `text` as a token delimited by '/', '.', '-',
// '_' or string edges ("usr/lib/firefox-3.6/x" contains "firefox").
bool ContainsWord(std::string_view text, std::string_view word);

struct Term {
  std::string attr;
  CmpOp op = CmpOp::kEq;
  AttrValue value;

  bool Matches(const AttrSet& attrs) const { return MatchesValue(attrs.Find(attr)); }
  // Does the attribute value `v` (nullptr: the file lacks the attribute)
  // satisfy this term?  Inline: it runs per term per verified candidate.
  bool MatchesValue(const AttrValue* v) const {
    if (v == nullptr) return false;
    switch (op) {
      case CmpOp::kEq:
        return *v == value;
      case CmpOp::kLt:
        return v->Compare(value) < 0;
      case CmpOp::kLe:
        return v->Compare(value) <= 0;
      case CmpOp::kGt:
        return v->Compare(value) > 0;
      case CmpOp::kGe:
        return v->Compare(value) >= 0;
      case CmpOp::kContainsWord:
        if (!v->is_string() || !value.is_string()) return false;
        return ContainsWord(v->as_string(), value.as_string());
    }
    return false;
  }
  std::string ToString() const;

  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, Term& out);
};

// Conjunction of terms.  An empty predicate matches everything.
struct Predicate {
  std::vector<Term> terms;

  bool Matches(const AttrSet& attrs) const {
    for (const Term& t : terms) {
      if (!t.Matches(attrs)) return false;
    }
    return true;
  }

  Predicate& And(std::string attr, CmpOp op, AttrValue value) {
    terms.push_back(Term{std::move(attr), op, std::move(value)});
    return *this;
  }

  std::string ToString() const;

  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, Predicate& out);
};

// A predicate with each term's attribute name resolved to its AttrId.  A
// loop that matches many records binds once, so each term costs an id
// scan of the record instead of a name compare.  Borrows `pred`, which
// must outlive it.
class BoundPredicate {
 public:
  explicit BoundPredicate(const Predicate& pred);

  bool Matches(const AttrSet& attrs) const {
    for (size_t i = 0; i < ids_.size(); ++i) {
      if (!pred_.terms[i].MatchesValue(attrs.Find(ids_[i]))) return false;
    }
    return true;
  }

 private:
  const Predicate& pred_;
  std::vector<AttrId> ids_;  // ids_[i] binds pred_.terms[i]
};

// Half-open/closed key range for B+tree scans.
struct KeyRange {
  std::optional<AttrValue> lo;
  bool lo_inclusive = true;
  std::optional<AttrValue> hi;
  bool hi_inclusive = true;

  bool Contains(const AttrValue& v) const {
    if (lo) {
      int c = v.Compare(*lo);
      if (c < 0 || (c == 0 && !lo_inclusive)) return false;
    }
    if (hi) {
      int c = v.Compare(*hi);
      if (c > 0 || (c == 0 && !hi_inclusive)) return false;
    }
    return true;
  }

  static KeyRange Everything() { return {}; }
  static KeyRange Exactly(AttrValue v) {
    KeyRange r;
    r.lo = v;
    r.hi = std::move(v);
    return r;
  }
};

// Derives the key range a conjunction implies for one attribute
// (intersection of all comparison terms on it).  Returns nullopt when no
// term constrains the attribute.
std::optional<KeyRange> RangeForAttr(const Predicate& pred,
                                     const std::string& attr);

}  // namespace propeller::index
