#include "index/query.h"

#include "common/fmt.h"

namespace propeller::index {
namespace {

bool IsTokenDelimiter(char c) {
  return c == '/' || c == '.' || c == '-' || c == '_';
}

}  // namespace

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
    case CmpOp::kContainsWord:
      return "~";
  }
  return "?";
}

bool ContainsWord(std::string_view text, std::string_view word) {
  if (word.empty()) return true;
  size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string_view::npos) {
    bool left_ok = pos == 0 || IsTokenDelimiter(text[pos - 1]);
    size_t end = pos + word.size();
    bool right_ok = end == text.size() || IsTokenDelimiter(text[end]);
    if (left_ok && right_ok) return true;
    ++pos;
  }
  return false;
}

BoundPredicate::BoundPredicate(const Predicate& pred) : pred_(pred) {
  // Interned, not just looked up: a record built after the bind (a
  // brute-force walk materialises each one as it goes) may carry a name
  // no record carried before.  The dictionary grows by distinct names
  // only, never per query.
  ids_.reserve(pred.terms.size());
  for (const Term& t : pred.terms) ids_.push_back(AttrNames::Global().Intern(t.attr));
}

std::string Term::ToString() const {
  return StrCat(attr, CmpOpName(op), value.ToString());
}

std::string Predicate::ToString() const {
  std::string out;
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) out += " & ";
    out += terms[i].ToString();
  }
  return out.empty() ? "<all>" : out;
}

void Term::Serialize(BinaryWriter& w) const {
  w.PutString(attr);
  w.PutU8(static_cast<uint8_t>(op));
  value.Serialize(w);
}

Status Term::Deserialize(BinaryReader& r, Term& out) {
  PROPELLER_RETURN_IF_ERROR(r.GetString(out.attr));
  uint8_t op = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU8(op));
  if (op > static_cast<uint8_t>(CmpOp::kContainsWord)) {
    return Status::Corruption("bad CmpOp");
  }
  out.op = static_cast<CmpOp>(op);
  return AttrValue::Deserialize(r, out.value);
}

void Predicate::Serialize(BinaryWriter& w) const {
  w.PutU32(static_cast<uint32_t>(terms.size()));
  for (const Term& t : terms) t.Serialize(w);
}

Status Predicate::Deserialize(BinaryReader& r, Predicate& out) {
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  out.terms.clear();
  for (uint32_t i = 0; i < n; ++i) {
    Term t;
    PROPELLER_RETURN_IF_ERROR(Term::Deserialize(r, t));
    out.terms.push_back(std::move(t));
  }
  return Status::Ok();
}

std::optional<KeyRange> RangeForAttr(const Predicate& pred,
                                     const std::string& attr) {
  KeyRange range;
  bool constrained = false;
  for (const Term& t : pred.terms) {
    if (t.attr != attr) continue;
    switch (t.op) {
      case CmpOp::kEq:
        if (!range.lo || range.lo->Compare(t.value) < 0) {
          range.lo = t.value;
          range.lo_inclusive = true;
        }
        if (!range.hi || t.value.Compare(*range.hi) < 0) {
          range.hi = t.value;
          range.hi_inclusive = true;
        }
        constrained = true;
        break;
      case CmpOp::kLt:
      case CmpOp::kLe: {
        bool inclusive = t.op == CmpOp::kLe;
        if (!range.hi || t.value.Compare(*range.hi) < 0 ||
            (t.value == *range.hi && !inclusive)) {
          range.hi = t.value;
          range.hi_inclusive = inclusive;
        }
        constrained = true;
        break;
      }
      case CmpOp::kGt:
      case CmpOp::kGe: {
        bool inclusive = t.op == CmpOp::kGe;
        if (!range.lo || range.lo->Compare(t.value) < 0 ||
            (t.value == *range.lo && !inclusive)) {
          range.lo = t.value;
          range.lo_inclusive = inclusive;
        }
        constrained = true;
        break;
      }
      case CmpOp::kContainsWord:
        break;  // not a range constraint
    }
  }
  if (!constrained) return std::nullopt;
  return range;
}

}  // namespace propeller::index
