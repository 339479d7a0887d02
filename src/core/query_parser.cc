#include "core/query_parser.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/fmt.h"

namespace propeller::core {
namespace {

using index::AttrValue;
using index::CmpOp;
using index::Term;

std::string Trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

// Parses "<digits><suffix>"; returns false if not fully numeric-with-suffix.
bool ParseScaled(const std::string& text, int64_t& value, bool& is_age) {
  size_t i = 0;
  if (i < text.size() && (text[i] == '-' || text[i] == '+')) ++i;
  size_t digits_begin = i;
  while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
    ++i;
  }
  if (i == digits_begin) return false;
  int64_t base = std::strtoll(text.substr(0, i).c_str(), nullptr, 10);
  std::string suffix = text.substr(i);
  for (char& c : suffix) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));

  is_age = false;
  if (suffix.empty()) {
    value = base;
    return true;
  }
  if (suffix == "k" || suffix == "kb") {
    value = base * 1024;
  } else if (suffix == "m" || suffix == "mb") {
    value = base * 1024 * 1024;
  } else if (suffix == "g" || suffix == "gb") {
    value = base * 1024 * 1024 * 1024;
  } else if (suffix == "t" || suffix == "tb") {
    value = base * 1024LL * 1024 * 1024 * 1024;
  } else if (suffix == "s" || suffix == "sec") {
    value = base;
    is_age = true;
  } else if (suffix == "min") {
    value = base * 60;
    is_age = true;
  } else if (suffix == "h" || suffix == "hour" || suffix == "hours") {
    value = base * 3600;
    is_age = true;
  } else if (suffix == "day" || suffix == "days" || suffix == "d") {
    value = base * 86400;
    is_age = true;
  } else if (suffix == "week" || suffix == "weeks" || suffix == "w") {
    value = base * 7 * 86400;
    is_age = true;
  } else {
    return false;
  }
  return true;
}

Status ParseTerm(const std::string& raw, int64_t now_s, index::Predicate& pred) {
  std::string text = Trim(raw);
  if (text.empty()) return Status::InvalidArgument("empty term");

  // keyword:<word> — path-component containment.
  constexpr std::string_view kKeyword = "keyword:";
  if (text.rfind(kKeyword, 0) == 0) {
    std::string word = Trim(text.substr(kKeyword.size()));
    if (word.empty()) return Status::InvalidArgument("empty keyword");
    pred.And("path", CmpOp::kContainsWord, AttrValue(std::move(word)));
    return Status::Ok();
  }

  // attr op value
  size_t op_pos = text.find_first_of("<>=");
  if (op_pos == std::string::npos || op_pos == 0) {
    return Status::InvalidArgument("no comparison operator in '" + text + "'");
  }
  std::string attr = Trim(text.substr(0, op_pos));
  CmpOp op;
  size_t value_pos = op_pos + 1;
  char c = text[op_pos];
  bool or_equal = value_pos < text.size() && text[value_pos] == '=';
  if (or_equal) ++value_pos;
  switch (c) {
    case '<':
      op = or_equal ? CmpOp::kLe : CmpOp::kLt;
      break;
    case '>':
      op = or_equal ? CmpOp::kGe : CmpOp::kGt;
      break;
    case '=':
      op = CmpOp::kEq;
      break;
    default:
      return Status::InvalidArgument("bad operator");
  }
  std::string value_text = Trim(text.substr(value_pos));
  if (value_text.empty()) return Status::InvalidArgument("missing value");

  if (value_text.size() >= 2 && value_text.front() == '"' &&
      value_text.back() == '"') {
    pred.And(std::move(attr), op, AttrValue(value_text.substr(1, value_text.size() - 2)));
    return Status::Ok();
  }
  // Unquoted values must not contain comparison characters — "size>>>"
  // and "a=b=c" are malformed, not string comparisons.  (Quoted strings,
  // handled above, may contain anything.)
  if (value_text.find_first_of("<>=") != std::string::npos) {
    return Status::InvalidArgument("malformed value in '" + text + "'");
  }

  int64_t scaled = 0;
  bool is_age = false;
  if (ParseScaled(value_text, scaled, is_age)) {
    if (is_age) {
      // "mtime < 1day" = modified less than a day ago = mtime > now - 1day.
      int64_t cutoff = now_s - scaled;
      switch (op) {
        case CmpOp::kLt:
          op = CmpOp::kGt;
          break;
        case CmpOp::kLe:
          op = CmpOp::kGe;
          break;
        case CmpOp::kGt:
          op = CmpOp::kLt;
          break;
        case CmpOp::kGe:
          op = CmpOp::kLe;
          break;
        case CmpOp::kEq:
        case CmpOp::kContainsWord:
          return Status::InvalidArgument("age values need <, <=, > or >=");
      }
      pred.And(std::move(attr), op, AttrValue(cutoff));
    } else {
      pred.And(std::move(attr), op, AttrValue(scaled));
    }
    return Status::Ok();
  }

  // Float?
  char* end = nullptr;
  double d = std::strtod(value_text.c_str(), &end);
  if (end != nullptr && *end == '\0') {
    // NaN is unordered: every comparison against it would be false (or,
    // under AttrValue's total order, "equal"), so it is no query value.
    // Infinities are ordered and stay legal.
    if (std::isnan(d)) {
      return Status::InvalidArgument(StrCat("'", value_text, "' is not a number"));
    }
    pred.And(std::move(attr), op, AttrValue(d));
    return Status::Ok();
  }

  // Bare string.
  pred.And(std::move(attr), op, AttrValue(std::move(value_text)));
  return Status::Ok();
}

}  // namespace

Result<ParsedQuery> ParseQuery(const std::string& query, int64_t now_s) {
  ParsedQuery out;
  std::string expr = query;

  // Query-directory form: "/dir/sub/?size>1m".
  size_t qmark = query.find("/?");
  if (qmark != std::string::npos) {
    out.directory = query.substr(0, qmark);
    if (out.directory.empty()) out.directory.assign(1, '/');
    expr = query.substr(qmark + 2);
  }

  // Split on '&' (also accepts '&&').
  size_t start = 0;
  while (start <= expr.size()) {
    size_t amp = expr.find('&', start);
    if (amp == std::string::npos) amp = expr.size();
    std::string piece = expr.substr(start, amp - start);
    if (!Trim(piece).empty()) {
      PROPELLER_RETURN_IF_ERROR(ParseTerm(piece, now_s, out.predicate));
    }
    start = amp + 1;
    while (start < expr.size() && expr[start] == '&') ++start;  // '&&'
  }
  if (out.predicate.terms.empty()) {
    return Status::InvalidArgument("query has no terms: " + query);
  }
  // Query directories additionally constrain the path prefix.
  if (!out.directory.empty() && out.directory != "/") {
    // Model the prefix constraint as a ContainsWord on the last directory
    // component (exact-prefix filtering happens client-side).
    size_t slash = out.directory.find_last_of('/');
    std::string leaf = out.directory.substr(slash + 1);
    if (!leaf.empty()) {
      out.predicate.And("path", index::CmpOp::kContainsWord,
                        index::AttrValue(leaf));
    }
  }
  return out;
}

}  // namespace propeller::core
