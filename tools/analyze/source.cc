// Shared scanner for propeller-analyze: comment/string stripping with
// analyze:allow() capture, plus a brace-classification walk that recovers
// namespaces, class bodies, and function definitions without a real C++
// parser.  The model is intentionally approximate — good enough for the
// declaration idioms this repo enforces (see DESIGN.md), not general C++.
#include "analyze.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace propeller::analyze {

namespace {

bool IsWordBoundary(const std::string& s, size_t pos) {
  return pos == 0 || !IsIdentChar(s[pos - 1]);
}

// Records `analyze:allow(tag)` occurrences found inside comment text.
void ScanAllows(const std::string& comment, int line, SourceFile& f) {
  static const std::string kKey = "analyze:allow(";
  size_t pos = 0;
  while ((pos = comment.find(kKey, pos)) != std::string::npos) {
    size_t tag_begin = pos + kKey.size();
    size_t tag_end = comment.find(')', tag_begin);
    if (tag_end == std::string::npos) break;
    f.allows[line].insert(comment.substr(tag_begin, tag_end - tag_begin));
    pos = tag_end;
  }
}

// Blanks comment and string-literal contents (quotes kept) and records
// allow tags.  Also blanks preprocessor lines so macro bodies with braces
// cannot desynchronise the brace walk.
void Strip(SourceFile& f) {
  const std::string& in = f.text;
  std::string out = in;
  int line = 1;
  enum State { kCode, kLine, kBlock, kStr, kChr, kPre };
  State st = kCode;
  std::string comment;  // accumulates current comment text for allow scan
  int comment_line = 1;
  for (size_t i = 0; i < in.size(); ++i) {
    char c = in[i];
    char n = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (st) {
      case kCode:
        if (c == '/' && n == '/') {
          st = kLine;
          comment.clear();
          comment_line = line;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && n == '*') {
          st = kBlock;
          comment.clear();
          comment_line = line;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          st = kStr;
        } else if (c == '\'') {
          st = kChr;
        } else if (c == '#' &&
                   (i == 0 || in[i - 1] == '\n' ||
                    [&] {  // only whitespace since the line start
                      size_t j = i;
                      while (j > 0 && (in[j - 1] == ' ' || in[j - 1] == '\t')) --j;
                      return j == 0 || in[j - 1] == '\n';
                    }())) {
          st = kPre;
          out[i] = ' ';
        }
        break;
      case kLine:
        if (c == '\n') {
          ScanAllows(comment, comment_line, f);
          st = kCode;
        } else {
          comment.push_back(c);
          out[i] = ' ';
        }
        break;
      case kBlock:
        if (c == '*' && n == '/') {
          ScanAllows(comment, comment_line, f);
          st = kCode;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '\n') {
          // Allow tags apply per comment line in block comments too.
          ScanAllows(comment, comment_line, f);
          comment.clear();
          comment_line = line + 1;
        } else {
          comment.push_back(c);
          out[i] = ' ';
        }
        break;
      case kStr:
        if (c == '\\' && n != '\0') {
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          st = kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case kChr:
        if (c == '\\' && n != '\0') {
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          st = kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case kPre:
        if (c == '\n') {
          st = (i > 0 && in[i - 1] == '\\') ? kPre : kCode;
        } else if (c == '/' && n == '/') {
          // Trailing comment on a directive line may still carry allows.
          st = kLine;
          comment.clear();
          comment_line = line;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else {
          out[i] = ' ';
        }
        break;
    }
    if (c == '\n') ++line;
  }
  if (st == kLine) ScanAllows(comment, comment_line, f);
  f.code = std::move(out);
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

std::string FirstWord(const std::string& s) {
  size_t b = 0;
  while (b < s.size() && !IsIdentChar(s[b])) ++b;
  size_t e = b;
  while (e < s.size() && IsIdentChar(s[e])) ++e;
  return s.substr(b, e - b);
}

bool HasWord(const std::string& s, const std::string& word) {
  size_t pos = 0;
  while ((pos = s.find(word, pos)) != std::string::npos) {
    bool lb = pos == 0 || !IsIdentChar(s[pos - 1]);
    size_t end = pos + word.size();
    bool rb = end >= s.size() || !IsIdentChar(s[end]);
    if (lb && rb) return true;
    pos = end;
  }
  return false;
}

// Strips trailing function qualifiers (const/noexcept/override/final,
// thread-annotation macro calls, trailing return types) so a function head
// reliably ends in ')'.
std::string StripTrailingQualifiers(std::string head) {
  for (;;) {
    head = Trim(head);
    if (head.empty()) return head;
    // `-> Type` trailing return.
    size_t arrow = head.rfind("->");
    if (arrow != std::string::npos &&
        head.find_first_of("(){}", arrow) == std::string::npos) {
      head = head.substr(0, arrow);
      continue;
    }
    if (head.back() == ')') {
      // Might be a qualifier macro like REQUIRES(mu_); strip it only when
      // the identifier before its '(' is ALL_CAPS (macro convention) —
      // otherwise this is the signature paren and we are done.
      size_t open = head.rfind('(');
      // Find the '(' matching the trailing ')'.
      int depth = 0;
      size_t i = head.size();
      while (i-- > 0) {
        if (head[i] == ')') ++depth;
        if (head[i] == '(') {
          if (--depth == 0) break;
        }
      }
      open = i;
      std::string name = IdentBefore(head, open);
      bool all_caps = !name.empty() &&
                      std::all_of(name.begin(), name.end(), [](char c) {
                        return std::isupper(static_cast<unsigned char>(c)) ||
                               c == '_' || std::isdigit(static_cast<unsigned char>(c));
                      });
      if (all_caps && head.find('(') < open) {
        head = head.substr(0, open - name.size());
        continue;
      }
      return head;
    }
    std::string last;
    size_t e = head.size();
    while (e > 0 && IsIdentChar(head[e - 1])) --e;
    last = head.substr(e);
    if (last == "const" || last == "noexcept" || last == "override" ||
        last == "final" || last == "mutable") {
      head = head.substr(0, e);
      continue;
    }
    return head;
  }
}

// The `A::B::C` identifier chain ending at `end` (exclusive).
std::string ChainBefore(const std::string& s, size_t end) {
  size_t e = end;
  while (e > 0 && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\n')) --e;
  size_t b = e;
  for (;;) {
    size_t ident = b;
    while (ident > 0 && IsIdentChar(s[ident - 1])) --ident;
    if (ident == b) break;  // no identifier
    b = ident;
    if (b >= 2 && s[b - 1] == ':' && s[b - 2] == ':') {
      b -= 2;
      continue;
    }
    break;
  }
  return s.substr(b, e - b);
}

}  // namespace

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::string IdentBefore(const std::string& code, size_t end) {
  size_t e = end;
  while (e > 0 && (code[e - 1] == ' ' || code[e - 1] == '\t' ||
                   code[e - 1] == '\n' || code[e - 1] == '\r')) {
    --e;
  }
  size_t b = e;
  while (b > 0 && IsIdentChar(code[b - 1])) --b;
  return code.substr(b, e - b);
}

bool WordAt(const std::string& code, size_t pos, const std::string& word) {
  if (code.compare(pos, word.size(), word) != 0) return false;
  if (!IsWordBoundary(code, pos)) return false;
  size_t end = pos + word.size();
  return end >= code.size() || !IsIdentChar(code[end]);
}

size_t MatchBracket(const std::string& code, size_t open) {
  char o = code[open];
  char c = o == '(' ? ')' : o == '{' ? '}' : o == '[' ? ']' : '>';
  int depth = 0;
  for (size_t i = open; i < code.size(); ++i) {
    if (code[i] == o) ++depth;
    else if (code[i] == c && --depth == 0) return i;
  }
  return code.size();
}

int SourceFile::LineOf(size_t off) const {
  auto it = std::upper_bound(line_starts.begin(), line_starts.end(), off);
  return static_cast<int>(it - line_starts.begin());
}

bool SourceFile::Allowed(const std::string& pass, size_t off) const {
  int line = LineOf(off);
  for (int l : {line, line - 1}) {
    auto it = allows.find(l);
    if (it != allows.end() &&
        (it->second.count(pass) != 0u || it->second.count("all") != 0u)) {
      return true;
    }
  }
  return false;
}

SourceFile MakeSource(std::string path, std::string text) {
  SourceFile f;
  f.path = std::move(path);
  f.text = std::move(text);
  f.line_starts.push_back(0);
  for (size_t i = 0; i < f.text.size(); ++i) {
    if (f.text[i] == '\n') f.line_starts.push_back(i + 1);
  }
  Strip(f);
  return f;
}

SourceFile LoadSource(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return MakeSource(path, buf.str());
}

std::vector<std::string> ListSources(const std::string& dir) {
  std::vector<std::string> out;
  namespace fs = std::filesystem;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec)) continue;
    std::string p = it->path().string();
    if (p.size() > 2 && (p.compare(p.size() - 2, 2, ".h") == 0 ||
                         p.compare(p.size() - 3, 3, ".cc") == 0)) {
      out.push_back(p);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

FileModel BuildModel(const SourceFile& f) {
  FileModel model;
  const std::string& code = f.code;

  struct Ctx {
    char kind;  // 'n' namespace, 't' type, 'f' function, 'b' block, 'i' init
    size_t boundary;    // start of the current statement at this depth
    int class_idx = -1;  // into model.classes when kind == 't'
    int func_idx = -1;   // into model.functions when kind == 'f'
  };
  std::vector<Ctx> stack;
  stack.push_back({'n', 0, -1, -1});

  for (size_t i = 0; i < code.size(); ++i) {
    char c = code[i];
    if (c == '(') {
      // Skip paren groups wholesale: for(;;) semicolons and lambda bodies
      // in call arguments must not look like statement boundaries.
      i = MatchBracket(code, i);
      continue;
    }
    if (c == ':' && stack.back().kind == 't' &&
        (i + 1 >= code.size() || code[i + 1] != ':') &&
        (i == 0 || code[i - 1] != ':')) {
      // Access-specifier labels are statement boundaries too.
      std::string label = IdentBefore(code, i);
      if (label == "public" || label == "private" || label == "protected") {
        stack.back().boundary = i + 1;
      }
      continue;
    }
    if (c == ';') {
      Ctx& top = stack.back();
      if (top.kind == 't' && top.class_idx >= 0) {
        std::string stmt = Trim(code.substr(top.boundary, i - top.boundary));
        if (!stmt.empty()) {
          MemberStmt m;
          m.stmt = stmt;
          m.off = top.boundary;
          // Declared name: identifier before `=`, `{`, `(`, or the `;`.
          size_t cut = stmt.find_first_of("={(");
          m.name = IdentBefore(stmt, cut == std::string::npos ? stmt.size() : cut);
          model.classes[top.class_idx].members.push_back(std::move(m));
        }
      }
      top.boundary = i + 1;
      continue;
    }
    if (c == '{') {
      Ctx& top = stack.back();
      std::string head = Trim(code.substr(top.boundary, i - top.boundary));
      Ctx next{'i', i + 1, -1, -1};
      std::string first = FirstWord(head);
      bool in_scope = top.kind == 'n' || top.kind == 't';
      if (head.empty() || head.back() == '=' || head.back() == ',' ||
          head.back() == '{' || head.back() == '(') {
        next.kind = 'i';
      } else if (first == "if" || first == "for" || first == "while" ||
                 first == "switch" || first == "do" || first == "else" ||
                 first == "try" || first == "catch") {
        next.kind = 'b';
      } else if (HasWord(head, "namespace")) {
        next.kind = 'n';
      } else if ((HasWord(head, "class") || HasWord(head, "struct") ||
                  HasWord(head, "union") || HasWord(head, "enum")) &&
                 head.find('(') == std::string::npos) {
        next.kind = 't';
        // Name: first identifier after the keyword that is not a
        // qualifier; `enum class X : base` and `struct X final` work.
        static const char* kKeys[] = {"class", "struct", "union", "enum"};
        size_t kpos = std::string::npos;
        for (const char* k : kKeys) {
          size_t p = head.find(k);
          while (p != std::string::npos &&
                 !(IsWordBoundary(head, p) &&
                   (p + strlen(k) >= head.size() ||
                    !IsIdentChar(head[p + strlen(k)])))) {
            p = head.find(k, p + 1);
          }
          if (p != std::string::npos) kpos = std::min(kpos, p);
        }
        std::string rest = kpos == std::string::npos ? head : head.substr(kpos);
        std::string name;
        size_t p = 0;
        while (p < rest.size()) {
          while (p < rest.size() && !IsIdentChar(rest[p])) {
            if (rest[p] == ':') { p = rest.size(); break; }  // base clause
            ++p;
          }
          size_t e = p;
          while (e < rest.size() && IsIdentChar(rest[e])) ++e;
          std::string w = rest.substr(p, e - p);
          p = e;
          if (w == "class" || w == "struct" || w == "union" || w == "enum" ||
              w == "final" || w.empty()) {
            continue;
          }
          // Attribute macros (SCOPED_CAPABILITY, CAPABILITY(...)) are
          // ALL_CAPS by convention — the real name follows them.
          if (std::all_of(w.begin(), w.end(), [](char ch) {
                return std::isupper(static_cast<unsigned char>(ch)) ||
                       ch == '_' || std::isdigit(static_cast<unsigned char>(ch));
              })) {
            continue;
          }
          name = w;
          break;
        }
        ClassInfo ci;
        ci.name = name;
        next.class_idx = static_cast<int>(model.classes.size());
        model.classes.push_back(std::move(ci));
      } else {
        std::string stripped = StripTrailingQualifiers(head);
        bool fnish = !stripped.empty() && stripped.back() == ')';
        if (fnish && in_scope && stripped.find("operator") == std::string::npos) {
          // Function definition (possibly with ctor-init list: the
          // signature paren is the first top-level one).
          size_t open = head.find('(');
          size_t close = open == std::string::npos
                             ? std::string::npos
                             : MatchBracket(head, open);
          FunctionDef fd;
          if (open != std::string::npos && close != std::string::npos) {
            std::string chain = ChainBefore(head, open);
            size_t sep = chain.rfind("::");
            if (sep == std::string::npos) {
              fd.name = chain;
            } else {
              fd.name = chain.substr(sep + 2);
              std::string qual = chain.substr(0, sep);
              size_t qsep = qual.rfind("::");
              fd.class_name =
                  qsep == std::string::npos ? qual : qual.substr(qsep + 2);
            }
          }
          if (fd.class_name.empty() && top.kind == 't' && top.class_idx >= 0) {
            fd.class_name = model.classes[top.class_idx].name;
          }
          fd.body_begin = i + 1;
          next.kind = 'f';
          next.func_idx = static_cast<int>(model.functions.size());
          model.functions.push_back(std::move(fd));
        } else {
          // Aggregate init (`Mutex mu_{...}`), lambda body, requires-
          // expression, etc.
          next.kind = in_scope ? 'i' : 'b';
        }
      }
      stack.push_back(next);
      continue;
    }
    if (c == '}') {
      if (stack.size() > 1) {
        Ctx done = stack.back();
        stack.pop_back();
        if (done.kind == 'f' && done.func_idx >= 0) {
          model.functions[done.func_idx].body_end = i;
        }
        // Init braces are part of an enclosing statement (`Mutex mu_{..};`):
        // keep the boundary so the eventual ';' captures the whole decl.
        if (done.kind != 'i') stack.back().boundary = i + 1;
      }
      continue;
    }
  }
  return model;
}

}  // namespace propeller::analyze
