// propeller-analyze: dependency-free static analysis over src/.
//
// One pass, run without Clang installed (token/declaration-level parsing
// only — this must run everywhere cmake does):
//
//   determinism  Ban-list for bit-identical simulation: wall-clock sources
//                outside the obs/ shims, rand()/std::random_device,
//                unordered-container iteration that feeds a BinaryWriter,
//                and pool fan-outs outside obs::ForkBranches.
//
// Lock order needs no pass: the runtime rank detector (common/mutex.h)
// checks every acquisition the tests drive, and lock_rank_test checks the
// DESIGN.md rank table against the LockRank enum.
//
// Escape hatch: a `// analyze:allow(determinism)` comment on the offending
// line or the line above suppresses a finding (use sparingly, with a
// justification comment).
//
// The wire format needs no pass either: each message's Fields() list in
// src/core/proto.h drives its encoder and decoder, and wire_schema_test
// checks the rendered layout against tests/wire_schema.golden.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace propeller::analyze {

struct Finding {
  std::string file;
  int line = 0;
  std::string pass;  // "determinism"
  std::string message;
};

// One loaded translation unit/header.  `code` is `text` with comment and
// string-literal *contents* blanked to spaces (quotes and newlines kept),
// so offsets and line numbers line up between the two.
struct SourceFile {
  std::string path;
  std::string text;
  std::string code;
  // line (1-based) -> allow tags seen in comments on that line.
  std::map<int, std::set<std::string>> allows;
  std::vector<size_t> line_starts;

  int LineOf(size_t off) const;
  // True when `// analyze:allow(pass)` covers this offset (same line or
  // the line above).
  bool Allowed(const std::string& pass, size_t off) const;
};

SourceFile LoadSource(const std::string& path);
SourceFile MakeSource(std::string path, std::string text);  // for tests
// All *.h / *.cc under `dir`, recursively, sorted by path.
std::vector<std::string> ListSources(const std::string& dir);

// ---- light structural model -------------------------------------------

struct MemberStmt {
  std::string stmt;  // statement text (stripped code), braces included
  std::string name;  // best-effort declared identifier ("" if none)
};

struct ClassInfo {
  std::string name;
  std::vector<MemberStmt> members;  // `;`-terminated statements at class depth
};

struct FunctionDef {
  std::string class_name;  // from "X::name" or the enclosing class; "" = free
  size_t body_begin = 0;   // offset just inside '{'
  size_t body_end = 0;     // offset of the matching '}'
};

struct FileModel {
  std::vector<ClassInfo> classes;
  std::vector<FunctionDef> functions;
};

FileModel BuildModel(const SourceFile& f);

// ---- small token helpers ----------------------------------------------

bool IsIdentChar(char c);
// The identifier ending exactly at `end` (exclusive), "" if none.
std::string IdentBefore(const std::string& code, size_t end);
// True when code[pos..] starts the whole-word identifier `word`.
bool WordAt(const std::string& code, size_t pos, const std::string& word);
// Offset of the matching close for the open bracket at `open`.
size_t MatchBracket(const std::string& code, size_t open);

// ---- the pass ----------------------------------------------------------

void RunDeterminismPass(const std::vector<SourceFile>& files,
                        std::vector<Finding>* findings);

}  // namespace propeller::analyze
