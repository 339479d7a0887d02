// DeterminismPass: ban-list for bit-identical simulation runs.
//
//   1. Wall-clock sources — std::chrono::{system,steady,high_resolution}
//      _clock, clock_gettime, gettimeofday anywhere outside src/obs/
//      (observability may report wall time beside simulated time; nothing
//      else may even read it).
//   2. Ambient randomness — rand/srand/random_device/drand48/lrand48.
//      All randomness must come from seeded engines owned by the
//      simulation (net::FaultPlan, bench workloads).
//   3. Unordered-container iteration feeding serialized output — a
//      range-for over an unordered_map/unordered_set whose body performs
//      BinaryWriter Put*/Serialize calls.  libstdc++ iteration order is
//      deterministic in practice but unspecified; once it reaches the
//      wire, a journal, or a golden file it becomes a portability bug.
//      (Sort the keys first — see Acg::SortedVertices for the idiom.)
//   4. Fan-outs that skip the trace-cursor fork — a SubmitBatch( call
//      outside src/common/ (the pool) and src/obs/ (obs::ForkBranches).
//      ForkBranches starts every branch from the fan-out instant; a
//      hand-rolled pool fan-out makes span timestamps depend on thread
//      order.
//
// `// analyze:allow(determinism)` on the line (or the line above)
// documents a deliberate exception, e.g. common/stopwatch.h.
#include "analyze.h"

#include <cctype>
#include <map>
#include <set>

namespace propeller::analyze {

namespace {

// True when `path` lies in a directory named `dir` (repo-relative or not).
bool InDir(const std::string& path, const std::string& dir) {
  return path.find("/" + dir + "/") != std::string::npos ||
         path.compare(0, dir.size() + 1, dir + "/") == 0;
}

const char* const kClockBans[] = {"system_clock", "steady_clock",
                                  "high_resolution_clock", "clock_gettime",
                                  "gettimeofday", "time"};
const char* const kRandBans[] = {"rand", "srand", "random_device", "drand48",
                                 "lrand48", "mt19937_external"};

// `time` and `rand` are short and common; require a call or std::
// qualification to avoid flagging identifiers like `now_time`.
bool NeedsCallContext(const std::string& word) {
  return word == "time" || word == "rand" || word == "srand";
}

}  // namespace

void RunDeterminismPass(const std::vector<SourceFile>& files,
                        std::vector<Finding>* findings) {
  // Pass 1: collect unordered members per class and unordered-returning
  // accessor names, across all files (members are often used from the
  // .cc while declared in the .h).
  std::map<std::string, std::set<std::string>> unordered_members;
  std::set<std::string> unordered_accessors;
  std::vector<FileModel> models;
  models.reserve(files.size());
  for (const SourceFile& f : files) {
    models.push_back(BuildModel(f));
    for (const ClassInfo& ci : models.back().classes) {
      for (const MemberStmt& m : ci.members) {
        if (m.stmt.find("unordered_map<") == std::string::npos &&
            m.stmt.find("unordered_set<") == std::string::npos) {
          continue;
        }
        if (m.name.empty()) continue;
        if (m.stmt.find('(') != std::string::npos &&
            m.stmt.find('{') == std::string::npos) {
          // Accessor declaration like
          // `const std::unordered_set<FileId>& vertices() const;` or an
          // inline definition — the *name* becomes tainted everywhere.
          unordered_accessors.insert(m.name);
        } else {
          unordered_members[ci.name].insert(m.name);
        }
      }
    }
  }

  for (size_t fi = 0; fi < files.size(); ++fi) {
    const SourceFile& f = files[fi];
    const std::string& code = f.code;

    // --- banned tokens --------------------------------------------------
    for (size_t i = 0; i < code.size(); ++i) {
      if (!IsIdentChar(code[i]) || (i > 0 && IsIdentChar(code[i - 1]))) {
        continue;
      }
      size_t e = i;
      while (e < code.size() && IsIdentChar(code[e])) ++e;
      std::string word = code.substr(i, e - i);
      bool is_clock = false, is_rand = false;
      for (const char* b : kClockBans) is_clock = is_clock || word == b;
      for (const char* b : kRandBans) is_rand = is_rand || word == b;
      if (!is_clock && !is_rand) {
        i = e;
        continue;
      }
      if (is_clock && InDir(f.path, "obs")) {
        i = e;
        continue;
      }
      // Member access (`x.time`, `plan->rand`) is not the libc call.
      bool member = (i >= 1 && code[i - 1] == '.') ||
                    (i >= 2 && code.compare(i - 2, 2, "->") == 0);
      if (member) {
        i = e;
        continue;
      }
      if (NeedsCallContext(word)) {
        bool qualified = i >= 2 && code[i - 1] == ':' && code[i - 2] == ':';
        size_t after = e;
        while (after < code.size() &&
               std::isspace(static_cast<unsigned char>(code[after]))) {
          ++after;
        }
        bool call = after < code.size() && code[after] == '(';
        // Declarations like `double time = ...` or struct fields named
        // rand are fine; `rand()`, `std::time(nullptr)` are not.
        if (!call && !qualified) {
          i = e;
          continue;
        }
        if (call && !qualified) {
          // A method named `time`/`rand` defined in this repo would be a
          // self-call; only flag the bare libc spelling when no such
          // method exists nearby — conservative: flag it, allow-list the
          // rare false positive.
        }
      }
      if (!f.Allowed("determinism", i)) {
        findings->push_back(
            {f.path, f.LineOf(i), "determinism",
             "banned " + std::string(is_clock ? "wall-clock" : "randomness") +
                 " source '" + word +
                 "' — simulation code must use sim time / seeded engines "
                 "(annotate analyze:allow(determinism) if deliberate)"});
      }
      i = e;
    }

    // --- pool fan-outs outside the fork helper ---------------------------
    if (!InDir(f.path, "common") && !InDir(f.path, "obs")) {
      const std::string call = "SubmitBatch";
      for (size_t i = code.find(call); i != std::string::npos;
           i = code.find(call, i + 1)) {
        size_t after = i + call.size();
        while (after < code.size() &&
               std::isspace(static_cast<unsigned char>(code[after]))) {
          ++after;
        }
        if ((i > 0 && IsIdentChar(code[i - 1])) || after >= code.size() ||
            code[after] != '(' || f.Allowed("determinism", i)) {
          continue;
        }
        findings->push_back(
            {f.path, f.LineOf(i), "determinism",
             "SubmitBatch( outside src/common and src/obs — fan out through "
             "obs::ForkBranches, which starts every branch from the fan-out "
             "instant so traces do not depend on thread order"});
      }
    }

    // --- unordered iteration into serialized output ---------------------
    for (const FunctionDef& fd : models[fi].functions) {
      if (fd.body_end <= fd.body_begin) continue;
      for (size_t i = fd.body_begin; i < fd.body_end; ++i) {
        if (!WordAt(code, i, "for")) continue;
        size_t open = code.find('(', i);
        if (open == std::string::npos || open >= fd.body_end) break;
        size_t close = MatchBracket(code, open);
        std::string head = code.substr(open + 1, close - open - 1);
        // Range-for only: find a top-level ':' that is not '::'.
        int depth = 0;
        size_t colon = std::string::npos;
        for (size_t k = 0; k < head.size(); ++k) {
          char h = head[k];
          if (h == '(' || h == '[' || h == '{' || h == '<') ++depth;
          if (h == ')' || h == ']' || h == '}' || h == '>') --depth;
          if (h == ':' && depth == 0 &&
              (k + 1 >= head.size() || head[k + 1] != ':') &&
              (k == 0 || head[k - 1] != ':')) {
            colon = k;
            break;
          }
        }
        if (colon == std::string::npos) {
          i = close;
          continue;
        }
        std::string range = head.substr(colon + 1);
        // Tainted when the range mentions an unordered member of the
        // enclosing class, a file-local unordered variable declared
        // earlier in this function, or an unordered-returning accessor.
        bool tainted = false;
        std::string cause;
        const std::set<std::string>* members = nullptr;
        auto cit = unordered_members.find(fd.class_name);
        if (cit != unordered_members.end()) members = &cit->second;
        for (size_t k = 0; k < range.size(); ++k) {
          if (!IsIdentChar(range[k]) || (k > 0 && IsIdentChar(range[k - 1]))) {
            continue;
          }
          size_t we = k;
          while (we < range.size() && IsIdentChar(range[we])) ++we;
          std::string w = range.substr(k, we - k);
          k = we;
          if (members != nullptr && members->count(w) != 0u) {
            tainted = true;
            cause = fd.class_name + "::" + w;
            break;
          }
          if (unordered_accessors.count(w) != 0u) {
            // Accessor taint requires a call: `acg.vertices()`.
            size_t a = we;
            while (a < range.size() &&
                   std::isspace(static_cast<unsigned char>(range[a]))) {
              ++a;
            }
            if (a < range.size() && range[a] == '(') {
              tainted = true;
              cause = w + "()";
              break;
            }
          }
          // Local unordered declarations inside this function body.
          size_t decl = code.find("unordered_", fd.body_begin);
          while (decl != std::string::npos && decl < i) {
            size_t semi = code.find(';', decl);
            if (semi != std::string::npos && semi < i) {
              std::string stmt = code.substr(decl, semi - decl);
              size_t cut = stmt.find_first_of("={(");
              std::string name = IdentBefore(
                  stmt, cut == std::string::npos ? stmt.size() : cut);
              if (!name.empty() && name == w) {
                tainted = true;
                cause = "local " + w;
                break;
              }
            }
            decl = code.find("unordered_", decl + 1);
          }
          if (tainted) break;
        }
        if (!tainted) {
          i = close;
          continue;
        }
        // Sink check: does the loop body serialize?
        size_t body_begin = close + 1;
        while (body_begin < fd.body_end &&
               std::isspace(static_cast<unsigned char>(code[body_begin]))) {
          ++body_begin;
        }
        size_t body_end;
        if (body_begin < fd.body_end && code[body_begin] == '{') {
          body_end = MatchBracket(code, body_begin);
        } else {
          body_end = code.find(';', body_begin);
          if (body_end == std::string::npos || body_end > fd.body_end) {
            body_end = fd.body_end;
          }
        }
        std::string body = code.substr(body_begin, body_end - body_begin);
        bool sink = body.find(".Serialize(") != std::string::npos;
        for (size_t k = 0; !sink && (k = body.find(".Put", k)) !=
                                    std::string::npos;
             ++k) {
          sink = k + 4 < body.size() &&
                 std::isupper(static_cast<unsigned char>(body[k + 4]));
        }
        if (sink && !f.Allowed("determinism", i)) {
          findings->push_back(
              {f.path, f.LineOf(i), "determinism",
               "iteration over unordered container (" + cause +
                   ") feeds serialized output — iteration order is "
                   "unspecified; sort the keys first (see "
                   "Acg::SortedVertices)"});
        }
        i = close;
      }
    }
  }
}

}  // namespace propeller::analyze
