// Selftest for the propeller_analyze passes (tools/analyze) against
// synthetic in-memory sources: proves each pass actually detects the
// defect class it guards against (and stays quiet on the clean idiom),
// so `ctest -L analysis` fails if the analyzer regresses — not only if
// the analyzed sources do.
#include "analyze.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace propeller::analyze {
namespace {

int FatalCount(const std::vector<Finding>& findings) {
  int n = 0;
  for (const Finding& f : findings) n += f.fatal ? 1 : 0;
  return n;
}

bool AnyMentions(const std::vector<Finding>& findings, const std::string& s) {
  for (const Finding& f : findings) {
    if (f.message.find(s) != std::string::npos) return true;
  }
  return false;
}

std::string WriteTemp(const std::string& name, const std::string& text) {
  std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return path;
}

// ---- lock pass ---------------------------------------------------------

constexpr char kMutexHeader[] = R"cc(
namespace propeller {
enum class LockRank : int {
  kUnranked = 0,
  kLow = 10,
  kMid = 20,
  kHigh = 30,
};
class Mutex {};
class SharedMutex {};
}  // namespace propeller
)cc";

std::vector<Finding> RunLocks(const std::string& source_text,
                              const std::string& design_path = "") {
  Options opt;
  opt.design = design_path;
  std::vector<Finding> findings;
  std::vector<SourceFile> files;
  files.push_back(MakeSource("src/common/mutex.h", kMutexHeader));
  files.push_back(MakeSource("src/core/node.cc", source_text));
  RunLockOrderPass(opt, files, &findings);
  return findings;
}

constexpr char kLockClean[] = R"cc(
namespace x {
class Journal {
 public:
  void Append() { MutexLock lock(mu_); }
 private:
  Mutex mu_{LockRank::kHigh, "Journal::mu_"};
};
class Node {
 public:
  void Publish() {
    MutexLock lock(mu_);
    journal_->Append();
  }
  void Scoped() {
    { MutexLock lock(low_); }
    MutexLock lock(mu_);
  }
 private:
  Mutex low_{LockRank::kLow, "Node::low_"};
  Mutex mu_{LockRank::kMid, "Node::mu_"};
  Journal* journal_ = nullptr;
};
}  // namespace x
)cc";

TEST(LockOrderPass, CleanOrderingHasNoFindings) {
  std::vector<Finding> findings = RunLocks(kLockClean);
  EXPECT_EQ(FatalCount(findings), 0) << (findings.empty()
      ? ""
      : findings[0].message);
}

TEST(LockOrderPass, NestedInversionIsFlagged) {
  std::string bad = kLockClean;
  // Acquire kMid then kLow in the same scope: rank inversion.
  size_t pos = bad.find("    { MutexLock lock(low_); }\n    MutexLock lock(mu_);");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos,
              std::string("    { MutexLock lock(low_); }\n"
                          "    MutexLock lock(mu_);")
                  .size(),
              "    MutexLock a(mu_);\n    MutexLock b(low_);");
  std::vector<Finding> findings = RunLocks(bad);
  EXPECT_GE(FatalCount(findings), 1);
  EXPECT_TRUE(AnyMentions(findings, "lock-order violation"));
  EXPECT_TRUE(AnyMentions(findings, "kMid"));
  EXPECT_TRUE(AnyMentions(findings, "kLow"));
}

TEST(LockOrderPass, CallPropagationCatchesInvertedCallee) {
  // Journal::Append acquires kHigh; calling it while holding a rank above
  // kHigh must be flagged through the one-level call propagation.
  std::string bad = kLockClean;
  size_t pos = bad.find("Mutex mu_{LockRank::kMid, \"Node::mu_\"};");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, std::string("Mutex mu_{LockRank::kMid, \"Node::mu_\"};").size(),
              "Mutex mu_{LockRank::kHigh, \"Node::mu_\"};");
  std::vector<Finding> findings = RunLocks(bad);
  EXPECT_GE(FatalCount(findings), 1);
  EXPECT_TRUE(AnyMentions(findings, "Journal::Append"));
}

TEST(LockOrderPass, UnrankedMutexNeedsAllow) {
  std::string src = R"cc(
namespace x {
class Scratch {
 private:
  Mutex mu_;
};
}  // namespace x
)cc";
  std::vector<Finding> findings = RunLocks(src);
  EXPECT_GE(FatalCount(findings), 1);
  EXPECT_TRUE(AnyMentions(findings, "unranked"));

  std::string allowed = R"cc(
namespace x {
class Scratch {
 private:
  Mutex mu_;  // analyze:allow(locks)
};
}  // namespace x
)cc";
  EXPECT_EQ(FatalCount(RunLocks(allowed)), 0);
}

TEST(LockOrderPass, DesignTableCrossCheck) {
  std::string good_table = WriteTemp("design_ok.md",
      "| `kLow` (10) | `x::Node::low_` | scratch |\n"
      "| `kMid` (20) | `x::Node::mu_` | node state |\n"
      "| `kHigh` (30) | `x::Journal::mu_` | journal |\n");
  EXPECT_EQ(FatalCount(RunLocks(kLockClean, good_table)), 0);

  // Wrong number for kMid, plus a row for a mutex that does not exist.
  std::string bad_table = WriteTemp("design_bad.md",
      "| `kLow` (10) | `x::Node::low_` | scratch |\n"
      "| `kMid` (25) | `x::Node::mu_` | node state |\n"
      "| `kHigh` (30) | `x::Journal::mu_` | journal |\n"
      "| `kHigh` (30) | `x::Ghost::mu_` | gone |\n");
  std::vector<Finding> findings = RunLocks(kLockClean, bad_table);
  EXPECT_GE(FatalCount(findings), 2);
  EXPECT_TRUE(AnyMentions(findings, "kMid"));
  EXPECT_TRUE(AnyMentions(findings, "Ghost"));

  // A ranked mutex missing from the table is also a finding.
  std::string short_table = WriteTemp("design_short.md",
      "| `kLow` (10) | `x::Node::low_` | scratch |\n"
      "| `kHigh` (30) | `x::Journal::mu_` | journal |\n");
  findings = RunLocks(kLockClean, short_table);
  EXPECT_GE(FatalCount(findings), 1);
  EXPECT_TRUE(AnyMentions(findings, "missing from the DESIGN.md rank table"));
}

// ---- determinism pass --------------------------------------------------

std::vector<Finding> RunDet(const std::string& text,
                            const std::string& path = "src/core/node.cc") {
  Options opt;
  std::vector<Finding> findings;
  std::vector<SourceFile> files;
  files.push_back(MakeSource(path, text));
  RunDeterminismPass(opt, files, &findings);
  return findings;
}

TEST(DeterminismPass, WallClockBannedOutsideObs) {
  std::string src = R"cc(
namespace x {
double Now() {
  return std::chrono::duration<double>(
      std::chrono::steady_clock::now().time_since_epoch()).count();
}
}  // namespace x
)cc";
  std::vector<Finding> findings = RunDet(src);
  EXPECT_GE(FatalCount(findings), 1);
  EXPECT_TRUE(AnyMentions(findings, "steady_clock"));

  // The same text under src/obs/ is the sanctioned wall-time shim.
  EXPECT_EQ(FatalCount(RunDet(src, "src/obs/wall.cc")), 0);

  // And an allow comment documents a deliberate exception anywhere.
  std::string allowed = src;
  size_t pos = allowed.find("std::chrono::steady_clock::now");
  allowed.insert(pos, "// analyze:allow(determinism)\n      ");
  EXPECT_EQ(FatalCount(RunDet(allowed)), 0);
}

TEST(DeterminismPass, AmbientRandomnessBanned) {
  std::string src = R"cc(
namespace x {
int Roll() { return rand() % 6; }
uint64_t Seed() { std::random_device rd; return rd(); }
}  // namespace x
)cc";
  std::vector<Finding> findings = RunDet(src);
  EXPECT_GE(FatalCount(findings), 2);
  EXPECT_TRUE(AnyMentions(findings, "rand"));
  EXPECT_TRUE(AnyMentions(findings, "random_device"));

  // Identifiers merely *named* rand / time are fine.
  std::string benign = R"cc(
namespace x {
struct S { double time = 0; int rand = 0; };
double F(const S& s) { return s.time + s.rand; }
}  // namespace x
)cc";
  EXPECT_EQ(FatalCount(RunDet(benign)), 0);
}

TEST(DeterminismPass, PoolFanOutOutsideTheForkHelperFlagged) {
  std::string src = R"cc(
namespace x {
void FanOut(ThreadPool* pool, std::vector<int>* out) {
  auto futures = pool->SubmitBatch(out->size(), [&](size_t i) {
    (*out)[i] = Work(i);
  });
  ThreadPool::WaitAll(futures);
}
}  // namespace x
)cc";
  std::vector<Finding> findings = RunDet(src);
  EXPECT_EQ(FatalCount(findings), 1);
  EXPECT_TRUE(AnyMentions(findings, "ForkBranches"));

  // The pool that defines it and the fork helper that wraps it are exempt.
  EXPECT_EQ(FatalCount(RunDet(src, "src/common/thread_pool.h")), 0);
  EXPECT_EQ(FatalCount(RunDet(src, "src/obs/fork_join.h")), 0);

  // Naming it without a call is not a fan-out.
  std::string named = R"cc(
namespace x {
// Fan out with SubmitBatch only inside obs::ForkBranches.
using Batch = decltype(&ThreadPool::SubmitBatchSize);
}  // namespace x
)cc";
  EXPECT_EQ(FatalCount(RunDet(named)), 0);
}

TEST(DeterminismPass, UnorderedIterationIntoWriterFlagged) {
  std::string src = R"cc(
namespace x {
class Table {
 public:
  void Snapshot(BinaryWriter& w) const {
    for (const auto& [k, v] : rows_) {
      w.PutU64(k);
      w.PutU64(v);
    }
  }
 private:
  std::unordered_map<uint64_t, uint64_t> rows_;
};
}  // namespace x
)cc";
  std::vector<Finding> findings = RunDet(src);
  EXPECT_GE(FatalCount(findings), 1);
  EXPECT_TRUE(AnyMentions(findings, "unordered"));

  // The sorted-keys idiom is clean: the serializing loop runs over a
  // sorted vector, the unordered loop only collects.
  std::string sorted = R"cc(
namespace x {
class Table {
 public:
  void Snapshot(BinaryWriter& w) const {
    std::vector<uint64_t> keys;
    for (const auto& [k, v] : rows_) keys.push_back(k);
    std::sort(keys.begin(), keys.end());
    for (uint64_t k : keys) {
      w.PutU64(k);
      w.PutU64(rows_.at(k));
    }
  }
 private:
  std::unordered_map<uint64_t, uint64_t> rows_;
};
}  // namespace x
)cc";
  EXPECT_EQ(FatalCount(RunDet(sorted)), 0);
}

}  // namespace
}  // namespace propeller::analyze
