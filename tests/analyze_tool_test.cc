// Selftest for the propeller_analyze determinism pass (tools/analyze)
// against synthetic in-memory sources: proves the pass actually detects
// each defect class it guards against (and stays quiet on the clean
// idiom), so `ctest -L analysis` fails if the analyzer regresses — not
// only if the analyzed sources do.
#include "analyze.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace propeller::analyze {
namespace {

bool AnyMentions(const std::vector<Finding>& findings, const std::string& s) {
  for (const Finding& f : findings) {
    if (f.message.find(s) != std::string::npos) return true;
  }
  return false;
}

std::vector<Finding> RunDet(const std::string& text,
                            const std::string& path = "src/core/node.cc") {
  std::vector<Finding> findings;
  std::vector<SourceFile> files;
  files.push_back(MakeSource(path, text));
  RunDeterminismPass(files, &findings);
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
  EXPECT_GE(findings.size(), 1u);
  EXPECT_TRUE(AnyMentions(findings, "steady_clock"));

  // The same text under src/obs/ is the sanctioned wall-time shim.
  EXPECT_EQ(RunDet(src, "src/obs/wall.cc").size(), 0u);

  // And an allow comment documents a deliberate exception anywhere.
  std::string allowed = src;
  size_t pos = allowed.find("std::chrono::steady_clock::now");
  allowed.insert(pos, "// analyze:allow(determinism)\n      ");
  EXPECT_EQ(RunDet(allowed).size(), 0u);
}

TEST(DeterminismPass, AmbientRandomnessBanned) {
  std::string src = R"cc(
namespace x {
int Roll() { return rand() % 6; }
uint64_t Seed() { std::random_device rd; return rd(); }
}  // namespace x
)cc";
  std::vector<Finding> findings = RunDet(src);
  EXPECT_GE(findings.size(), 2u);
  EXPECT_TRUE(AnyMentions(findings, "rand"));
  EXPECT_TRUE(AnyMentions(findings, "random_device"));

  // Identifiers merely *named* rand / time are fine.
  std::string benign = R"cc(
namespace x {
struct S { double time = 0; int rand = 0; };
double F(const S& s) { return s.time + s.rand; }
}  // namespace x
)cc";
  EXPECT_EQ(RunDet(benign).size(), 0u);
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
  EXPECT_EQ(findings.size(), 1u);
  EXPECT_TRUE(AnyMentions(findings, "ForkBranches"));

  // The pool that defines it and the fork helper that wraps it are exempt.
  EXPECT_EQ(RunDet(src, "src/common/thread_pool.h").size(), 0u);
  EXPECT_EQ(RunDet(src, "src/obs/fork_join.h").size(), 0u);

  // Naming it without a call is not a fan-out.
  std::string named = R"cc(
namespace x {
// Fan out with SubmitBatch only inside obs::ForkBranches.
using Batch = decltype(&ThreadPool::SubmitBatchSize);
}  // namespace x
)cc";
  EXPECT_EQ(RunDet(named).size(), 0u);
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
  EXPECT_GE(findings.size(), 1u);
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
  EXPECT_EQ(RunDet(sorted).size(), 0u);
}

}  // namespace
}  // namespace propeller::analyze
