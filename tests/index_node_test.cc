// IndexNode unit tests: the RPC surface exercised directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "core/group_journal.h"
#include "core/index_node.h"

namespace propeller::core {
namespace {

using index::AttrValue;
using index::CmpOp;

FileUpdate Upsert(FileId f, int64_t size) {
  FileUpdate u;
  u.file = f;
  u.attrs.Set("size", AttrValue(size));
  return u;
}

class IndexNodeTest : public ::testing::Test {
 protected:
  IndexNodeTest() : node_(10) {}

  net::RpcHandler::Response Call(const std::string& method,
                                 const std::string& payload) {
    return node_.Handle(method, payload);
  }

  void CreateGroup(GroupId g) {
    CreateGroupRequest req;
    req.group = g;
    req.specs = {{"by_size", index::IndexType::kBTree, {"size"}}};
    ASSERT_TRUE(Call("in.create_group", Encode(req)).status.ok());
  }

  void Stage(GroupId g, std::vector<FileUpdate> updates, double now = 0) {
    StageUpdatesRequest req;
    req.group = g;
    req.now_s = now;
    req.updates = std::move(updates);
    ASSERT_TRUE(Call("in.stage_updates", Encode(req)).status.ok());
  }

  std::vector<FileId> Search(std::vector<GroupId> groups, int64_t min_size) {
    SearchRequest req;
    req.groups = std::move(groups);
    req.predicate.And("size", CmpOp::kGt, AttrValue(min_size));
    auto resp = Call("in.search", Encode(req));
    EXPECT_TRUE(resp.status.ok());
    auto decoded = Decode<SearchResponse>(resp.payload);
    EXPECT_TRUE(decoded.ok());
    std::sort(decoded->files.begin(), decoded->files.end());
    return decoded->files;
  }

  IndexNode node_;
};

TEST_F(IndexNodeTest, CreateGroupIsIdempotentForSpecs) {
  CreateGroup(5);
  CreateGroup(5);  // re-sending the same specs is fine
  EXPECT_EQ(node_.NumGroups(), 1u);
  EXPECT_TRUE(node_.FindGroup(5)->HasIndex("by_size"));
}

TEST_F(IndexNodeTest, StageToUnknownGroupFails) {
  StageUpdatesRequest req;
  req.group = 99;
  req.updates.push_back(Upsert(1, 10));
  EXPECT_EQ(Call("in.stage_updates", Encode(req)).status.code(),
            StatusCode::kNotFound);
}

TEST_F(IndexNodeTest, SearchCommitsStagedUpdates) {
  CreateGroup(1);
  Stage(1, {Upsert(1, 100), Upsert(2, 5)});
  EXPECT_EQ(Search({1}, 50), (std::vector<FileId>{1}));
  EXPECT_EQ(node_.FindGroup(1)->PendingUpdates(), 0u);
}

TEST_F(IndexNodeTest, SearchSkipsUnknownGroupsGracefully) {
  CreateGroup(1);
  Stage(1, {Upsert(1, 100)});
  // Group 2 migrated away / never existed: the search still answers from
  // group 1 (stale routing tolerance).
  EXPECT_EQ(Search({1, 2}, 50), (std::vector<FileId>{1}));
}

TEST_F(IndexNodeTest, TickCommitsOnlyAfterTimeout) {
  CreateGroup(1);
  Stage(1, {Upsert(1, 100)}, /*now=*/10.0);

  TickRequest early;
  early.now_s = 12.0;  // only 2s elapsed < 5s timeout
  ASSERT_TRUE(Call("in.tick", Encode(early)).status.ok());
  EXPECT_EQ(node_.FindGroup(1)->PendingUpdates(), 1u);

  TickRequest late;
  late.now_s = 15.5;
  ASSERT_TRUE(Call("in.tick", Encode(late)).status.ok());
  EXPECT_EQ(node_.FindGroup(1)->PendingUpdates(), 0u);
  EXPECT_EQ(node_.FindGroup(1)->NumFiles(), 1u);
}

// Regression: the oldest-pending stamp used to be a bare atomic on the
// node's group table, cleared with a blind store after search/tick.  A
// stage landing between a search's commit and that store lost its timeout
// epoch, so its updates could sit past the commit timeout.  The stamp now
// lives under the group mutex and Commit clears it, so a stage that lands
// after the search re-stamps correctly.
TEST_F(IndexNodeTest, StageAfterSearchKeepsItsOwnTimeoutEpoch) {
  CreateGroup(1);
  Stage(1, {Upsert(1, 100)}, /*now=*/10.0);
  EXPECT_EQ(Search({1}, 50), (std::vector<FileId>{1}));  // commits, clears stamp

  Stage(1, {Upsert(2, 200)}, /*now=*/20.0);
  EXPECT_DOUBLE_EQ(node_.FindGroup(1)->OldestPendingStagedAt(), 20.0);

  // A tick measured from the new epoch (not the cleared one) commits only
  // once 20.0 + timeout has passed.
  TickRequest early;
  early.now_s = 24.0;
  ASSERT_TRUE(Call("in.tick", Encode(early)).status.ok());
  EXPECT_EQ(node_.FindGroup(1)->PendingUpdates(), 1u);
  TickRequest late;
  late.now_s = 25.5;
  ASSERT_TRUE(Call("in.tick", Encode(late)).status.ok());
  EXPECT_EQ(node_.FindGroup(1)->PendingUpdates(), 0u);
  EXPECT_EQ(node_.FindGroup(1)->NumFiles(), 2u);
}

TEST_F(IndexNodeTest, TickAfterCrashRecoveryStillCommitsPending) {
  CreateGroup(1);
  Stage(1, {Upsert(1, 100)}, /*now=*/10.0);
  auto* group = node_.FindGroup(1);
  group->SimulateCrashLosingMemoryState();
  ASSERT_TRUE(group->RecoverPendingFromWal().ok());
  // The pre-crash epoch survives recovery, so the timeout fires on
  // schedule instead of never (or immediately).
  EXPECT_DOUBLE_EQ(group->OldestPendingStagedAt(), 10.0);
  TickRequest late;
  late.now_s = 15.5;
  ASSERT_TRUE(Call("in.tick", Encode(late)).status.ok());
  EXPECT_EQ(node_.FindGroup(1)->PendingUpdates(), 0u);
  EXPECT_EQ(node_.FindGroup(1)->NumFiles(), 1u);
}

TEST_F(IndexNodeTest, MigrateOutMovesSelectedFiles) {
  CreateGroup(1);
  Stage(1, {Upsert(1, 10), Upsert(2, 20), Upsert(3, 30)});

  MigrateOutRequest req;
  req.group = 1;
  req.files = {1, 3};
  auto resp = Call("in.migrate_out", Encode(req));
  ASSERT_TRUE(resp.status.ok());
  auto decoded = Decode<MigrateOutResponse>(resp.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->records.size(), 2u);

  // Only file 2 remains locally.
  EXPECT_EQ(node_.FindGroup(1)->NumFiles(), 1u);
  EXPECT_EQ(Search({1}, 0), (std::vector<FileId>{2}));
}

TEST_F(IndexNodeTest, MigrateAllAndDropGroup) {
  CreateGroup(1);
  Stage(1, {Upsert(1, 10), Upsert(2, 20)});
  MigrateOutRequest req;
  req.group = 1;
  req.drop_group = true;  // empty files list = take everything
  auto resp = Call("in.migrate_out", Encode(req));
  ASSERT_TRUE(resp.status.ok());
  auto decoded = Decode<MigrateOutResponse>(resp.payload);
  EXPECT_EQ(decoded->records.size(), 2u);
  EXPECT_EQ(node_.NumGroups(), 0u);
}

TEST_F(IndexNodeTest, InstallGroupMakesRecordsSearchable) {
  InstallGroupRequest req;
  req.group = 9;
  req.specs = {{"by_size", index::IndexType::kBTree, {"size"}}};
  req.records = {Upsert(7, 700), Upsert(8, 800)};
  ASSERT_TRUE(Call("in.install_group", Encode(req)).status.ok());
  EXPECT_EQ(Search({9}, 750), (std::vector<FileId>{8}));
}

TEST_F(IndexNodeTest, GroupStatsReflectCommittedState) {
  CreateGroup(1);
  CreateGroup(2);
  Stage(1, {Upsert(1, 10), Upsert(2, 20)});
  TickRequest tick;
  tick.now_s = 100;
  ASSERT_TRUE(Call("in.tick", Encode(tick)).status.ok());

  auto stats = node_.GroupStats();
  ASSERT_EQ(stats.size(), 2u);
  uint64_t total_files = 0;
  for (auto& s : stats) total_files += s.files;
  EXPECT_EQ(total_files, 2u);
  EXPECT_GT(node_.TotalPages(), 0u);
}

TEST_F(IndexNodeTest, SearchMakespanUsesWorkerPool) {
  // Many groups of different sizes, searched in one request: the node-side
  // cost must be far below the serial sum because 16 workers run in
  // parallel.  The cost bits at 1, 3 and 16 workers are pinned: the
  // longest-first schedule must not move a single addition.
  struct Pool {
    int threads;
    uint64_t cost_bits;
  };
  const Pool pools[] = {{1, 0x3fea5a038194c021ULL},
                       {3, 0x3fd21cffeb074a7fULL},
                       {16, 0x3faa5b9628cbd130ULL}};
  std::vector<double> costs;
  for (const Pool& pool : pools) {
    IndexNodeConfig cfg;
    cfg.search_threads = pool.threads;
    IndexNode node(11, cfg);
    for (GroupId g = 1; g <= 32; ++g) {
      CreateGroupRequest creq;
      creq.group = g;
      creq.specs = {{"by_size", index::IndexType::kBTree, {"size"}}};
      ASSERT_TRUE(node.Handle("in.create_group", Encode(creq)).status.ok());
      StageUpdatesRequest sreq;
      sreq.group = g;
      const FileId files = 20 + (g * 7) % 40;
      for (FileId f = 0; f < files; ++f) {
        sreq.updates.push_back(Upsert(g * 1000 + f, static_cast<int64_t>(f)));
      }
      ASSERT_TRUE(node.Handle("in.stage_updates", Encode(sreq)).status.ok());
    }
    SearchRequest req;
    for (GroupId g = 1; g <= 32; ++g) req.groups.push_back(g);
    req.predicate.And("size", CmpOp::kGt, AttrValue(int64_t{-1}));
    auto resp = node.Handle("in.search", Encode(req));
    ASSERT_TRUE(resp.status.ok());
    EXPECT_EQ(std::bit_cast<uint64_t>(resp.cost.seconds()), pool.cost_bits)
        << pool.threads << " workers: " << std::hexfloat << resp.cost.seconds();
    costs.push_back(resp.cost.seconds());
  }
  EXPECT_GT(costs[0], costs[1]);
  EXPECT_GT(costs[0], costs[2] * 4);
}

// A role byte above kReplicaRoleSecondary is malformed.  The node rejects
// it before the journal append instead of treating it as an appender that
// assigns no sequence.
TEST(IndexNodeRoleTest, UnknownReplicaRoleRejectedBeforeTheJournal) {
  GroupJournal journal;
  IndexNodeConfig cfg;
  cfg.recovery_journal = &journal;
  IndexNode node(12, cfg);
  CreateGroupRequest creq;
  creq.group = 1;
  creq.specs = {{"by_size", index::IndexType::kBTree, {"size"}}};
  ASSERT_TRUE(node.Handle("in.create_group", Encode(creq)).status.ok());

  StageUpdatesRequest req;
  req.group = 1;
  req.updates = {Upsert(1, 10)};
  req.replica_role = kReplicaRoleSecondary + 1;
  EXPECT_EQ(node.Handle("in.stage_updates", Encode(req)).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(journal.NumRecords(1), 0u);

  // The same batch as the primary appends and acks the journal's sequence.
  req.replica_role = kReplicaRolePrimary;
  auto resp = node.Handle("in.stage_updates", Encode(req));
  ASSERT_TRUE(resp.status.ok());
  auto ack = Decode<StageUpdatesResponse>(resp.payload);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(journal.NumRecords(1), 1u);
  EXPECT_EQ(ack->seq, journal.Seq(1));
}

// A copy behind the group's journal: the journal already holds history
// (records another node appended) when this node creates the group, as
// for a survivor promoted while its catch-up failed.
class IndexNodeBehindJournalTest : public ::testing::Test {
 protected:
  IndexNodeBehindJournalTest() : node_(13, Config(&journal_)) {
    journal_.AppendBatch(1, {Upsert(1, 10), Upsert(2, 20)});
    CreateGroupRequest req;
    req.group = 1;
    req.specs = {{"by_size", index::IndexType::kBTree, {"size"}}};
    EXPECT_TRUE(node_.Handle("in.create_group", Encode(req)).status.ok());
  }

  static IndexNodeConfig Config(GroupJournal* journal) {
    IndexNodeConfig cfg;
    cfg.recovery_journal = journal;
    return cfg;
  }

  // Stages one record as the group's primary (a journal appender).
  void StageAsPrimary(FileUpdate u) {
    StageUpdatesRequest req;
    req.group = 1;
    req.replica_role = kReplicaRolePrimary;
    req.updates = {std::move(u)};
    auto resp = node_.Handle("in.stage_updates", Encode(req));
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  }

  double Lag() {
    return node_.MetricsSnapshot().gauges["in.replica.lag"];
  }

  GroupJournal journal_;
  IndexNode node_;
};

// The append does not mark the copy current, so the next tick's
// anti-entropy pass still replays the records it missed.
TEST_F(IndexNodeBehindJournalTest, StageDoesNotMarkTheCopyCurrent) {
  StageAsPrimary(Upsert(3, 30));
  EXPECT_EQ(journal_.Seq(1), 3u);
  EXPECT_EQ(Lag(), 3.0) << "the append stepped over the missed records";

  TickRequest tick;
  tick.now_s = 1.0;
  ASSERT_TRUE(node_.Handle("in.tick", Encode(tick)).status.ok());
  EXPECT_EQ(Lag(), 0.0);
  SearchRequest search;
  search.groups = {1};
  search.predicate.And("size", CmpOp::kGt, AttrValue(int64_t{0}));
  auto resp = node_.Handle("in.search", Encode(search));
  ASSERT_TRUE(resp.status.ok());
  auto found = Decode<SearchResponse>(resp.payload);
  ASSERT_TRUE(found.ok());
  std::sort(found->files.begin(), found->files.end());
  EXPECT_EQ(found->files, (std::vector<FileId>{1, 2, 3}));
}

// Moving the group off such a copy hands off its whole history, not just
// the one record staged on it.
TEST_F(IndexNodeBehindJournalTest, MigrateOutReplaysTheJournalFirst) {
  StageAsPrimary(Upsert(3, 30));
  MigrateOutRequest req;
  req.group = 1;
  auto resp = node_.Handle("in.migrate_out", Encode(req));
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  auto moved = Decode<MigrateOutResponse>(resp.payload);
  ASSERT_TRUE(moved.ok());
  std::vector<FileId> files;
  for (const FileUpdate& u : moved->records) files.push_back(u.file);
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<FileId>{1, 2, 3}));
}

// Without a journal, in.catch_up creates the group empty and reports no
// records replayed: a node that lost its data comes back with an empty
// copy rather than none.
TEST_F(IndexNodeTest, CatchUpWithoutAJournalCreatesTheGroupEmpty) {
  CatchUpRequest req;
  req.group = 4;
  req.specs = {{"by_size", index::IndexType::kBTree, {"size"}}};
  auto resp = Call("in.catch_up", Encode(req));
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  auto decoded = Decode<CatchUpResponse>(resp.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->records_replayed, 0u);
  ASSERT_NE(node_.FindGroup(4), nullptr);
  EXPECT_EQ(node_.FindGroup(4)->NumFiles(), 0u);
  EXPECT_TRUE(node_.FindGroup(4)->HasIndex("by_size"));
}

TEST_F(IndexNodeTest, MalformedPayloadRejected) {
  EXPECT_FALSE(Call("in.stage_updates", "junk").status.ok());
  EXPECT_FALSE(Call("in.search", "junk").status.ok());
  EXPECT_EQ(Call("in.bogus", "").status.code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace propeller::core
