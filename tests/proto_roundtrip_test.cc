// Byte-exact roundtrip coverage for every wire message in core/proto.h:
// encode -> decode -> re-encode must reproduce the original bytes, at
// all-default and all-set field values, a strict decode must reject any
// byte left over, and every encoding must match its pinned digest.
// Together with wire_schema_test (the rendered field lists against
// wire_schema.golden) this pins the wire format: the golden shows the
// structure, this test proves the bytes.
#include "core/proto.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "core/master_node.h"

namespace propeller::core {
namespace {

template <typename T>
std::string EncodeBytes(const T& msg) {
  return Encode(msg);
}

// Encode, decode, re-encode; the two encodings must be byte-identical and
// the decoder must consume every byte.
template <typename T>
void ExpectRoundtrip(const T& msg) {
  std::string bytes = EncodeBytes(msg);
  auto out = Decode<T>(bytes);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(bytes, EncodeBytes(*out));
}

FileUpdate MakeUpdate(FileId file) {
  FileUpdate u;
  u.file = file;
  u.attrs.Set("size", index::AttrValue(int64_t{4096}));
  u.attrs.Set("owner", index::AttrValue("alice"));
  u.attrs.Set("score", index::AttrValue(0.25));
  return u;
}

IndexSpec MakeSpec(const std::string& name) {
  IndexSpec s;
  s.name = name;
  s.type = index::IndexType::kBTree;
  s.attrs = {"size"};
  return s;
}

TEST(ProtoRoundtrip, ResolveUpdateRequest) {
  ExpectRoundtrip(ResolveUpdateRequest{});
  ResolveUpdateRequest req;
  req.files = {1, 2, 3};
  ExpectRoundtrip(req);
}

TEST(ProtoRoundtrip, ResolveUpdateResponse) {
  ResolveUpdateResponse resp;
  resp.placements.push_back({/*file=*/7, /*group=*/3, /*node=*/1});
  ExpectRoundtrip(resp);

  resp.metadata_epoch = 12;
  ExpectRoundtrip(resp);

  resp.replicas.push_back(GroupReplicaSet{3, {1, 2}});
  ExpectRoundtrip(resp);
}

TEST(ProtoRoundtrip, ResolveSearchRequest) {
  ResolveSearchRequest req;
  req.index_name = "by_size";
  ExpectRoundtrip(req);
}

TEST(ProtoRoundtrip, ResolveSearchResponse) {
  ResolveSearchResponse resp;
  ResolveSearchResponse::NodeGroups t;
  t.node = 2;
  t.groups = {10, 11};
  resp.targets.push_back(t);
  ExpectRoundtrip(resp);

  resp.metadata_epoch = 5;
  ExpectRoundtrip(resp);

  resp.replicas.push_back(GroupReplicaSet{10, {2, 3, 4}});
  ExpectRoundtrip(resp);
}

TEST(ProtoRoundtrip, CreateIndexRequest) {
  CreateIndexRequest req;
  req.spec = MakeSpec("by_size");
  ExpectRoundtrip(req);
}

TEST(ProtoRoundtrip, FlushAcgRequest) {
  FlushAcgRequest req;
  req.delta.AddVertex(42);
  req.delta.AddEdge(1, 2, 3);
  req.delta.AddEdge(2, 5);
  ExpectRoundtrip(req);
}

TEST(ProtoRoundtrip, HeartbeatRequest) {
  HeartbeatRequest req;
  req.node = 4;
  req.now_s = 12.5;
  req.groups.push_back({/*group=*/9, /*files=*/100, /*pages=*/7});
  ExpectRoundtrip(req);
}

TEST(ProtoRoundtrip, CreateGroupRequest) {
  CreateGroupRequest req;
  req.group = 6;
  req.specs = {MakeSpec("a"), MakeSpec("b")};
  ExpectRoundtrip(req);
}

TEST(ProtoRoundtrip, StageUpdatesRequestTrailingSections) {
  StageUpdatesRequest req;
  req.group = 3;
  req.now_s = 1.5;
  req.updates = {MakeUpdate(100), MakeUpdate(101)};
  ExpectRoundtrip(req);

  req.epoch = 9;
  ExpectRoundtrip(req);

  req.replica_role = kReplicaRolePrimary;
  ExpectRoundtrip(req);

  req.epoch = 0;
  ExpectRoundtrip(req);

  req.admission = 1;
  ExpectRoundtrip(req);

  req.replica_role = kReplicaRoleNone;
  ExpectRoundtrip(req);
}

TEST(ProtoRoundtrip, StageUpdatesResponse) {
  StageUpdatesResponse resp;
  resp.seq = 77;
  ExpectRoundtrip(resp);
}

TEST(ProtoRoundtrip, SearchRequestTrailingSections) {
  SearchRequest req;
  req.groups = {1, 2};
  req.predicate.And("size", index::CmpOp::kGe, index::AttrValue(int64_t{1024}));
  ExpectRoundtrip(req);

  req.epoch = 4;
  ExpectRoundtrip(req);

  req.min_seqs.push_back({/*group=*/1, /*seq=*/10});
  req.min_seqs.push_back({/*group=*/2, /*seq=*/20});
  ExpectRoundtrip(req);

  req.arrival_s = 3.25;
  ExpectRoundtrip(req);

  req.min_seqs.clear();
  req.epoch = 0;
  ExpectRoundtrip(req);
}

TEST(ProtoRoundtrip, SearchResponse) {
  SearchResponse resp;
  resp.files = {5, 6, 7};
  ExpectRoundtrip(resp);
  ExpectRoundtrip(SearchResponse{});
}

TEST(ProtoRoundtrip, TickRequest) {
  TickRequest req;
  req.now_s = 42.0;
  ExpectRoundtrip(req);
}

TEST(ProtoRoundtrip, MigrateOut) {
  MigrateOutRequest req;
  req.group = 8;
  req.drop_group = true;
  req.files = {1, 2};
  ExpectRoundtrip(req);
  req.drop_group = false;
  ExpectRoundtrip(req);

  MigrateOutResponse resp;
  resp.records = {MakeUpdate(1), MakeUpdate(2)};
  ExpectRoundtrip(resp);
}

TEST(ProtoRoundtrip, InstallGroupRequest) {
  InstallGroupRequest req;
  req.group = 8;
  req.specs = {MakeSpec("a")};
  req.records = {MakeUpdate(3)};
  ExpectRoundtrip(req);
}

TEST(ProtoRoundtrip, CatchUp) {
  CatchUpRequest req;
  req.group = 2;
  req.specs = {MakeSpec("a")};
  ExpectRoundtrip(req);

  CatchUpResponse resp;
  resp.records_replayed = 3;
  resp.seq = 17;
  ExpectRoundtrip(resp);
}

TEST(ProtoRoundtrip, DropGroupRequest) {
  DropGroupRequest req;
  req.group = 9;
  ExpectRoundtrip(req);
}

TEST(ProtoRoundtrip, ResetNodeRequest) {
  ExpectRoundtrip(ResetNodeRequest{});
}

// --- table-driven: every message, all-default and all-set ---------------

// One row of the message table: a message's encoding plus a strict
// decode-and-re-encode of arbitrary bytes as that message type.
struct WireCase {
  std::string name;
  std::string bytes;
  std::function<Result<std::string>(const std::string&)> reencode;
};

template <typename T>
WireCase Row(std::string name, const T& msg) {
  return {std::move(name), EncodeBytes(msg),
          [](const std::string& payload) -> Result<std::string> {
            auto out = Decode<T>(payload);
            if (!out.ok()) return out.status();
            return EncodeBytes(*out);
          }};
}

// Resolve-response routing tail: replica sets and the metadata epoch.
template <typename ResponseT>
void FillRouting(ResponseT& resp) {
  resp.replicas = {GroupReplicaSet{3, {1, 2}}, GroupReplicaSet{4, {2, 1}}};
  resp.metadata_epoch = 10;
}

std::vector<WireCase> AllCases() {
  std::vector<WireCase> cases;
  auto both = [&](const std::string& name, const auto& set) {
    using T = std::decay_t<decltype(set)>;
    cases.push_back(Row(name + "/default", T{}));
    cases.push_back(Row(name + "/set", set));
  };

  ResolveUpdateRequest rureq;
  rureq.files = {1, 2, 3};
  rureq.arrival_s = 0.5;
  both("ResolveUpdateRequest", rureq);

  ResolveUpdateResponse ruresp;
  ruresp.placements = {{7, 3, 1}, {8, 4, 2}};
  FillRouting(ruresp);
  both("ResolveUpdateResponse", ruresp);

  ResolveSearchRequest rsreq;
  rsreq.index_name = "by_size";
  rsreq.arrival_s = 0.75;
  both("ResolveSearchRequest", rsreq);

  ResolveSearchResponse rsresp;
  rsresp.targets = {{1, {3}}, {2, {4, 5}}};
  FillRouting(rsresp);
  both("ResolveSearchResponse", rsresp);

  CreateIndexRequest cireq;
  cireq.spec = MakeSpec("by_size");
  both("CreateIndexRequest", cireq);

  FlushAcgRequest flreq;
  flreq.delta.AddVertex(42);
  flreq.delta.AddEdge(1, 2, 3);
  both("FlushAcgRequest", flreq);

  HeartbeatRequest hbreq;
  hbreq.node = 4;
  hbreq.now_s = 12.5;
  hbreq.groups = {{9, 100, 7}};
  both("HeartbeatRequest", hbreq);

  CreateGroupRequest cgreq;
  cgreq.group = 6;
  cgreq.specs = {MakeSpec("a"), MakeSpec("b")};
  both("CreateGroupRequest", cgreq);

  StageUpdatesRequest streq;
  streq.group = 3;
  streq.now_s = 1.5;
  streq.updates = {MakeUpdate(100)};
  streq.epoch = 9;
  streq.replica_role = kReplicaRoleSecondary;
  streq.admission = 1;
  both("StageUpdatesRequest", streq);

  StageUpdatesResponse stresp;
  stresp.seq = 77;
  both("StageUpdatesResponse", stresp);

  SearchRequest sreq;
  sreq.groups = {1, 2};
  sreq.predicate.And("size", index::CmpOp::kGe, index::AttrValue(int64_t{1}));
  sreq.epoch = 4;
  sreq.min_seqs = {{1, 10}};
  sreq.arrival_s = 3.25;
  both("SearchRequest", sreq);

  SearchResponse sresp;
  sresp.files = {5, 6};
  both("SearchResponse", sresp);

  TickRequest tick;
  tick.now_s = 42.0;
  both("TickRequest", tick);

  MigrateOutRequest moreq;
  moreq.group = 8;
  moreq.drop_group = true;
  moreq.files = {1, 2};
  both("MigrateOutRequest", moreq);

  MigrateOutResponse moresp;
  moresp.records = {MakeUpdate(1)};
  both("MigrateOutResponse", moresp);

  InstallGroupRequest igreq;
  igreq.group = 8;
  igreq.specs = {MakeSpec("a")};
  igreq.records = {MakeUpdate(3)};
  both("InstallGroupRequest", igreq);

  CatchUpRequest cureq;
  cureq.group = 2;
  cureq.specs = {MakeSpec("a")};
  both("CatchUpRequest", cureq);

  CatchUpResponse curesp;
  curesp.records_replayed = 3;
  curesp.seq = 17;
  both("CatchUpResponse", curesp);

  DropGroupRequest dgreq;
  dgreq.group = 9;
  both("DropGroupRequest", dgreq);

  cases.push_back(Row("ResetNodeRequest", ResetNodeRequest{}));
  return cases;
}

TEST(ProtoRoundtrip, EveryMessageAtDefaultAndSetValues) {
  for (const WireCase& c : AllCases()) {
    auto again = c.reencode(c.bytes);
    ASSERT_TRUE(again.ok()) << c.name << ": " << again.status().ToString();
    EXPECT_EQ(*again, c.bytes) << c.name;
  }
}

// Fixed layouts make leftover bytes detectable: Decode must refuse them
// rather than silently ignore an unknown tail.
TEST(ProtoRoundtrip, StrictDecodeRejectsATrailingByte) {
  for (const WireCase& c : AllCases()) {
    auto padded = c.reencode(c.bytes + '\0');
    ASSERT_FALSE(padded.ok()) << c.name << " accepted a trailing byte";
    EXPECT_EQ(padded.status().code(), StatusCode::kCorruption) << c.name;
  }
}

// A flag byte is 0 or 1.  Any other value would decode, then re-encode to
// different bytes, so Decode rejects it as corruption.
TEST(ProtoRoundtrip, FlagBytesOtherThanZeroOrOneAreCorruption) {
  MigrateOutRequest migrate;
  migrate.group = 8;
  migrate.drop_group = true;
  migrate.files = {1};
  std::string bytes = Encode(migrate);
  const size_t drop_group_at = 8;  // after the u64 group
  ASSERT_EQ(bytes[drop_group_at], '\x01');
  bytes[drop_group_at] = '\x02';
  auto out = Decode<MigrateOutRequest>(bytes);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
}

// --- byte pin: every encoding against digests of the committed layout ---

// 64-bit FNV-1a over a payload.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Index node stand-in for the master's outbound RPCs: accepts everything.
class AcceptingNode : public net::RpcHandler {
 public:
  Response Handle(const std::string& method, const std::string&) override {
    if (method == "in.migrate_out") {
      return {Status::Ok(), Encode(MigrateOutResponse{}), sim::Cost(0.001)};
    }
    return {Status::Ok(), {}, sim::Cost(0.0001)};
  }
};

// The master's metadata image after a fixed run of RPCs on a two-replica
// master: a catalog entry, placed files in several groups, and
// an ACG delta, so every section of the image is non-empty.
std::string MetadataImageBytes() {
  net::Transport transport;
  AcceptingNode nodes[3];
  MasterConfig cfg;
  cfg.acg_policy.cluster_target = 3;
  cfg.acg_policy.merge_limit = 100;
  cfg.replication_factor = 2;
  MasterNode master(1, &transport, cfg);
  transport.Register(1, &master);
  for (NodeId id = 10; id < 13; ++id) {
    transport.Register(id, &nodes[id - 10]);
    master.AddIndexNode(id);
  }
  CreateIndexRequest idx;
  idx.spec = MakeSpec("by_size");
  EXPECT_TRUE(transport.Call(100, 1, "mn.create_index", Encode(idx)).status.ok());
  ResolveUpdateRequest files;
  for (FileId f = 1; f <= 8; ++f) files.files.push_back(f);
  EXPECT_TRUE(
      transport.Call(100, 1, "mn.resolve_update", Encode(files)).status.ok());
  FlushAcgRequest flush;
  flush.delta.AddEdge(1, 2, 3);
  flush.delta.AddEdge(2, 3);
  EXPECT_TRUE(transport.Call(100, 1, "mn.flush_acg", Encode(flush)).status.ok());
  return master.SnapshotMetadata();
}

// Digests of every AllCases() row and of the metadata image, captured from
// the hand-written codec.  The roundtrip tests above only prove that
// encode and decode agree with each other; this proves the bytes did not
// move.  A deliberate layout change updates a digest here and the schema
// golden together.
TEST(ProtoBytePin, EveryEncodingMatchesItsPinnedDigest) {
  const std::map<std::string, uint64_t> pinned = {
      {"CatchUpRequest/default", 0x5467b0da1d106495ull},
      {"CatchUpRequest/set", 0xda6206d67cde6d42ull},
      {"CatchUpResponse/default", 0x88201fb960ff6465ull},
      {"CatchUpResponse/set", 0xe5c56d1b2df868d7ull},
      {"CreateGroupRequest/default", 0x5467b0da1d106495ull},
      {"CreateGroupRequest/set", 0x5f43aab0a8c56d22ull},
      {"CreateIndexRequest/default", 0xe604823a249029bfull},
      {"CreateIndexRequest/set", 0x21fceedd54d5d23ull},
      {"DropGroupRequest/default", 0xa8c7f832281a39c5ull},
      {"DropGroupRequest/set", 0x81a3697174a540acull},
      {"FlushAcgRequest/default", 0x88201fb960ff6465ull},
      {"FlushAcgRequest/set", 0x51c7e26e9427ac2eull},
      {"HeartbeatRequest/default", 0x88201fb960ff6465ull},
      {"HeartbeatRequest/set", 0x5f64d88ccca0905bull},
      {"InstallGroupRequest/default", 0x88201fb960ff6465ull},
      {"InstallGroupRequest/set", 0xe1eb983491d71f08ull},
      {"MetadataImage", 0x233aacf51a8bb40dull},
      {"MigrateOutRequest/default", 0x7c96179f62dae92full},
      {"MigrateOutRequest/set", 0x8329c57e94363385ull},
      {"MigrateOutResponse/default", 0x4d25767f9dce13f5ull},
      {"MigrateOutResponse/set", 0x8e779fbd9ec2ae0dull},
      {"ResetNodeRequest", 0xcbf29ce484222325ull},
      {"ResolveSearchRequest/default", 0x5467b0da1d106495ull},
      {"ResolveSearchRequest/set", 0x63add5e8c1cb7610ull},
      {"ResolveSearchResponse/default", 0x88201fb960ff6465ull},
      {"ResolveSearchResponse/set", 0xda3a3ae741163b5aull},
      {"ResolveUpdateRequest/default", 0x5467b0da1d106495ull},
      {"ResolveUpdateRequest/set", 0xf55dbebd54903fa7ull},
      {"ResolveUpdateResponse/default", 0x88201fb960ff6465ull},
      {"ResolveUpdateResponse/set", 0x34cf1cb6a81d3973ull},
      {"SearchRequest/default", 0x17d9c15239d081d5ull},
      {"SearchRequest/set", 0x7dc235d45e5e0941ull},
      {"SearchResponse/default", 0x4d25767f9dce13f5ull},
      {"SearchResponse/set", 0x65de93eb3c2f15d4ull},
      {"StageUpdatesRequest/default", 0x42a3110292eaa1dull},
      {"StageUpdatesRequest/set", 0x1544c2ee979f1378ull},
      {"StageUpdatesResponse/default", 0xa8c7f832281a39c5ull},
      {"StageUpdatesResponse/set", 0xc46a0f9004baa068ull},
      {"TickRequest/default", 0xa8c7f832281a39c5ull},
      {"TickRequest/set", 0xa9903a3228c42778ull},
  };
  std::map<std::string, uint64_t> actual;
  for (const WireCase& c : AllCases()) actual[c.name] = Fnv1a(c.bytes);
  actual["MetadataImage"] = Fnv1a(MetadataImageBytes());
  for (const auto& [name, digest] : actual) {
    auto it = pinned.find(name);
    EXPECT_TRUE(it != pinned.end() && it->second == digest)
        << "{\"" << name << "\", 0x" << std::hex << digest << "ull},";
  }
  EXPECT_EQ(pinned.size(), actual.size());
}

}  // namespace
}  // namespace propeller::core
