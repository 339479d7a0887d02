// Byte-exact roundtrip coverage for every wire message in core/proto.h:
// encode -> decode -> re-encode must reproduce the original bytes, at
// all-default and all-set field values, and a strict decode must reject
// any byte left over.  Together with the propeller_analyze wire pass
// (encode/decode symmetry + golden schema) this pins the wire format: the
// analyzer proves the structure, this test proves the bytes.
#include "core/proto.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <type_traits>
#include <vector>

namespace propeller::core {
namespace {

template <typename T>
std::string EncodeBytes(const T& msg) {
  BinaryWriter w;
  msg.Serialize(w);
  return w.data();
}

// Encode, decode, re-encode; the two encodings must be byte-identical and
// the decoder must consume every byte.
template <typename T>
void ExpectRoundtrip(const T& msg) {
  std::string bytes = EncodeBytes(msg);
  BinaryReader r(bytes);
  T out;
  ASSERT_TRUE(T::Deserialize(r, out).ok());
  EXPECT_TRUE(r.AtEnd()) << "decoder left " << r.Remaining()
                         << " trailing byte(s)";
  EXPECT_EQ(bytes, EncodeBytes(out));
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

  resp.shard_epochs = {12};
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

  resp.shard_epochs = {5};
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

TEST(ProtoRoundtrip, RecoverGroup) {
  RecoverGroupRequest req;
  req.group = 2;
  req.specs = {MakeSpec("a")};
  ExpectRoundtrip(req);

  RecoverGroupResponse resp;
  resp.records_replayed = 31;
  ExpectRoundtrip(resp);
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

// Resolve-response routing tail at `shards` metadata shards, with every
// shard's lease held.
template <typename ResponseT>
void FillRouting(ResponseT& resp, uint32_t shards) {
  resp.replicas = {GroupReplicaSet{3, {1, 2}}, GroupReplicaSet{4, {2, 1}}};
  resp.shard_epochs.clear();
  resp.lease_holders.clear();
  for (uint32_t s = 0; s < shards; ++s) {
    resp.shard_epochs.push_back(10 + s);
    resp.lease_holders.push_back(static_cast<NodeId>(1 + s % 2));
  }
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
  for (uint32_t shards : {1u, 4u}) {
    FillRouting(ruresp, shards);
    both("ResolveUpdateResponse/N=" + std::to_string(shards), ruresp);
  }

  ResolveSearchRequest rsreq;
  rsreq.index_name = "by_size";
  rsreq.arrival_s = 0.75;
  both("ResolveSearchRequest", rsreq);

  ResolveSearchResponse rsresp;
  rsresp.targets = {{1, {3}}, {2, {4, 5}}};
  for (uint32_t shards : {1u, 4u}) {
    FillRouting(rsresp, shards);
    both("ResolveSearchResponse/N=" + std::to_string(shards), rsresp);
  }

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

  HeartbeatResponse hbresp;
  hbresp.num_shards = 4;
  hbresp.index_names = {"by_size", "by_mtime"};
  ShardLeaseGrant renewal;
  renewal.shard = 1;
  renewal.epoch = 6;
  renewal.expiry_s = 9.0;
  ShardLeaseGrant mirror = renewal;
  mirror.shard = 3;
  mirror.has_mirror = true;
  mirror.groups = {{4, 2}};
  mirror.replicas = {GroupReplicaSet{4, {2, 1}}};
  mirror.files = {{8, 4}};
  hbresp.leases = {renewal, mirror};
  both("HeartbeatResponse", hbresp);

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

  RecoverGroupRequest rgreq;
  rgreq.group = 2;
  rgreq.specs = {MakeSpec("a")};
  both("RecoverGroupRequest", rgreq);

  RecoverGroupResponse rgresp;
  rgresp.records_replayed = 31;
  both("RecoverGroupResponse", rgresp);

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

}  // namespace
}  // namespace propeller::core
