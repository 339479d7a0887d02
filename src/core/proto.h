// Wire protocol between Propeller clients, the Master Node, and Index
// Nodes.  Every request/response is a plain struct with binary
// Serialize/Deserialize, so the transport charges real message sizes.
//
// Method names (see master_node.cc / index_node.cc for handlers):
//   Master:  mn.resolve_update  mn.resolve_search  mn.create_index
//            mn.flush_acg       mn.heartbeat       mn.tick
//   Index:   in.create_group    in.stage_updates   in.search
//            in.tick            in.migrate_out     in.install_group
//            in.recover_group   in.reset           in.catch_up
//            in.drop_group      in.resolve_update  in.resolve_search
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "acg/acg.h"
#include "common/serialize.h"
#include "common/status.h"
#include "index/index_group.h"
#include "index/query.h"
#include "net/transport.h"

namespace propeller::core {

using index::FileId;
using index::FileUpdate;
using index::GroupId;
using index::IndexSpec;
using index::Predicate;
using net::NodeId;

// ---- layout convention ----
// Every message has one fixed layout: each field is always written, so a
// configuration flag changes field values, never which fields are on the
// wire (the one conditional section, a lease grant's mirror, follows its
// own has_mirror byte).  A decoder that finds bytes left over rejects the
// message (see Decode).

// ---- epoch convention (read-path caching) ----
// The master stamps its routing metadata with monotonically increasing
// per-shard epochs (bumped whenever placement or the catalog changes).
// Every resolve response carries them in `shard_epochs` — always one slot
// per metadata shard — so clients can cache placements keyed by epoch, and
// the cached epoch rides on in.search / in.stage_updates so an Index Node
// can reject requests for groups it no longer owns with kStaleLocation.
// Epoch 0 means "no statement": an untouched shard's slot on a response,
// or an unstamped request.

// ---- replica convention (group replication) ----
// With ClusterConfig::replication_factor > 1 every group lives on r
// distinct nodes; nodes[0] is the *primary* (sole journal appender, always
// in the write quorum) and the rest are secondaries (hedge / failover
// targets).  Resolve responses carry the per-group replica sets (empty
// when unreplicated).
struct GroupReplicaSet {
  GroupId group = 0;
  std::vector<NodeId> nodes;  // nodes[0] = primary
};
// The one replica-set encoding: resolve responses, the lease mirror on
// heartbeat acks, and the master's metadata image all use it.
void PutReplicaSets(BinaryWriter& w, const std::vector<GroupReplicaSet>& sets);
Status GetReplicaSets(BinaryReader& r, std::vector<GroupReplicaSet>& sets);

// ---- shard convention (sharded master) ----
// The master hash-partitions its metadata into N = ClusterConfig::
// master_shards shards (N = 1 is the unsharded master): a file belongs to
// shard ShardOfFile(file, N) and a group allocated by shard s carries id
// ≡ s + 1 (mod N), so ShardOfGroup inverts the assignment without a
// lookup.  Each shard keeps its own epoch, so a client invalidates only the
// shard whose placement actually changed.  With placement leases on,
// `lease_holders` names each shard's current lease holder (0 = none) so
// clients can send resolves to the delegate; it is empty with leases off.
inline uint32_t ShardOfFile(FileId file, uint32_t num_shards) {
  if (num_shards <= 1) return 0;
  // splitmix64 finalizer: stable across platforms (std::hash is not).
  uint64_t x = file + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<uint32_t>(x % num_shards);
}
inline uint32_t ShardOfGroup(GroupId group, uint32_t num_shards) {
  if (num_shards <= 1 || group == 0) return 0;
  return static_cast<uint32_t>((group - 1) % num_shards);
}

// ---- mn.resolve_update ----
// Client: "I am about to index these files; where do they live?"
// The master places unknown files and answers (file, group, node) triples.
struct ResolveUpdateRequest {
  std::vector<FileId> files;
  // Arrival stamp (open-loop traffic): > 0 carries the virtual time the op
  // entered the system so the master can model queueing delay on the
  // owning metadata shard; 0 = unstamped.
  double arrival_s = 0;
  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, ResolveUpdateRequest& out);
};
struct ResolveUpdateResponse {
  struct Placement {
    FileId file = 0;
    GroupId group = 0;
    NodeId node = 0;  // the group's primary
  };
  std::vector<Placement> placements;
  // Full replica sets for the groups named above (empty = unreplicated).
  std::vector<GroupReplicaSet> replicas;
  // Per-shard epochs + lease holders (see the conventions above).
  std::vector<uint64_t> shard_epochs;
  std::vector<NodeId> lease_holders;
  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, ResolveUpdateResponse& out);
};

// ---- mn.resolve_search ----
// Client: "which Index Nodes hold groups carrying index `index_name`?"
// Empty name = all groups.
struct ResolveSearchRequest {
  std::string index_name;
  // Arrival stamp (open-loop traffic): see ResolveUpdateRequest.  On the
  // sharded master a search resolve reads every shard, so its queueing
  // delay is the max over the shards.
  double arrival_s = 0;
  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, ResolveSearchRequest& out);
};
struct ResolveSearchResponse {
  struct NodeGroups {
    NodeId node = 0;
    std::vector<GroupId> groups;
  };
  std::vector<NodeGroups> targets;  // keyed by each group's primary
  // Full replica sets per group (empty = unreplicated); clients hedge
  // slow/failed primary branches to nodes[1].
  std::vector<GroupReplicaSet> replicas;
  // Per-shard epochs + lease holders (see the conventions above).
  std::vector<uint64_t> shard_epochs;
  std::vector<NodeId> lease_holders;
  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, ResolveSearchResponse& out);
};

// ---- mn.create_index ----
struct CreateIndexRequest {
  IndexSpec spec;
  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, CreateIndexRequest& out);
};

// ---- mn.flush_acg ----
struct FlushAcgRequest {
  acg::Acg delta;
  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, FlushAcgRequest& out);
};

// ---- mn.heartbeat ----
// Also the master's liveness signal: `now_s` stamps the node's
// last-heartbeat time, which mn.tick compares against the miss threshold.
struct HeartbeatRequest {
  NodeId node = 0;
  double now_s = 0;  // cluster virtual time the heartbeat was sent
  struct GroupStat {
    GroupId group = 0;
    uint64_t files = 0;
    uint64_t pages = 0;
  };
  std::vector<GroupStat> groups;
  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, HeartbeatRequest& out);
};
// With placement leases on, the master rides its lease grants on the
// heartbeat ack.  A grant names a metadata shard the node may answer
// resolves for until `expiry_s`, and — only when the shard's epoch moved
// since the last push — a mirror of the shard's routing state (group ->
// primary, replica sets, file -> group) the node serves those resolves
// from.  Steady state (no metadata churn) renewals carry no mirror, so the
// per-heartbeat cost stays near a bare ack.  With leases off the ack is
// just the header: the shard count and two empty lists.
struct ShardLeaseGrant {
  uint32_t shard = 0;
  uint64_t epoch = 0;   // the mirror's epoch (what delegated answers stamp)
  double expiry_s = 0;  // lease valid until this cluster time
  bool has_mirror = false;
  struct GroupPrimary {
    GroupId group = 0;
    NodeId node = 0;
  };
  std::vector<GroupPrimary> groups;        // mirror: group -> primary
  std::vector<GroupReplicaSet> replicas;   // mirror: full sets (replication)
  struct FileGroup {
    FileId file = 0;
    GroupId group = 0;
  };
  std::vector<FileGroup> files;            // mirror: file -> group
};
struct HeartbeatResponse {
  uint32_t num_shards = 0;  // the master's metadata shard count
  std::vector<std::string> index_names;  // catalog names for delegated checks
  std::vector<ShardLeaseGrant> leases;
  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, HeartbeatResponse& out);
};

// ---- in.create_group ----
struct CreateGroupRequest {
  GroupId group = 0;
  std::vector<IndexSpec> specs;
  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, CreateGroupRequest& out);
};

// ---- in.stage_updates ----
// Replica roles (StageUpdatesRequest::replica_role).  kNone: the node
// appends to the journal iff one is attached and acks seq 0.  Under
// replication the client fans one
// shipment per replica: the primary appends to the journal and acks the
// assigned commit seq; secondaries stage only (the primary's append is the
// single durable copy) and track their own applied count.
inline constexpr uint8_t kReplicaRoleNone = 0;
inline constexpr uint8_t kReplicaRolePrimary = 1;
inline constexpr uint8_t kReplicaRoleSecondary = 2;

struct StageUpdatesRequest {
  GroupId group = 0;
  double now_s = 0;  // cluster virtual time, drives the commit timeout
  std::vector<FileUpdate> updates;
  // Epoch the client's placement for `group` was resolved at; > 0 asks the
  // node to answer kStaleLocation (instead of kNotFound) when the group
  // has moved away, triggering the client's re-resolve + retry.
  uint64_t epoch = 0;
  uint8_t replica_role = kReplicaRoleNone;
  // Admission flag (open-loop traffic): non-zero asks the node to run this
  // batch through its bounded admission queue at virtual time `now_s`
  // (kOverloaded on overflow, before any staging).
  uint8_t admission = 0;
  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, StageUpdatesRequest& out);
};
// The replica's applied commit sequence after this batch (0 when the
// request carried no replica role).
struct StageUpdatesResponse {
  uint64_t seq = 0;
  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, StageUpdatesResponse& out);
};

// ---- in.search ----
struct SearchRequest {
  std::vector<GroupId> groups;
  Predicate predicate;
  // Epoch the client's routing was resolved at; > 0 makes a group that is
  // no longer on this node a kStaleLocation error instead of a silent skip.
  uint64_t epoch = 0;
  // Read-your-writes floors (replication): per-group minimum applied
  // commit sequences from the client's primary-acked writes.  A replica
  // whose applied seq is behind a floor answers kStaleReplica instead of
  // serving stale results.
  struct GroupSeqFloor {
    GroupId group = 0;
    uint64_t seq = 0;
  };
  std::vector<GroupSeqFloor> min_seqs;
  // Arrival stamp (open-loop traffic): > 0 carries the virtual time the
  // request entered the system, asking the node to model queueing delay at
  // its bounded admission queue (kOverloaded on overflow); 0 = unstamped.
  double arrival_s = 0;
  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, SearchRequest& out);
};
struct SearchResponse {
  std::vector<FileId> files;
  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, SearchResponse& out);
};

// ---- in.tick / mn.tick ----
// On an Index Node: commits every group whose oldest staged update has
// aged past the timeout ("after a predetermined time interval, e.g. 5
// seconds").  On the Master Node: advances the failure detector — nodes
// whose last heartbeat is older than the miss window are declared dead
// and their groups recovered onto survivors.
struct TickRequest {
  double now_s = 0;
  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, TickRequest& out);
};

// ---- in.migrate_out ----
// Extracts (and deletes locally) the given files of a group; the response
// carries their committed records so the master can install them on the
// target node.
struct MigrateOutRequest {
  GroupId group = 0;
  std::vector<FileId> files;  // empty = everything in the group
  bool drop_group = false;    // also delete the (now empty) group
  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, MigrateOutRequest& out);
};
struct MigrateOutResponse {
  std::vector<FileUpdate> records;
  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, MigrateOutResponse& out);
};

// ---- in.install_group ----
struct InstallGroupRequest {
  GroupId group = 0;
  std::vector<IndexSpec> specs;
  std::vector<FileUpdate> records;
  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, InstallGroupRequest& out);
};

// ---- in.recover_group ----
// Master -> survivor node after a node death: rebuild `group` by
// replaying the shared-storage recovery journal (FailedPrecondition when
// the node has no journal attached).
struct RecoverGroupRequest {
  GroupId group = 0;
  std::vector<IndexSpec> specs;
  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, RecoverGroupRequest& out);
};
struct RecoverGroupResponse {
  uint64_t records_replayed = 0;
  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, RecoverGroupResponse& out);
};

// ---- in.catch_up ----
// Master -> replica: close the gap between the replica's applied commit
// sequence and the journal's.  Used when promoting a surviving replica
// after a node death and when seeding a brand-new replica (applied seq 0 =
// full replay).  Unlike in.recover_group it replays only the missing tail
// when the replica already holds a prefix (per-replica journal cursors).
struct CatchUpRequest {
  GroupId group = 0;
  std::vector<IndexSpec> specs;
  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, CatchUpRequest& out);
};
struct CatchUpResponse {
  uint64_t records_replayed = 0;
  uint64_t seq = 0;  // the replica's applied seq after catch-up
  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, CatchUpResponse& out);
};

// ---- in.drop_group ----
// Master -> secondary replica: discard the local copy of `group` without
// journal writes (the group dissolved in a merge, or this node left the
// replica set).  The journal and the surviving replicas keep the data.
struct DropGroupRequest {
  GroupId group = 0;
  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, DropGroupRequest& out);
};

// ---- in.reset ----
// Master -> revived node: drop every group (their data was re-homed while
// the node was dead) so the node rejoins the placement pool empty.
struct ResetNodeRequest {
  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, ResetNodeRequest& out);
};

// ---- generic helpers ----

// Serializes a request struct to a payload string.
template <typename T>
std::string Encode(const T& msg) {
  BinaryWriter w;
  msg.Serialize(w);
  return std::move(w).Take();
}

// Parses a payload into a message struct.  Layouts are fixed, so bytes
// left over after the message are corruption, not an unknown extension.
template <typename T>
Result<T> Decode(const std::string& payload) {
  BinaryReader r(payload);
  T out{};
  Status st = T::Deserialize(r, out);
  if (!st.ok()) return st;
  if (!r.AtEnd()) {
    return Status::Corruption(std::to_string(r.Remaining()) +
                              " trailing byte(s) after message");
  }
  return out;
}

}  // namespace propeller::core
