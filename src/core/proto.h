// Wire protocol between Propeller clients, the Master Node, and Index
// Nodes.  Every request/response is a plain struct that lists its fields
// once, in wire order, in `Fields()`; Encode/Decode (core/wire.h) derive
// the binary codec from that list, so the transport charges real message
// sizes.
//
// Method names (see master_node.cc / index_node.cc for handlers):
//   Master:  mn.resolve_update  mn.resolve_search  mn.create_index
//            mn.flush_acg       mn.heartbeat       mn.tick
//   Index:   in.create_group    in.stage_updates   in.search
//            in.tick            in.migrate_out     in.install_group
//            in.catch_up        in.reset           in.drop_group
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "acg/acg.h"
#include "core/wire.h"
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
// Every message has one fixed layout: its Fields() list, each field always
// written, so a configuration flag changes field values, never which
// fields are on the wire.  Decode rejects bytes left over and flag bytes other than 0 or 1.  The rendered
// layout of every message is pinned by tests/wire_schema.golden.

// The types embedded whole that keep their own codec (they are journaled
// outside the wire as well), under their schema names.
template <>
struct WireName<IndexSpec> {
  static constexpr std::string_view kName = "IndexSpec";
};
template <>
struct WireName<FileUpdate> {
  static constexpr std::string_view kName = "FileUpdate";
};
template <>
struct WireName<Predicate> {
  static constexpr std::string_view kName = "Predicate";
};
template <>
struct WireName<acg::Acg> {
  static constexpr std::string_view kName = "Acg";
};

// ---- epoch convention (read-path caching) ----
// The master stamps its routing metadata with one monotonically increasing
// epoch (bumped whenever placement or the catalog changes).  Every resolve
// response carries it in `metadata_epoch`, so clients can cache placements
// keyed by epoch, and the cached epoch rides on in.search /
// in.stage_updates so an Index Node can reject requests for groups it no
// longer owns with kStaleLocation.  Epoch 0 means "no statement": the
// answer to an empty resolve, or an unstamped request.

// ---- replica convention (group replication) ----
// With MasterConfig::replication_factor > 1 every group lives on r
// distinct nodes; nodes[0] is the *primary* (sole journal appender, always
// in the write quorum) and the rest are secondaries (hedge / failover
// targets).  Resolve responses carry the per-group replica sets (empty
// when unreplicated) — the only signal clients take replication from.
// Resolve responses and the master's metadata image both carry replica
// sets in this one layout.
struct GroupReplicaSet {
  GroupId group = 0;
  std::vector<NodeId> nodes;  // nodes[0] = primary
  template <class V>
  void Fields(V& v) {
    v(group, "group");
    v(nodes, "nodes");
  }
};

// ---- mn.resolve_update ----
// Client: "I am about to index these files; where do they live?"
// The master places unknown files and answers (file, group, node) triples.
struct ResolveUpdateRequest {
  std::vector<FileId> files;
  // Arrival stamp (open-loop traffic): > 0 carries the virtual time the op
  // entered the system so the master can model its queueing delay;
  // 0 = unstamped.
  double arrival_s = 0;
  template <class V>
  void Fields(V& v) {
    v(files, "files");
    v(arrival_s, "arrival_s");
  }
};
struct ResolveUpdateResponse {
  struct Placement {
    FileId file = 0;
    GroupId group = 0;
    NodeId node = 0;  // the group's primary
    template <class V>
    void Fields(V& v) {
      v(file, "file");
      v(group, "group");
      v(node, "node");
    }
  };
  std::vector<Placement> placements;
  // Full replica sets for the groups named above (empty = unreplicated).
  std::vector<GroupReplicaSet> replicas;
  // See the epoch convention above.
  uint64_t metadata_epoch = 0;
  template <class V>
  void Fields(V& v) {
    v(placements, "placements");
    v(replicas, "replicas");
    v(metadata_epoch, "metadata_epoch");
  }
};

// ---- mn.resolve_search ----
// Client: "which Index Nodes hold groups carrying index `index_name`?"
// Empty name = all groups.
struct ResolveSearchRequest {
  std::string index_name;
  // Arrival stamp (open-loop traffic): see ResolveUpdateRequest.
  double arrival_s = 0;
  template <class V>
  void Fields(V& v) {
    v(index_name, "index_name");
    v(arrival_s, "arrival_s");
  }
};
struct ResolveSearchResponse {
  struct NodeGroups {
    NodeId node = 0;
    std::vector<GroupId> groups;
    template <class V>
    void Fields(V& v) {
      v(node, "node");
      v(groups, "groups");
    }
  };
  std::vector<NodeGroups> targets;  // keyed by each group's primary
  // Full replica sets per group (empty = unreplicated); clients hedge
  // slow/failed primary branches to nodes[1].
  std::vector<GroupReplicaSet> replicas;
  // See the epoch convention above.
  uint64_t metadata_epoch = 0;
  template <class V>
  void Fields(V& v) {
    v(targets, "targets");
    v(replicas, "replicas");
    v(metadata_epoch, "metadata_epoch");
  }
};

// ---- mn.create_index ----
struct CreateIndexRequest {
  IndexSpec spec;
  template <class V>
  void Fields(V& v) {
    v(spec, "spec");
  }
};

// ---- mn.flush_acg ----
struct FlushAcgRequest {
  acg::Acg delta;
  template <class V>
  void Fields(V& v) {
    v(delta, "delta");
  }
};

// ---- mn.heartbeat ----
// Also the master's liveness signal: `now_s` stamps the node's
// last-heartbeat time, which mn.tick compares against the miss threshold.
// The master acks with an empty payload.
struct HeartbeatRequest {
  NodeId node = 0;
  double now_s = 0;  // cluster virtual time the heartbeat was sent
  struct GroupStat {
    GroupId group = 0;
    uint64_t files = 0;
    uint64_t pages = 0;
    template <class V>
    void Fields(V& v) {
      v(group, "group");
      v(files, "files");
      v(pages, "pages");
    }
  };
  std::vector<GroupStat> groups;
  template <class V>
  void Fields(V& v) {
    v(node, "node");
    v(now_s, "now_s");
    v(groups, "groups");
  }
};
// ---- in.create_group ----
struct CreateGroupRequest {
  GroupId group = 0;
  std::vector<IndexSpec> specs;
  template <class V>
  void Fields(V& v) {
    v(group, "group");
    v(specs, "specs");
  }
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
  template <class V>
  void Fields(V& v) {
    v(group, "group");
    v(now_s, "now_s");
    v(updates, "updates");
    v(epoch, "epoch");
    v(replica_role, "replica_role");
    v(admission, "admission");
  }
  // Hot path: one message per update batch.  Pre-size for the typical
  // serialized FileUpdate (~96 bytes of path + attributes).
  size_t WireSizeHint() const { return 30 + updates.size() * 96; }
};
// The replica's applied commit sequence after this batch (0 when the
// request carried no replica role).
struct StageUpdatesResponse {
  uint64_t seq = 0;
  template <class V>
  void Fields(V& v) {
    v(seq, "seq");
  }
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
    template <class V>
    void Fields(V& v) {
      v(group, "group");
      v(seq, "seq");
    }
  };
  std::vector<GroupSeqFloor> min_seqs;
  // Arrival stamp (open-loop traffic): > 0 carries the virtual time the
  // request entered the system, asking the node to model queueing delay at
  // its bounded admission queue (kOverloaded on overflow); 0 = unstamped.
  double arrival_s = 0;
  template <class V>
  void Fields(V& v) {
    v(groups, "groups");
    v(predicate, "predicate");
    v(epoch, "epoch");
    v(min_seqs, "min_seqs");
    v(arrival_s, "arrival_s");
  }
  // Hot path: one message per fan-out target; dominated by the group list.
  size_t WireSizeHint() const {
    return 24 + groups.size() * 8 + min_seqs.size() * 16 + 128;
  }
};
struct SearchResponse {
  std::vector<FileId> files;
  template <class V>
  void Fields(V& v) {
    v(files, "files");
  }
  size_t WireSizeHint() const { return 4 + files.size() * 8; }
};

// ---- in.tick / mn.tick ----
// On an Index Node: commits every group whose oldest staged update has
// aged past the timeout ("after a predetermined time interval, e.g. 5
// seconds").  On the Master Node: advances the failure detector — nodes
// whose last heartbeat is older than the miss window are declared dead
// and their groups recovered onto survivors.
struct TickRequest {
  double now_s = 0;
  template <class V>
  void Fields(V& v) {
    v(now_s, "now_s");
  }
};

// ---- in.migrate_out ----
// Extracts (and deletes locally) the given files of a group; the response
// carries their committed records so the master can install them on the
// target node.
struct MigrateOutRequest {
  GroupId group = 0;
  std::vector<FileId> files;  // empty = everything in the group
  bool drop_group = false;    // also delete the (now empty) group
  template <class V>
  void Fields(V& v) {
    v(group, "group");
    v(drop_group, "drop_group");
    v(files, "files");
  }
};
struct MigrateOutResponse {
  std::vector<FileUpdate> records;
  template <class V>
  void Fields(V& v) {
    v(records, "records");
  }
};

// ---- in.install_group ----
struct InstallGroupRequest {
  GroupId group = 0;
  std::vector<IndexSpec> specs;
  std::vector<FileUpdate> records;
  template <class V>
  void Fields(V& v) {
    v(group, "group");
    v(specs, "specs");
    v(records, "records");
  }
};

// ---- in.catch_up ----
// Master -> replica: close the gap between the replica's applied commit
// sequence and the journal's — the one way a replica set is repaired.
// Promoting a survivor or reviving a member replays only the missing tail
// (per-replica journal cursors); seeding a brand-new copy creates the
// group and replays it in full (applied seq 0), or rebuilds it from the
// base image when the journal was checkpointed.  A node without a journal
// creates the group empty and reports 0 records replayed.
struct CatchUpRequest {
  GroupId group = 0;
  std::vector<IndexSpec> specs;
  template <class V>
  void Fields(V& v) {
    v(group, "group");
    v(specs, "specs");
  }
};
struct CatchUpResponse {
  uint64_t records_replayed = 0;
  uint64_t seq = 0;  // the replica's applied seq after catch-up
  template <class V>
  void Fields(V& v) {
    v(records_replayed, "records_replayed");
    v(seq, "seq");
  }
};

// ---- in.drop_group ----
// Master -> secondary replica: discard the local copy of `group` without
// journal writes (the group dissolved in a merge, or this node left the
// replica set).  The journal and the surviving replicas keep the data.
struct DropGroupRequest {
  GroupId group = 0;
  template <class V>
  void Fields(V& v) {
    v(group, "group");
  }
};

// ---- in.reset ----
// Master -> revived node: drop every group (their data was re-homed while
// the node was dead) so the node rejoins the placement pool empty.
struct ResetNodeRequest {
  template <class V>
  void Fields(V&) {}
};

// ---- master metadata image ----
// Not an RPC: the image the master flushes to shared storage and a
// standby restores (MasterNode::SnapshotMetadata / RestoreMetadata),
// on the same codec.  Replica sets and ACG blobs are sorted by group id,
// so the bytes are a pure function of the placement tables.
struct MetadataImage {
  std::vector<IndexSpec> catalog;
  std::vector<GroupReplicaSet> replicas;
  struct GroupAcgBlob {
    GroupId group = 0;
    // The group's encoded acg::Acg: its files and their edges ("" = none).
    std::string blob;
    template <class V>
    void Fields(V& v) {
      v(group, "group");
      v(blob, "blob");
    }
  };
  std::vector<GroupAcgBlob> acg_blobs;
  uint64_t metadata_epoch = 0;
  template <class V>
  void Fields(V& v) {
    v(catalog, "catalog");
    v(replicas, "replicas");
    v(acg_blobs, "acg_blobs");
    v(metadata_epoch, "metadata_epoch");
  }
};

}  // namespace propeller::core
