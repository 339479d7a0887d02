#include "core/proto.h"

namespace propeller::core {

void PutReplicaSets(BinaryWriter& w, const std::vector<GroupReplicaSet>& sets) {
  w.PutU32(static_cast<uint32_t>(sets.size()));
  for (const GroupReplicaSet& rs : sets) {
    w.PutU64(rs.group);
    w.PutU32(static_cast<uint32_t>(rs.nodes.size()));
    for (NodeId n : rs.nodes) w.PutU32(n);
  }
}

Status GetReplicaSets(BinaryReader& r, std::vector<GroupReplicaSet>& sets) {
  sets.clear();
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  for (uint32_t i = 0; i < n; ++i) {
    GroupReplicaSet rs;
    PROPELLER_RETURN_IF_ERROR(r.GetU64(rs.group));
    uint32_t nn = 0;
    PROPELLER_RETURN_IF_ERROR(r.GetU32(nn));
    for (uint32_t j = 0; j < nn; ++j) {
      NodeId node = 0;
      PROPELLER_RETURN_IF_ERROR(r.GetU32(node));
      rs.nodes.push_back(node);
    }
    sets.push_back(std::move(rs));
  }
  return Status::Ok();
}

namespace {

// The routing tail both resolve responses share: replica sets, per-shard
// epochs, per-shard lease holders.
void PutRoutingTail(BinaryWriter& w, const std::vector<GroupReplicaSet>& replicas,
                    const std::vector<uint64_t>& shard_epochs,
                    const std::vector<NodeId>& lease_holders) {
  PutReplicaSets(w, replicas);
  w.PutU32(static_cast<uint32_t>(shard_epochs.size()));
  for (uint64_t e : shard_epochs) w.PutU64(e);
  w.PutU32(static_cast<uint32_t>(lease_holders.size()));
  for (NodeId n : lease_holders) w.PutU32(n);
}

Status GetRoutingTail(BinaryReader& r, std::vector<GroupReplicaSet>& replicas,
                      std::vector<uint64_t>& shard_epochs,
                      std::vector<NodeId>& lease_holders) {
  PROPELLER_RETURN_IF_ERROR(GetReplicaSets(r, replicas));
  shard_epochs.clear();
  uint32_t ns = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(ns));
  for (uint32_t i = 0; i < ns; ++i) {
    uint64_t e = 0;
    PROPELLER_RETURN_IF_ERROR(r.GetU64(e));
    shard_epochs.push_back(e);
  }
  lease_holders.clear();
  uint32_t nh = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(nh));
  for (uint32_t i = 0; i < nh; ++i) {
    NodeId n = 0;
    PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
    lease_holders.push_back(n);
  }
  return Status::Ok();
}

}  // namespace

void ResolveUpdateRequest::Serialize(BinaryWriter& w) const {
  w.PutU32(static_cast<uint32_t>(files.size()));
  for (FileId f : files) w.PutU64(f);
  w.PutDouble(arrival_s);
}
Status ResolveUpdateRequest::Deserialize(BinaryReader& r,
                                         ResolveUpdateRequest& out) {
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  out.files.clear();
  for (uint32_t i = 0; i < n; ++i) {
    FileId f = 0;
    PROPELLER_RETURN_IF_ERROR(r.GetU64(f));
    out.files.push_back(f);
  }
  return r.GetDouble(out.arrival_s);
}

void ResolveUpdateResponse::Serialize(BinaryWriter& w) const {
  w.PutU32(static_cast<uint32_t>(placements.size()));
  for (const Placement& p : placements) {
    w.PutU64(p.file);
    w.PutU64(p.group);
    w.PutU32(p.node);
  }
  PutRoutingTail(w, replicas, shard_epochs, lease_holders);
}
Status ResolveUpdateResponse::Deserialize(BinaryReader& r,
                                          ResolveUpdateResponse& out) {
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  out.placements.clear();
  for (uint32_t i = 0; i < n; ++i) {
    Placement p;
    PROPELLER_RETURN_IF_ERROR(r.GetU64(p.file));
    PROPELLER_RETURN_IF_ERROR(r.GetU64(p.group));
    PROPELLER_RETURN_IF_ERROR(r.GetU32(p.node));
    out.placements.push_back(p);
  }
  return GetRoutingTail(r, out.replicas, out.shard_epochs, out.lease_holders);
}

void ResolveSearchRequest::Serialize(BinaryWriter& w) const {
  w.PutString(index_name);
  w.PutDouble(arrival_s);
}
Status ResolveSearchRequest::Deserialize(BinaryReader& r,
                                         ResolveSearchRequest& out) {
  PROPELLER_RETURN_IF_ERROR(r.GetString(out.index_name));
  return r.GetDouble(out.arrival_s);
}

void ResolveSearchResponse::Serialize(BinaryWriter& w) const {
  w.PutU32(static_cast<uint32_t>(targets.size()));
  for (const NodeGroups& t : targets) {
    w.PutU32(t.node);
    w.PutU32(static_cast<uint32_t>(t.groups.size()));
    for (GroupId g : t.groups) w.PutU64(g);
  }
  PutRoutingTail(w, replicas, shard_epochs, lease_holders);
}
Status ResolveSearchResponse::Deserialize(BinaryReader& r,
                                          ResolveSearchResponse& out) {
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  out.targets.clear();
  for (uint32_t i = 0; i < n; ++i) {
    NodeGroups t;
    PROPELLER_RETURN_IF_ERROR(r.GetU32(t.node));
    uint32_t ng = 0;
    PROPELLER_RETURN_IF_ERROR(r.GetU32(ng));
    for (uint32_t j = 0; j < ng; ++j) {
      GroupId g = 0;
      PROPELLER_RETURN_IF_ERROR(r.GetU64(g));
      t.groups.push_back(g);
    }
    out.targets.push_back(std::move(t));
  }
  return GetRoutingTail(r, out.replicas, out.shard_epochs, out.lease_holders);
}

void CreateIndexRequest::Serialize(BinaryWriter& w) const { spec.Serialize(w); }
Status CreateIndexRequest::Deserialize(BinaryReader& r, CreateIndexRequest& out) {
  return IndexSpec::Deserialize(r, out.spec);
}

void FlushAcgRequest::Serialize(BinaryWriter& w) const { delta.Serialize(w); }
Status FlushAcgRequest::Deserialize(BinaryReader& r, FlushAcgRequest& out) {
  return acg::Acg::Deserialize(r, out.delta);
}

void HeartbeatRequest::Serialize(BinaryWriter& w) const {
  w.PutU32(node);
  w.PutDouble(now_s);
  w.PutU32(static_cast<uint32_t>(groups.size()));
  for (const GroupStat& g : groups) {
    w.PutU64(g.group);
    w.PutU64(g.files);
    w.PutU64(g.pages);
  }
}
Status HeartbeatRequest::Deserialize(BinaryReader& r, HeartbeatRequest& out) {
  PROPELLER_RETURN_IF_ERROR(r.GetU32(out.node));
  PROPELLER_RETURN_IF_ERROR(r.GetDouble(out.now_s));
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  out.groups.clear();
  for (uint32_t i = 0; i < n; ++i) {
    GroupStat g;
    PROPELLER_RETURN_IF_ERROR(r.GetU64(g.group));
    PROPELLER_RETURN_IF_ERROR(r.GetU64(g.files));
    PROPELLER_RETURN_IF_ERROR(r.GetU64(g.pages));
    out.groups.push_back(g);
  }
  return Status::Ok();
}

void HeartbeatResponse::Serialize(BinaryWriter& w) const {
  w.PutU32(num_shards);
  w.PutU32(static_cast<uint32_t>(index_names.size()));
  for (const std::string& name : index_names) w.PutString(name);
  w.PutU32(static_cast<uint32_t>(leases.size()));
  for (const ShardLeaseGrant& g : leases) {
    w.PutU32(g.shard);
    w.PutU64(g.epoch);
    w.PutDouble(g.expiry_s);
    w.PutU8(g.has_mirror ? 1 : 0);
    // The mirror follows only when the flag byte above says so.
    if (g.has_mirror) {
      w.PutU32(static_cast<uint32_t>(g.groups.size()));
      for (const ShardLeaseGrant::GroupPrimary& gp : g.groups) {
        w.PutU64(gp.group);
        w.PutU32(gp.node);
      }
      PutReplicaSets(w, g.replicas);
      w.PutU32(static_cast<uint32_t>(g.files.size()));
      for (const ShardLeaseGrant::FileGroup& fg : g.files) {
        w.PutU64(fg.file);
        w.PutU64(fg.group);
      }
    }
  }
}
Status HeartbeatResponse::Deserialize(BinaryReader& r, HeartbeatResponse& out) {
  PROPELLER_RETURN_IF_ERROR(r.GetU32(out.num_shards));
  out.index_names.clear();
  uint32_t nn = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(nn));
  for (uint32_t i = 0; i < nn; ++i) {
    std::string name;
    PROPELLER_RETURN_IF_ERROR(r.GetString(name));
    out.index_names.push_back(std::move(name));
  }
  out.leases.clear();
  uint32_t nl = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(nl));
  for (uint32_t i = 0; i < nl; ++i) {
    ShardLeaseGrant g;
    PROPELLER_RETURN_IF_ERROR(r.GetU32(g.shard));
    PROPELLER_RETURN_IF_ERROR(r.GetU64(g.epoch));
    PROPELLER_RETURN_IF_ERROR(r.GetDouble(g.expiry_s));
    uint8_t has_mirror = 0;
    PROPELLER_RETURN_IF_ERROR(r.GetU8(has_mirror));
    g.has_mirror = has_mirror != 0;
    if (g.has_mirror) {
      uint32_t ng = 0;
      PROPELLER_RETURN_IF_ERROR(r.GetU32(ng));
      for (uint32_t j = 0; j < ng; ++j) {
        ShardLeaseGrant::GroupPrimary gp;
        PROPELLER_RETURN_IF_ERROR(r.GetU64(gp.group));
        PROPELLER_RETURN_IF_ERROR(r.GetU32(gp.node));
        g.groups.push_back(gp);
      }
      PROPELLER_RETURN_IF_ERROR(GetReplicaSets(r, g.replicas));
      uint32_t nf = 0;
      PROPELLER_RETURN_IF_ERROR(r.GetU32(nf));
      for (uint32_t j = 0; j < nf; ++j) {
        ShardLeaseGrant::FileGroup fg;
        PROPELLER_RETURN_IF_ERROR(r.GetU64(fg.file));
        PROPELLER_RETURN_IF_ERROR(r.GetU64(fg.group));
        g.files.push_back(fg);
      }
    }
    out.leases.push_back(std::move(g));
  }
  return Status::Ok();
}

void CreateGroupRequest::Serialize(BinaryWriter& w) const {
  w.PutU64(group);
  w.PutU32(static_cast<uint32_t>(specs.size()));
  for (const IndexSpec& s : specs) s.Serialize(w);
}
Status CreateGroupRequest::Deserialize(BinaryReader& r, CreateGroupRequest& out) {
  PROPELLER_RETURN_IF_ERROR(r.GetU64(out.group));
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  out.specs.clear();
  for (uint32_t i = 0; i < n; ++i) {
    IndexSpec s;
    PROPELLER_RETURN_IF_ERROR(IndexSpec::Deserialize(r, s));
    out.specs.push_back(std::move(s));
  }
  return Status::Ok();
}

void StageUpdatesRequest::Serialize(BinaryWriter& w) const {
  // Hot path: one message per update batch.  Pre-size for the typical
  // serialized FileUpdate (~96 bytes of path + attributes) so the encode
  // does not reallocate repeatedly.
  w.Reserve(30 + updates.size() * 96);
  w.PutU64(group);
  w.PutDouble(now_s);
  w.PutU32(static_cast<uint32_t>(updates.size()));
  for (const FileUpdate& u : updates) u.Serialize(w);
  w.PutU64(epoch);
  w.PutU8(replica_role);
  w.PutU8(admission);
}
Status StageUpdatesRequest::Deserialize(BinaryReader& r, StageUpdatesRequest& out) {
  PROPELLER_RETURN_IF_ERROR(r.GetU64(out.group));
  PROPELLER_RETURN_IF_ERROR(r.GetDouble(out.now_s));
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  out.updates.clear();
  for (uint32_t i = 0; i < n; ++i) {
    FileUpdate u;
    PROPELLER_RETURN_IF_ERROR(FileUpdate::Deserialize(r, u));
    out.updates.push_back(std::move(u));
  }
  PROPELLER_RETURN_IF_ERROR(r.GetU64(out.epoch));
  PROPELLER_RETURN_IF_ERROR(r.GetU8(out.replica_role));
  return r.GetU8(out.admission);
}

void StageUpdatesResponse::Serialize(BinaryWriter& w) const { w.PutU64(seq); }
Status StageUpdatesResponse::Deserialize(BinaryReader& r,
                                         StageUpdatesResponse& out) {
  return r.GetU64(out.seq);
}

void SearchRequest::Serialize(BinaryWriter& w) const {
  // Hot path: one message per fan-out target; dominated by the group list.
  w.Reserve(24 + groups.size() * 8 + min_seqs.size() * 16 + 128);
  w.PutU32(static_cast<uint32_t>(groups.size()));
  for (GroupId g : groups) w.PutU64(g);
  predicate.Serialize(w);
  w.PutU64(epoch);
  w.PutU32(static_cast<uint32_t>(min_seqs.size()));
  for (const GroupSeqFloor& f : min_seqs) {
    w.PutU64(f.group);
    w.PutU64(f.seq);
  }
  w.PutDouble(arrival_s);
}
Status SearchRequest::Deserialize(BinaryReader& r, SearchRequest& out) {
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  out.groups.clear();
  for (uint32_t i = 0; i < n; ++i) {
    GroupId g = 0;
    PROPELLER_RETURN_IF_ERROR(r.GetU64(g));
    out.groups.push_back(g);
  }
  PROPELLER_RETURN_IF_ERROR(Predicate::Deserialize(r, out.predicate));
  PROPELLER_RETURN_IF_ERROR(r.GetU64(out.epoch));
  out.min_seqs.clear();
  uint32_t nf = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(nf));
  for (uint32_t i = 0; i < nf; ++i) {
    GroupSeqFloor f;
    PROPELLER_RETURN_IF_ERROR(r.GetU64(f.group));
    PROPELLER_RETURN_IF_ERROR(r.GetU64(f.seq));
    out.min_seqs.push_back(f);
  }
  return r.GetDouble(out.arrival_s);
}

void SearchResponse::Serialize(BinaryWriter& w) const {
  w.Reserve(4 + files.size() * 8);
  w.PutU32(static_cast<uint32_t>(files.size()));
  for (FileId f : files) w.PutU64(f);
}
Status SearchResponse::Deserialize(BinaryReader& r, SearchResponse& out) {
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  out.files.clear();
  for (uint32_t i = 0; i < n; ++i) {
    FileId f = 0;
    PROPELLER_RETURN_IF_ERROR(r.GetU64(f));
    out.files.push_back(f);
  }
  return Status::Ok();
}

void TickRequest::Serialize(BinaryWriter& w) const { w.PutDouble(now_s); }
Status TickRequest::Deserialize(BinaryReader& r, TickRequest& out) {
  return r.GetDouble(out.now_s);
}

void MigrateOutRequest::Serialize(BinaryWriter& w) const {
  w.PutU64(group);
  w.PutU8(drop_group ? 1 : 0);
  w.PutU32(static_cast<uint32_t>(files.size()));
  for (FileId f : files) w.PutU64(f);
}
Status MigrateOutRequest::Deserialize(BinaryReader& r, MigrateOutRequest& out) {
  PROPELLER_RETURN_IF_ERROR(r.GetU64(out.group));
  uint8_t drop = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU8(drop));
  out.drop_group = drop != 0;
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  out.files.clear();
  for (uint32_t i = 0; i < n; ++i) {
    FileId f = 0;
    PROPELLER_RETURN_IF_ERROR(r.GetU64(f));
    out.files.push_back(f);
  }
  return Status::Ok();
}

void MigrateOutResponse::Serialize(BinaryWriter& w) const {
  w.PutU32(static_cast<uint32_t>(records.size()));
  for (const FileUpdate& u : records) u.Serialize(w);
}
Status MigrateOutResponse::Deserialize(BinaryReader& r, MigrateOutResponse& out) {
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  out.records.clear();
  for (uint32_t i = 0; i < n; ++i) {
    FileUpdate u;
    PROPELLER_RETURN_IF_ERROR(FileUpdate::Deserialize(r, u));
    out.records.push_back(std::move(u));
  }
  return Status::Ok();
}

void InstallGroupRequest::Serialize(BinaryWriter& w) const {
  w.PutU64(group);
  w.PutU32(static_cast<uint32_t>(specs.size()));
  for (const IndexSpec& s : specs) s.Serialize(w);
  w.PutU32(static_cast<uint32_t>(records.size()));
  for (const FileUpdate& u : records) u.Serialize(w);
}
Status InstallGroupRequest::Deserialize(BinaryReader& r, InstallGroupRequest& out) {
  PROPELLER_RETURN_IF_ERROR(r.GetU64(out.group));
  uint32_t ns = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(ns));
  out.specs.clear();
  for (uint32_t i = 0; i < ns; ++i) {
    IndexSpec s;
    PROPELLER_RETURN_IF_ERROR(IndexSpec::Deserialize(r, s));
    out.specs.push_back(std::move(s));
  }
  uint32_t nr = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(nr));
  out.records.clear();
  for (uint32_t i = 0; i < nr; ++i) {
    FileUpdate u;
    PROPELLER_RETURN_IF_ERROR(FileUpdate::Deserialize(r, u));
    out.records.push_back(std::move(u));
  }
  return Status::Ok();
}

void RecoverGroupRequest::Serialize(BinaryWriter& w) const {
  w.PutU64(group);
  w.PutU32(static_cast<uint32_t>(specs.size()));
  for (const IndexSpec& s : specs) s.Serialize(w);
}
Status RecoverGroupRequest::Deserialize(BinaryReader& r,
                                        RecoverGroupRequest& out) {
  PROPELLER_RETURN_IF_ERROR(r.GetU64(out.group));
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  out.specs.clear();
  for (uint32_t i = 0; i < n; ++i) {
    IndexSpec s;
    PROPELLER_RETURN_IF_ERROR(IndexSpec::Deserialize(r, s));
    out.specs.push_back(std::move(s));
  }
  return Status::Ok();
}

void RecoverGroupResponse::Serialize(BinaryWriter& w) const {
  w.PutU64(records_replayed);
}
Status RecoverGroupResponse::Deserialize(BinaryReader& r,
                                         RecoverGroupResponse& out) {
  return r.GetU64(out.records_replayed);
}

void CatchUpRequest::Serialize(BinaryWriter& w) const {
  w.PutU64(group);
  w.PutU32(static_cast<uint32_t>(specs.size()));
  for (const IndexSpec& s : specs) s.Serialize(w);
}
Status CatchUpRequest::Deserialize(BinaryReader& r, CatchUpRequest& out) {
  PROPELLER_RETURN_IF_ERROR(r.GetU64(out.group));
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  out.specs.clear();
  for (uint32_t i = 0; i < n; ++i) {
    IndexSpec s;
    PROPELLER_RETURN_IF_ERROR(IndexSpec::Deserialize(r, s));
    out.specs.push_back(std::move(s));
  }
  return Status::Ok();
}

void CatchUpResponse::Serialize(BinaryWriter& w) const {
  w.PutU64(records_replayed);
  w.PutU64(seq);
}
Status CatchUpResponse::Deserialize(BinaryReader& r, CatchUpResponse& out) {
  PROPELLER_RETURN_IF_ERROR(r.GetU64(out.records_replayed));
  return r.GetU64(out.seq);
}

void DropGroupRequest::Serialize(BinaryWriter& w) const { w.PutU64(group); }
Status DropGroupRequest::Deserialize(BinaryReader& r, DropGroupRequest& out) {
  return r.GetU64(out.group);
}

void ResetNodeRequest::Serialize(BinaryWriter&) const {}
Status ResetNodeRequest::Deserialize(BinaryReader&, ResetNodeRequest&) {
  return Status::Ok();
}

}  // namespace propeller::core
