#include "acg/acg_manager.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"

namespace propeller::acg {

GroupId AcgManager::NewGroup() {
  GroupId id = next_group_++;
  groups_.emplace(id, GroupInfo{});
  return id;
}

GroupId AcgManager::FillGroup() {
  if (fill_group_ != 0) {
    auto it = groups_.find(fill_group_);
    if (it != groups_.end() && it->second.files.size() < policy_.cluster_target) {
      return fill_group_;
    }
  }
  fill_group_ = NewGroup();
  return fill_group_;
}

void AcgManager::PlaceFile(FileId file, GroupId group, ApplyResult& result) {
  assert(file_group_.count(file) == 0);
  file_group_[file] = group;
  groups_[group].files.insert(file);
  groups_[group].acg.AddVertex(file);
  result.placements.emplace_back(file, group);
}

GroupId AcgManager::MergeGroups(GroupId a, GroupId b, ApplyResult& result) {
  if (groups_[a].files.size() < groups_[b].files.size()) std::swap(a, b);
  // b (smaller) merges into a.
  GroupInfo& into = groups_[a];
  GroupInfo& from = groups_[b];
  ApplyResult::Merge merge;
  merge.from = b;
  merge.into = a;
  for (FileId f : from.files) {
    file_group_[f] = a;
    into.files.insert(f);
    merge.moved.push_back(f);
  }
  // `from`'s edge weights were counted as intra-group when first ingested;
  // merging moves them between groups without changing the totals.
  into.acg.Merge(from.acg);
  if (fill_group_ == b) fill_group_ = 0;
  groups_.erase(b);
  result.merges.push_back(std::move(merge));
  return a;
}

AcgManager::ApplyResult AcgManager::ApplyDelta(const Acg& delta) {
  ApplyResult result;

  // Edges first: they determine connectivity-driven placement.
  delta.ForEachEdge([&](FileId from, FileId to, uint64_t w) {
    auto fi = file_group_.find(from);
    auto ti = file_group_.find(to);
    GroupId fg = fi == file_group_.end() ? 0 : fi->second;
    GroupId tg = ti == file_group_.end() ? 0 : ti->second;

    if (fg == 0 && tg == 0) {
      // Fresh causal pair: open (or reuse) a fill group for the component.
      GroupId g = FillGroup();
      PlaceFile(from, g, result);
      PlaceFile(to, g, result);
      fg = tg = g;
    } else if (fg == 0) {
      PlaceFile(from, tg, result);
      fg = tg;
    } else if (tg == 0) {
      PlaceFile(to, fg, result);
      tg = fg;
    } else if (fg != tg) {
      // Causally connected files in different groups: merge when the
      // result stays manageable; otherwise accept a cut edge.
      uint64_t combined = groups_[fg].files.size() + groups_[tg].files.size();
      if (combined <= policy_.merge_limit) {
        GroupId survivor = MergeGroups(fg, tg, result);
        fg = tg = survivor;
      } else {
        cross_weight_ += w;
        return;  // edge remains a (counted) cut edge
      }
    }
    groups_[fg].acg.AddEdge(from, to, w);
    intra_weight_ += w;
  });

  // Vertex-only entries (created files with no causality yet).  Sorted:
  // fill-group assignment depends on arrival order, which must not depend
  // on hash-set iteration.
  for (FileId f : delta.SortedVertices()) {
    if (file_group_.count(f) != 0u) continue;
    PlaceFile(f, FillGroup(), result);
  }
  return result;
}

std::optional<GroupId> AcgManager::GroupOf(FileId file) const {
  auto it = file_group_.find(file);
  if (it == file_group_.end()) return std::nullopt;
  return it->second;
}

uint64_t AcgManager::GroupSize(GroupId group) const {
  auto it = groups_.find(group);
  return it == groups_.end() ? 0 : it->second.files.size();
}

std::vector<GroupId> AcgManager::Groups() const {
  std::vector<GroupId> out;
  out.reserve(groups_.size());
  for (const auto& [id, info] : groups_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

const Acg* AcgManager::GroupAcg(GroupId group) const {
  auto it = groups_.find(group);
  return it == groups_.end() ? nullptr : &it->second.acg;
}

std::vector<AcgManager::SplitPlan> AcgManager::SplitOversizedGroups() {
  std::vector<SplitPlan> plans;
  // Collect ids first: splitting mutates groups_.
  std::vector<GroupId> oversized;
  for (const auto& [id, info] : groups_) {
    if (info.files.size() > policy_.split_threshold) oversized.push_back(id);
  }
  // Split order assigns the new group ids; sort so they never depend on
  // groups_ hash iteration.
  std::sort(oversized.begin(), oversized.end());

  for (GroupId gid : oversized) {
    GroupInfo& info = groups_[gid];
    Acg::Projection proj = info.acg.Project();
    graph::Bisection cut = graph::MultilevelBisect(proj.graph, policy_.partition);

    SplitPlan plan;
    plan.group = gid;
    plan.new_group = NewGroup();
    plan.cut_weight = cut.cut_weight;
    for (graph::VertexId v = 0; v < proj.graph.NumVertices(); ++v) {
      if (cut.side[v] == 1) plan.move_out.push_back(proj.vertex_to_file[v]);
    }
    // Files in the group that never appeared in the ACG (possible if they
    // were force-placed) stay behind.

    // Apply to mapping: rebuild the two subgraphs.
    GroupInfo& fresh = groups_[plan.new_group];
    std::unordered_set<FileId> moving(plan.move_out.begin(), plan.move_out.end());
    for (FileId f : plan.move_out) {
      file_group_[f] = plan.new_group;
      info.files.erase(f);
      fresh.files.insert(f);
      fresh.acg.AddVertex(f);
    }
    Acg retained;
    for (FileId f : info.files) retained.AddVertex(f);
    info.acg.ForEachEdge([&](FileId from, FileId to, uint64_t w) {
      bool fm = moving.count(from) != 0u;
      bool tm = moving.count(to) != 0u;
      if (fm && tm) {
        fresh.acg.AddEdge(from, to, w);
      } else if (!fm && !tm) {
        retained.AddEdge(from, to, w);
      } else {
        // Edge crosses the new cut.
        cross_weight_ += w;
        intra_weight_ -= w;
      }
    });
    info.acg = std::move(retained);
    if (fill_group_ == gid) fill_group_ = 0;

    PLOG(INFO) << "split group " << gid << " -> " << plan.new_group << " ("
               << plan.move_out.size() << " files move, cut=" << plan.cut_weight
               << ")";
    plans.push_back(std::move(plan));
  }
  return plans;
}

void AcgManager::RestoreGroup(GroupId id, const Acg& acg) {
  GroupInfo& info = groups_[id];
  for (FileId f : acg.vertices()) {
    if (file_group_.count(f) != 0u) continue;
    file_group_[f] = id;
    info.files.insert(f);
  }
  intra_weight_ += acg.TotalWeight();
  info.acg.Merge(acg);
  // New groups allocate past every restored id.
  next_group_ = std::max(next_group_, id + 1);
}

void AcgManager::ForgetFile(FileId file) {
  auto it = file_group_.find(file);
  if (it == file_group_.end()) return;
  auto git = groups_.find(it->second);
  if (git != groups_.end()) {
    git->second.files.erase(file);
    // The vertex may linger in the group ACG; edge weights it contributed
    // stay as (harmless) history until the next split rebuilds the graph.
  }
  file_group_.erase(it);
}

}  // namespace propeller::acg
