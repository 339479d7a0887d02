// AcgManager: partition bookkeeping and policy.
//
// Owns the file -> group (ACG partition) mapping and the per-group causal
// subgraphs.  Implements the paper's partitioning policy (Section III):
//   * files join the group of the files they are causally connected to
//     (connected components are the natural partitions);
//   * small components from the same workload are clustered into one
//     group to prevent index fragmentation;
//   * a group whose scale exceeds a threshold is split in two by a
//     balanced min-cut bisection (METIS-style), run in the background.
//
// The manager is pure bookkeeping — placement of groups onto Index Nodes
// and data migration live in core::MasterNode, which consumes the
// placement/merge/split decisions this class emits.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "acg/acg.h"
#include "graph/partitioner.h"

namespace propeller::acg {

using GroupId = uint64_t;

struct AcgPolicy {
  // Split a group once it holds more files than this (paper: 50,000).
  uint64_t split_threshold = 50'000;
  // Singleton/small-component files fill a shared group up to this size
  // before a new fill group is opened.
  uint64_t cluster_target = 1'000;
  // Never merge two groups if the result would exceed this.
  uint64_t merge_limit = 50'000;
  graph::PartitionOptions partition;
};

class AcgManager {
 public:
  explicit AcgManager(AcgPolicy policy = {}) : policy_(policy) {}

  const AcgPolicy& policy() const { return policy_; }

  // --- Delta ingestion ---
  struct ApplyResult {
    // Files newly placed into a group (file, group).
    std::vector<std::pair<FileId, GroupId>> placements;
    // Group merges performed: every file of `from` moved into `into`.
    struct Merge {
      GroupId from;
      GroupId into;
      std::vector<FileId> moved;
    };
    std::vector<Merge> merges;
  };
  ApplyResult ApplyDelta(const Acg& delta);

  // --- Queries ---
  std::optional<GroupId> GroupOf(FileId file) const;
  uint64_t GroupSize(GroupId group) const;
  std::vector<GroupId> Groups() const;
  uint64_t NumFiles() const { return file_group_.size(); }
  // Sum of weights of causal edges that cross group boundaries (the
  // "weight of cut" the partitioning minimizes).
  uint64_t CrossGroupWeight() const { return cross_weight_; }
  uint64_t IntraGroupWeight() const { return intra_weight_; }
  const Acg* GroupAcg(GroupId group) const;

  // --- Splits (background maintenance) ---
  struct SplitPlan {
    GroupId group = 0;
    GroupId new_group = 0;
    std::vector<FileId> move_out;  // files leaving `group` for `new_group`
    uint64_t cut_weight = 0;
  };
  // Plans (and immediately applies to the mapping) a 2-way split for every
  // group over the threshold.  Returns the executed plans so the caller
  // can migrate index data accordingly.
  std::vector<SplitPlan> SplitOversizedGroups();

  // Explicit removal (file deleted from the namespace).
  void ForgetFile(FileId file);

  // --- Recovery ---
  // Re-creates a group with a known id and its causal subgraph (used when
  // the master restores its metadata image).  Files already mapped keep
  // their existing assignment.
  void RestoreGroup(GroupId id, const Acg& acg);

 private:
  struct GroupInfo {
    std::unordered_set<FileId> files;
    Acg acg;  // intra-group causal subgraph
  };

  GroupId NewGroup();
  // Group used for not-yet-connected files; rotates at cluster_target.
  GroupId FillGroup();
  void PlaceFile(FileId file, GroupId group, ApplyResult& result);
  // Merges the smaller group into the larger; returns the surviving id.
  GroupId MergeGroups(GroupId a, GroupId b, ApplyResult& result);

  AcgPolicy policy_;
  std::unordered_map<FileId, GroupId> file_group_;
  std::unordered_map<GroupId, GroupInfo> groups_;
  // Causal edges whose endpoints live in different groups, kept so splits
  // that reunite files do not lose history.  (weight bookkeeping only)
  uint64_t cross_weight_ = 0;
  uint64_t intra_weight_ = 0;
  GroupId next_group_ = 1;
  GroupId fill_group_ = 0;
};

}  // namespace propeller::acg
