// The four benchmark workloads (see README.md for why each exists).
//
// A workload generates all of its inputs from the seed when it is
// constructed; Setup() is what setup_s times; Run() is the measured phase
// and only calls the cluster (plus, for `ingest`, the application replay
// that produces the file writes); Audit() checks answers against a
// brute-force reference after the run.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "session.h"

namespace pbench {

class Workload {
 public:
  virtual ~Workload() = default;

  // Untimed: materializes the inputs one Setup() consumes.
  virtual void PrepareSetup() = 0;
  // Timed as set-up: builds the cluster, creates the indices, bulk-loads
  // and warms up.  Deterministic: every call yields the same state.
  virtual std::unique_ptr<core::PropellerCluster> Setup() = 0;
  // Untimed: fresh per-run state (the reference model, the namespace).
  virtual void PrepareRun() = 0;
  virtual void Run(Session& s) = 0;
  // Post-run audit (untimed): 64 predicates checked against the truth.
  virtual void Audit(Session& s) = 0;

  // The reference the session updates and audits in-run searches against.
  virtual Reference* reference() = 0;
  virtual uint64_t audit_every() const = 0;
  // Phases whose searches / updates feed the latency metrics.
  virtual int search_phase() const { return kCorePhase; }
  virtual int update_phase() const { return kProbePhase; }
};

// The open-loop staircase metrics (load.*) of a session's records; closed
// loops report zeros, so every workload emits the same names.
void LoadMetrics(const Session& s, std::vector<Metric>* out);

// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Options& options);

}  // namespace pbench
