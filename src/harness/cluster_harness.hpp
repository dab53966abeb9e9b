// Backend-agnostic cluster harness: run one ClusterSpec (or a sharded
// ShardSpec) on any backend and get one RunResult back. This is the
// layer benches, examples, and the parity tests program against; the
// command line that picks the backend and layout is harness/flags.hpp.
#pragma once

#include <string>
#include <vector>

#include "core/cluster_spec.hpp"
#include "core/run_result.hpp"

namespace ci::harness {

using core::Backend;
using core::ClusterSpec;
using core::Placement;
using core::RunResult;
using core::ShardSpec;

// How to drive the run. Virtual time under sim, wall time under rt.
struct RunPlan {
  // Excluded from committed/issued/message counts (latency histograms span
  // the whole run on both backends).
  Nanos warmup = 0;
  // Measurement window. A request quota (workload.requests_per_client > 0)
  // may end the run earlier; the result's `duration` reports the window
  // actually measured.
  Nanos duration = 1 * kSecond;
  // Safety net for the rt backend (threads can't outrun a hung protocol the
  // way virtual time can).
  Nanos max_wall = 30 * kSecond;
};

// Builds the cluster on the chosen backend, runs the plan, tears it down.
// The sharded overload merges per-group results; the ClusterSpec one is
// the single-group special case.
RunResult run(Backend b, const ShardSpec& shard, const RunPlan& plan);
RunResult run(Backend b, const ClusterSpec& spec, const RunPlan& plan);

// ---- Backend sweep diffing (--sweep-diff) ----
//
// Runs the SAME spec on a list of backends and diffs the RunResults by
// SHAPE, not absolute numbers: virtual-time throughput, oversubscribed
// wall clocks, and socket round trips are incomparable, but consistency,
// liveness, quota completion, and order-of-magnitude message amortization
// must agree. `mismatches` is empty when the shapes line up; each entry is
// a human-readable complaint naming the offending backend.
struct BackendRun {
  Backend backend = Backend::kSim;
  RunResult result;
};

struct SweepDiffN {
  std::vector<BackendRun> runs;  // same order as the requested backends
  std::vector<std::string> mismatches;

  bool ok() const { return mismatches.empty(); }
};

// Each backend gets its canonical timeout profile applied before running;
// msgs/op is compared pairwise against the FIRST backend in the list (by
// convention sim, the deterministic reference). `backends` must be
// non-empty and duplicate-free.
SweepDiffN sweep_diff(const std::vector<Backend>& backends, const ShardSpec& shard,
                      const RunPlan& plan);

}  // namespace ci::harness
