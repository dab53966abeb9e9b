// harness::sweep_diff — the --sweep-diff machinery: one spec, both
// backends, automatic shape diffing. Registered as a ctest case so CI runs
// a real sim-vs-rt sweep every build (shapes only: quota completion,
// consistency, msgs/op within an order of magnitude — never wall-clock
// numbers; rt here is oversubscribed).
#include <gtest/gtest.h>

#include "harness/cluster_harness.hpp"

namespace ci::harness {
namespace {

using core::Protocol;

ClusterSpec sweep_spec(Protocol p, std::int32_t batch) {
  ClusterSpec o;
  o.protocol = p;
  o.num_replicas = 3;
  o.num_clients = 2;
  o.workload.requests_per_client = 25;
  o.engine.batch.max_commands = batch;
  o.seed = 33;
  return o;
}

RunPlan quota_plan() {
  RunPlan plan;
  plan.duration = 10 * kSecond;  // the quota ends the run long before this
  plan.max_wall = 20 * kSecond;
  return plan;
}

TEST(SweepDiff, MultiPaxosShapesAgreeAcrossBackends) {
  const SweepDiffN d = sweep_diff({Backend::kSim, Backend::kRt},
                                  ShardSpec(sweep_spec(Protocol::kMultiPaxos, 1)), quota_plan());
  for (const std::string& m : d.mismatches) ADD_FAILURE() << m;
  EXPECT_TRUE(d.ok());
  ASSERT_EQ(d.runs.size(), 2u);
  EXPECT_EQ(d.runs[0].result.committed, d.runs[1].result.committed);  // quota: exact agreement
}

TEST(SweepDiff, BatchedOnePaxosShapesAgreeAcrossBackends) {
  // Batched 1Paxos crosses the codec's pooled-body path on both backends.
  const SweepDiffN d = sweep_diff({Backend::kSim, Backend::kRt},
                                  ShardSpec(sweep_spec(Protocol::kOnePaxos, 16)), quota_plan());
  for (const std::string& m : d.mismatches) ADD_FAILURE() << m;
  EXPECT_TRUE(d.ok());
  ASSERT_EQ(d.runs.size(), 2u);
  EXPECT_EQ(d.runs[0].result.committed, d.runs[1].result.committed);
}

}  // namespace
}  // namespace ci::harness
