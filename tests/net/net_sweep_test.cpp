// The three-way shape check: one spec through harness::sweep_diff on
// {sim, rt, net} at once — consistency, liveness, exact quota completion,
// and order-of-magnitude message amortization must agree across all three
// runtimes, and the net run must report honest socket traffic (bytes
// including the length prefix). This is the check `--sweep-diff` and
// bench/sweep_diff gate CI on, pinned here as a unit test.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/cluster_harness.hpp"

namespace ci::harness {
namespace {

using core::Protocol;

TEST(ThreeWaySweep, SimRtAndNetAgreeOnShape) {
  ClusterSpec o;
  o.protocol = Protocol::kMultiPaxos;
  o.num_replicas = 3;
  o.num_clients = 2;
  o.workload.requests_per_client = 25;
  o.seed = 43;
  o.engine.batch.max_commands = 8;

  RunPlan plan;
  plan.duration = 20 * kSecond;  // the quota ends each run long before this
  plan.max_wall = 60 * kSecond;

  const std::vector<Backend> backends = {Backend::kSim, Backend::kRt, Backend::kNet};
  const SweepDiffN d = sweep_diff(backends, ShardSpec(o), plan);

  for (const std::string& m : d.mismatches) ADD_FAILURE() << m;
  EXPECT_TRUE(d.ok());
  ASSERT_EQ(d.runs.size(), backends.size());
  for (std::size_t i = 0; i < backends.size(); ++i) {
    SCOPED_TRACE(core::backend_name(backends[i]));
    EXPECT_EQ(d.runs[i].backend, backends[i]);  // order preserved
    const RunResult& r = d.runs[i].result;
    EXPECT_TRUE(r.consistent);
    EXPECT_EQ(r.committed, 50u);
    EXPECT_GT(r.total_messages, 0u);
    EXPECT_GT(r.total_bytes, 0u);
  }

  // The net row's bytes are socket bytes: every frame ships a 4-byte
  // length prefix on top of the codec bytes sim counts, so the per-message
  // average must clear that floor.
  const RunResult& net = d.runs[2].result;
  EXPECT_GT(net.total_bytes, 4 * net.total_messages);
}

TEST(ThreeWaySweep, TwoWaySimAndRt) {
  ClusterSpec o;
  o.protocol = Protocol::kOnePaxos;
  o.num_replicas = 3;
  o.num_clients = 2;
  o.workload.requests_per_client = 15;
  o.seed = 47;

  RunPlan plan;
  plan.duration = 20 * kSecond;
  plan.max_wall = 60 * kSecond;

  const SweepDiffN d = sweep_diff({Backend::kSim, Backend::kRt}, ShardSpec(o), plan);
  EXPECT_TRUE(d.ok());
  ASSERT_EQ(d.runs.size(), 2u);
  EXPECT_EQ(d.runs[0].result.committed, 30u);
  EXPECT_EQ(d.runs[1].result.committed, 30u);
}

}  // namespace
}  // namespace ci::harness
