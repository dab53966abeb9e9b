// Backend parity: the same ClusterSpec — each of the four protocols, plain
// and joint — runs through the unified harness on BOTH backends and must
// commit its full quota, keep cross-replica agreement, and report a
// non-empty latency histogram. This is the contract the paper's
// sim-vs-hardware comparisons (Fig. 2, 8, 11) rest on: one spec, two
// runtimes, same protocol behavior.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "harness/cluster_harness.hpp"

namespace ci::harness {
namespace {

using core::Protocol;

constexpr std::uint64_t kRequestsPerClient = 25;

ClusterSpec parity_spec(Protocol p, bool joint, Backend backend) {
  ClusterSpec o;
  o.apply_backend_profile(backend);
  o.protocol = p;
  o.num_replicas = 3;
  o.num_clients = 2;
  o.joint = joint;
  o.workload.requests_per_client = kRequestsPerClient;
  o.seed = 21;
  return o;
}

class BackendParity
    : public ::testing::TestWithParam<std::tuple<Protocol, bool, Backend>> {};

TEST_P(BackendParity, CommitsConsistentlyWithLatencies) {
  const auto [protocol, joint, backend] = GetParam();
  const ClusterSpec spec = parity_spec(protocol, joint, backend);

  RunPlan plan;
  plan.duration = 10 * kSecond;  // the quota ends the run long before this
  plan.max_wall = 20 * kSecond;
  const RunResult r = run(backend, spec, plan);

  const std::uint64_t expected =
      kRequestsPerClient * static_cast<std::uint64_t>(spec.client_count());
  EXPECT_EQ(r.committed, expected);
  EXPECT_GE(r.issued, r.committed);
  EXPECT_TRUE(r.consistent);
  EXPECT_GT(r.deliveries, 0u);
  EXPECT_GT(r.latency.count(), 0u);
  EXPECT_GT(r.latency.mean(), 0.0);
  EXPECT_GT(r.total_messages, 0u);
  EXPECT_GT(r.duration, 0);
}

std::string param_name(
    const ::testing::TestParamInfo<std::tuple<Protocol, bool, Backend>>& info) {
  std::string name;
  switch (std::get<0>(info.param)) {
    case Protocol::kTwoPc:
      name = "TwoPc";
      break;
    case Protocol::kBasicPaxos:
      name = "BasicPaxos";
      break;
    case Protocol::kMultiPaxos:
      name = "MultiPaxos";
      break;
    case Protocol::kOnePaxos:
      name = "OnePaxos";
      break;
  }
  name += std::get<1>(info.param) ? "Joint" : "Separate";
  name += std::get<2>(info.param) == Backend::kSim ? "_sim" : "_rt";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, BackendParity,
    ::testing::Combine(::testing::Values(Protocol::kTwoPc, Protocol::kBasicPaxos,
                                         Protocol::kMultiPaxos, Protocol::kOnePaxos),
                       ::testing::Bool(),
                       ::testing::Values(Backend::kSim, Backend::kRt)),
    param_name);

// The FaultPlan travels with the spec: a mid-run slow leader lets 1Paxos
// keep committing on either backend (the paper's headline claim).
class FaultPlanParity : public ::testing::TestWithParam<Backend> {};

TEST_P(FaultPlanParity, OnePaxosCommitsThroughSlowLeader) {
  const Backend backend = GetParam();
  ClusterSpec o = parity_spec(Protocol::kOnePaxos, /*joint=*/false, backend);
  o.workload.requests_per_client = 0;  // run for the window
  // Leader slow from early in the run until past the window's end.
  o.faults.slow_node(0, 100 * kMillisecond, 10 * kSecond, 1000);

  RunPlan plan;
  plan.duration = backend == Backend::kSim ? 800 * kMillisecond : 1500 * kMillisecond;
  const RunResult r = run(backend, o, plan);

  EXPECT_TRUE(r.consistent);
  // Commits continued despite the leader staying slow: takeover happened.
  EXPECT_GT(r.committed, 100u);
}

INSTANTIATE_TEST_SUITE_P(BothBackends, FaultPlanParity,
                         ::testing::Values(Backend::kSim, Backend::kRt, Backend::kNet),
                         [](const auto& info) {
                           return std::string(core::backend_name(info.param));
                         });

}  // namespace
}  // namespace ci::harness
