// The threaded backends' fault rule: slow windows compose by max and heal
// independently, fractional factors never round down to healthy, a clock
// stretch fires exactly once however often the poller runs, and the
// per-node clock transform stays continuous at the switch.
#include "core/node_faults.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

namespace ci::core {
namespace {

TEST(SlowFactorAt, OverlappingWindowsComposeByMax) {
  FaultPlan plan;
  plan.slow_node(0, 0, 100, 3).slow_node(0, 50, 150, 10);
  EXPECT_EQ(slow_factor_at(plan, 0, 25), 3u);
  EXPECT_EQ(slow_factor_at(plan, 0, 75), 10u);
  EXPECT_EQ(slow_factor_at(plan, 0, 125), 10u);
  EXPECT_EQ(slow_factor_at(plan, 0, 150), 1u);  // windows are half-open
}

TEST(SlowFactorAt, HealingOneWindowDoesNotEraseAnother) {
  FaultPlan plan;
  plan.slow_node(0, 0, 100, 5).slow_node(0, 0, 300, 3).slow_node(1, 0, 300, 7);
  EXPECT_EQ(slow_factor_at(plan, 0, 50), 5u);
  EXPECT_EQ(slow_factor_at(plan, 0, 150), 3u);  // the longer window still holds
  EXPECT_EQ(slow_factor_at(plan, 0, 300), 1u);
  EXPECT_EQ(slow_factor_at(plan, 1, 150), 7u);  // other nodes keep their own
  EXPECT_EQ(slow_factor_at(plan, 2, 150), 1u);
}

TEST(SlowFactorAt, FractionalFactorNeverRoundsDownToHealthy) {
  FaultPlan plan;
  plan.slow_node(0, 0, 100, 1.2).slow_node(1, 0, 100, 2.6).slow_node(2, 0, 100, 1.0);
  EXPECT_EQ(slow_factor_at(plan, 0, 10), 2u);
  EXPECT_EQ(slow_factor_at(plan, 1, 10), 3u);
  EXPECT_EQ(slow_factor_at(plan, 2, 10), 1u);
}

TEST(SlowFactorAt, IgnoresNonSlowEvents) {
  FaultPlan plan;
  plan.stretch_clock(0, 0, 4.0).reset_acceptor_at(0, 0);
  EXPECT_EQ(slow_factor_at(plan, 0, 10), 1u);
}

TEST(FaultPoller, StretchClockFiresOnce) {
  FaultPlan plan;
  plan.stretch_clock(1, 50, 4.0).slow_node(0, 0, 100, 3);
  FaultPoller poller(plan);
  std::vector<std::pair<consensus::NodeId, double>> stretches;
  std::vector<std::pair<consensus::NodeId, std::uint32_t>> slows;
  const auto slow = [&](consensus::NodeId n, std::uint32_t f) { slows.emplace_back(n, f); };
  const auto stretch = [&](consensus::NodeId n, double r) { stretches.emplace_back(n, r); };

  poller.poll(10, slow, stretch);
  EXPECT_TRUE(stretches.empty());
  for (const Nanos t : {60, 70, 1000}) poller.poll(t, slow, stretch);
  ASSERT_EQ(stretches.size(), 1u);
  EXPECT_EQ(stretches[0].first, 1);
  EXPECT_EQ(stretches[0].second, 4.0);

  // Slow windows are recomputed on every poll, healing on the first poll
  // past the window.
  ASSERT_EQ(slows.size(), 4u);
  EXPECT_EQ(slows[0], std::make_pair(consensus::NodeId{0}, 3u));
  EXPECT_EQ(slows[2], std::make_pair(consensus::NodeId{0}, 3u));
  EXPECT_EQ(slows[3], std::make_pair(consensus::NodeId{0}, 1u));
}

TEST(NodeFaults, StretchedClockIsContinuousAndFast) {
  NodeFaults f;
  const Nanos before = f.now();
  EXPECT_LE(before, now_nanos());
  f.stretch_clock(1000.0);
  EXPECT_GE(f.now(), before);  // no jump back at the switch
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // >= 1 ms of wall time at 1000x is >= 1 s of perceived time.
  EXPECT_GT(f.now() - now_nanos(), 500 * kMillisecond);
}

}  // namespace
}  // namespace ci::core
