// Leader kill over real sockets: mid-run, the leader's NetNode drops every
// connection and stops — from its peers' point of view the process died
// (EOF, not an error code). The mesh must take over and finish the full
// client quota, and no command acked before OR after the kill may be lost:
// an ack means the command was replicated, so it must survive into the
// decided log the remaining replicas agree on. This is the socket-level
// twin of the simulator's slow-leader FaultPlan sweeps — fail-stop instead
// of fail-slow, which only a real transport can express.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/timeseries.hpp"
#include "core/cluster_spec.hpp"
#include "net/net_cluster.hpp"

namespace ci::net {
namespace {

using consensus::Command;
using core::Backend;
using core::ClusterSpec;
using core::Protocol;
using core::RunResult;

constexpr std::uint64_t kQuota = 40;
constexpr std::int32_t kClients = 2;
constexpr std::uint64_t kKillAfter = 20;  // commits before the leader dies

class LeaderKill : public ::testing::TestWithParam<Protocol> {};

TEST_P(LeaderKill, NoAckedCommandLostAcrossAFailStopLeader) {
  ClusterSpec o;
  o.apply_backend_profile(Backend::kNet);
  o.protocol = GetParam();
  o.num_replicas = 3;
  o.num_clients = kClients;
  o.workload.requests_per_client = kQuota;
  o.seed = 37;
  o.engine.batch.max_commands = 8;

  NetCluster c(o);
  c.start();

  // Let the mesh commit a batch's worth of real traffic, then fail-stop
  // the initial leader (replica 0 is transport node 0 under group-major
  // placement) while requests are in flight.
  const Nanos kill_deadline = now_nanos() + 30 * kSecond;
  while (c.live_committed() < kKillAfter && now_nanos() < kill_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(c.live_committed(), kKillAfter) << "mesh never got off the ground";
  c.kill_node(0);

  // The survivors must detect the silence, take over, and finish the
  // remaining quota without the dead node.
  c.drive_until(now_nanos() + 60 * kSecond);
  c.stop();
  const RunResult r = c.collect();
  ASSERT_TRUE(c.clients_done()) << "quota stalled after the leader kill";
  EXPECT_TRUE(r.consistent);
  EXPECT_NE(c.deployment().replica_engine(1)->believed_leader(), 0)
      << "nobody took over from the killed leader";

  // Every acked command survived: client i was acked for seqs
  // 1..committed(), and each of those (client, seq) pairs must appear in
  // the decided log (duplicates are legal — a retry can straddle the kill
  // — the executor's dedup applies them once).
  std::set<std::pair<consensus::NodeId, std::uint32_t>> decided;
  for (const Command& cmd : c.deployment().recorder().decided_sequence()) {
    if (cmd.client != consensus::kNoNode) decided.emplace(cmd.client, cmd.seq);
  }
  for (std::int32_t i = 0; i < c.client_count(); ++i) {
    const consensus::NodeId client_node = o.num_replicas + i;
    const std::uint64_t committed = c.client(i)->committed();
    EXPECT_EQ(committed, kQuota);
    for (std::uint32_t s = 1; s <= committed; ++s) {
      EXPECT_TRUE(decided.count({client_node, s}))
          << "client " << client_node << " was acked for seq " << s
          << " but the command is not in the decided log";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, LeaderKill,
                         ::testing::Values(Protocol::kMultiPaxos, Protocol::kOnePaxos),
                         [](const ::testing::TestParamInfo<Protocol>& info) {
                           return std::string(info.param == Protocol::kMultiPaxos
                                                  ? "MultiPaxos"
                                                  : "OnePaxos");
                         });

// Killing a FOLLOWER must barely register: the leader keeps committing
// through the remaining majority and the quota completes.
TEST(FollowerKill, MajorityKeepsCommitting) {
  ClusterSpec o;
  o.apply_backend_profile(Backend::kNet);
  o.protocol = Protocol::kMultiPaxos;
  o.num_replicas = 3;
  o.num_clients = kClients;
  o.workload.requests_per_client = kQuota;
  o.seed = 41;

  NetCluster c(o);
  c.start();
  const Nanos kill_deadline = now_nanos() + 30 * kSecond;
  while (c.live_committed() < kKillAfter && now_nanos() < kill_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(c.live_committed(), kKillAfter);
  c.kill_node(2);  // a follower

  c.drive_until(now_nanos() + 60 * kSecond);
  c.stop();
  const RunResult r = c.collect();
  ASSERT_TRUE(c.clients_done()) << "quota stalled after a follower kill";
  EXPECT_TRUE(r.consistent);
  for (std::int32_t i = 0; i < c.client_count(); ++i) {
    EXPECT_EQ(c.client(i)->committed(), kQuota);
  }
}

// wallbench's failover probe, in its shape (wallbench/src/leader_kill.cpp):
// net 1Paxos, 3 replicas, one closed-loop client under the benchmark's
// batch policy (64 commands, adaptive 200 us hold); replica 0 is killed
// 100 ms after the first commit and the client is watched for 150 ms more.
// With one request in flight every instance decides one command. After the
// kill the client waits out one failover gap (failure detection plus
// takeover, about fd_timeout; a request the old leader answered just
// before dying may land first). Commits resume with the first commit after
// a gap longer than fd_timeout / 2, far above any commit latency here; from
// then on they must keep landing: no gap between consecutive commits, nor
// from the last one to the end of the window, may exceed fd_timeout.
// 20 trials, one seed each.
TEST(FailoverProbe, CommitsKeepLandingOnceTheyResumeAfterAKill) {
  constexpr int kTrials = 20;
  constexpr Nanos kWarm = 100 * kMillisecond;
  constexpr Nanos kAfter = 150 * kMillisecond;
  constexpr Nanos kFirstCommitCap = 500 * kMillisecond;
  constexpr Nanos kBucket = 1 * kMicrosecond;  // commit-instant resolution
  constexpr Nanos kSpan = kFirstCommitCap + kWarm + kAfter + 200 * kMillisecond;
  const auto sleep_until = [](Nanos t) {
    while (now_nanos() < t) std::this_thread::sleep_for(std::chrono::microseconds(50));
  };
  for (int trial = 0; trial < kTrials; ++trial) {
    ClusterSpec o;
    o.apply_backend_profile(Backend::kNet);
    o.protocol = Protocol::kOnePaxos;
    o.num_replicas = 3;
    o.num_clients = 1;
    o.workload.requests_per_client = 0;  // run until stopped
    o.seed = 6000 + static_cast<std::uint64_t>(trial);
    o.engine.batch.max_commands = 64;
    o.engine.batch.flush_after = 200 * kMicrosecond;
    o.engine.batch.flush_mode = consensus::BatchPolicy::FlushMode::kAdaptive;
    SCOPED_TRACE("seed " + std::to_string(o.seed));

    TimeSeries series(now_nanos(), kBucket, static_cast<std::size_t>(kSpan / kBucket));
    NetCluster c(o);
    c.client(0)->set_commit_series(&series);
    c.start();
    const Nanos first_cap = now_nanos() + kFirstCommitCap;
    while (c.live_committed() < 1 && now_nanos() < first_cap) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    if (c.live_committed() < 1) {
      c.stop();
      FAIL() << "mesh never got off the ground";
    }
    sleep_until(now_nanos() + kWarm);
    const Nanos t_kill = now_nanos();
    c.kill_node(0);
    const Nanos t_end = t_kill + kAfter;
    sleep_until(t_end);
    c.stop();
    EXPECT_TRUE(c.collect().consistent);

    // Commit instants after the kill, inside the window.
    std::vector<Nanos> after;
    for (std::size_t i = 0; i < series.size(); ++i) {
      const Nanos t = series.origin() + static_cast<Nanos>(i) * kBucket;
      if (t < t_kill || t > t_end) continue;
      for (std::uint64_t n = 0; n < series.bucket(i); ++n) after.push_back(t);
    }
    std::size_t resumed = 0;  // index of the first commit after the failover gap
    for (Nanos prev = t_kill; resumed < after.size(); prev = after[resumed++]) {
      if (after[resumed] - prev > o.engine.fd_timeout / 2) break;
    }
    ASSERT_LT(resumed, after.size()) << "commits never resumed in the " << kAfter / kMillisecond
                                     << " ms after the kill";
    Nanos worst = t_end - after.back();
    for (std::size_t i = resumed + 1; i < after.size(); ++i) {
      worst = std::max(worst, after[i] - after[i - 1]);
    }
    EXPECT_LE(worst, o.engine.fd_timeout)
        << "commits resumed " << (after[resumed] - t_kill) / kMicrosecond
        << " us after the kill, then stalled for " << worst / kMicrosecond << " us ("
        << after.size() - resumed << " commits after resuming, the last one "
        << (t_end - after.back()) / kMicrosecond << " us before the window closed)";
  }
}

}  // namespace
}  // namespace ci::net
