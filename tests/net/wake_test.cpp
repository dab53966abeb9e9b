// Wake on work on the net backend: a net node sleeps in ppoll until its
// engine's next deadline (at most 1 ms), and a submit from an application
// thread ends that sleep through the node's eventfd. Checked by the
// per-node wake counters (net::WakeCounts): submits on an idle mesh each
// wake the session's node by its eventfd, and an idle node wakes at a
// bounded rate rather than spinning on a deadline that is always due.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "client/service_client.hpp"

namespace ci::client {
namespace {

ServiceClient::Options net_one_paxos() {
  ServiceClient::Options o;
  o.backend = core::Backend::kNet;
  o.spec.protocol = core::Protocol::kOnePaxos;
  o.spec.num_replicas = 3;
  return o;
}

net::WakeCounts wakes(const ServiceClient& svc, consensus::NodeId node) {
  return svc.mesh()->wake_counts(node);
}

std::uint64_t total(const net::WakeCounts& w) { return w.eventfd + w.socket + w.timeout; }

TEST(NetWake, SubmitsOnAnIdleMeshWakeTheSessionNode) {
  ServiceClient svc(net_one_paxos());
  Session& s = svc.session(0);
  s.execute(Op::kWrite, 1, 1);  // the mesh is up and a leader serves
  const net::WakeCounts before = wakes(svc, s.node());
  constexpr int kSubmits = 50;
  for (int i = 0; i < kSubmits; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    SubmitHandle h = s.submit(Op::kWrite, 2, static_cast<std::uint64_t>(i));
    h.wait();
    EXPECT_TRUE(h.done());
  }
  const net::WakeCounts after = wakes(svc, s.node());
  // Each submit found the queue empty, so each one signalled the eventfd;
  // the 2 ms gaps leave every signal its own wait to end.
  EXPECT_GE(after.eventfd - before.eventfd, static_cast<std::uint64_t>(kSubmits))
      << "socket wakes " << after.socket - before.socket << ", timeouts "
      << after.timeout - before.timeout;
}

TEST(NetWake, AnIdleNodeWakesAtABoundedRate) {
  ServiceClient svc(net_one_paxos());
  Session& s = svc.session(0);
  s.execute(Op::kWrite, 1, 1);
  std::vector<consensus::NodeId> nodes = {0, 1, 2, s.node()};
  std::vector<std::uint64_t> before;
  for (consensus::NodeId n : nodes) before.push_back(total(wakes(svc, n)));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::uint64_t woke = total(wakes(svc, nodes[i])) - before[i];
    // Idle, a node wakes for its timers (heartbeats, pings, the 1 ms cap)
    // and their answers: about a hundred times in 100 ms. A deadline stuck
    // in the past makes it poll with a zero timeout, tens of thousands of
    // times.
    EXPECT_LT(woke, 1000u) << "node " << nodes[i] << " woke " << woke << " times in 100 ms";
    EXPECT_GT(woke, 0u) << "node " << nodes[i] << " never waited";
  }
}

}  // namespace
}  // namespace ci::client
