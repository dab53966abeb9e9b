// A1 — Figure 3: "The reduced number of messages in 1Paxos compared to
// collapsed Multi-Paxos deployed on three nodes."
//
// Counts boundary-crossing messages per committed command, per protocol, on
// 3 replicas with a single client. Heartbeats/pings are minimized by config
// so the counts isolate the agreement fast path. Expected (Fig. 3 plus the
// client round trip):
//   1Paxos:      request + accept + 2 learns + reply               = 5
//   Multi-Paxos: request + 2 accepts + 6 accept-broadcasts + reply = 10
//   2PC:         request + 2+2 prepare/ack + 2+2 commit/ack + reply = 10
// Exits 1 when any protocol's count is 0.05 or more away from these (ctest
// label `paper`).
#include <cmath>

#include "support/bench_common.hpp"

namespace {

using namespace ci;
using namespace ci::bench;

double messages_per_commit(Protocol p) {
  ClusterSpec o;
  o.protocol = p;
  o.num_replicas = 3;
  o.num_clients = 1;
  o.workload.requests_per_client = 2000;
  o.seed = 7;
  // Keep background chatter out of the numerator.
  o.engine.heartbeat_period = 10 * kSecond;
  o.engine.fd_timeout = 100 * kSecond;
  o.sim.model.prop_jitter = 0;
  SimCluster c(o);
  c.run(5 * kSecond);
  return static_cast<double>(c.net().total_messages()) /
         static_cast<double>(c.total_committed());
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;  // no knobs: --help, or exit 2 on any flag
  harness::parse_flags(argc, argv, {}, &flags);

  header("A1: boundary-crossing messages per commit (3 replicas, 1 client)",
         "paper Fig. 3 + §4.3",
         "counts include the client request and reply; self-delivery between\n"
         "collapsed roles on one node is free, exactly as in the figure");

  // The predicate (Fig. 3, §4.3): each protocol's messages per commit is
  // the paper's count, to within rounding.
  struct Check {
    const char* name;
    Protocol protocol;
    double paper;
  };
  const Check checks[] = {{"1Paxos", Protocol::kOnePaxos, 5},
                          {"Multi-Paxos", Protocol::kMultiPaxos, 10},
                          {"2PC", Protocol::kTwoPc, 10}};
  constexpr double kTolerance = 0.05;
  row("%-14s %22s %10s %8s", "protocol", "messages/commit", "paper", "verdict");
  double measured[3];
  bool all_match = true;
  for (int i = 0; i < 3; ++i) {
    measured[i] = messages_per_commit(checks[i].protocol);
    const bool match = std::fabs(measured[i] - checks[i].paper) < kTolerance;
    all_match = all_match && match;
    row("%-14s %22.2f %10.0f %8s", checks[i].name, measured[i], checks[i].paper,
        match ? "ok" : "MISMATCH");
  }
  row("");
  row("1Paxos / Multi-Paxos message ratio: %.2f (paper: ~0.5 — \"reduces the",
      measured[0] / measured[1]);
  row("number of produced messages by a factor of two\", §4.3)");
  row("Fig. 3 predicate (each count within %.2f of the paper's): %s", kTolerance,
      all_match ? "holds" : "FAILS");
  return all_match ? 0 : 1;
}
