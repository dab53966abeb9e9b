// E5 — Figure 9: "throughput w.r.t. the number of replicas" — the Joint
// deployments, where every client is also a replica (§7.4).
//
// All clients forward commands to the fixed leader (core 0); after a reply a
// client waits 2 ms before the next request. Expected shape (paper):
// 2PC-Joint and Multi-Paxos-Joint peak around 20 nodes and then decline
// (each added node adds messages per agreement on the saturated leader);
// 1Paxos-Joint grows ~linearly up to 47 nodes.
#include "support/bench_common.hpp"

int main(int argc, char** argv) {
  using namespace ci;
  using namespace ci::bench;

  Flags flags;  // no knobs: --help, or exit 2 on any flag
  harness::parse_flags(argc, argv, {}, &flags);

  header("E5: Joint protocols — throughput vs number of replicas",
         "paper Fig. 9", "client == replica; 2 ms think time; leader fixed at node 0");

  row("%9s %16s %20s %16s", "replicas", "2PC-Joint op/s", "Multi-Paxos-Joint op/s",
      "1Paxos-Joint op/s");

  const int sizes[] = {2, 3, 5, 8, 12, 16, 20, 25, 30, 35, 40, 47};
  const Protocol protocols[] = {Protocol::kTwoPc, Protocol::kMultiPaxos, Protocol::kOnePaxos};
  for (const int n : sizes) {
    double tput[3] = {0, 0, 0};
    for (int p = 0; p < 3; ++p) {
      if (n < 2) continue;
      ClusterSpec o;
      o.protocol = protocols[p];
      o.num_replicas = n;
      o.joint = true;
      o.workload.think_time = 2 * kMillisecond;  // §7.4
      // Patient clients and a generous retransmission timer: past
      // saturation the paper's curves decline gracefully as the
      // per-agreement message count grows; timers tuned for a 3-node
      // cluster would instead trigger retry storms at 20+ nodes (a round
      // legitimately takes longer than the small-cluster timeout).
      o.workload.request_timeout = 500 * kMillisecond;
      o.engine.retry_timeout = 10 * kMillisecond;
      o.seed = 5;
      const BenchRun r = run_sim(o, 50 * kMillisecond, 500 * kMillisecond);
      tput[p] = r.throughput;
    }
    row("%9d %16.0f %20.0f %16.0f", n, tput[0], tput[1], tput[2]);
  }
  row("");
  row("Shape check (paper): 2PC-Joint and Multi-Paxos-Joint rise, saturate");
  row("around ~20 nodes, then fall as per-agreement message counts grow;");
  row("1Paxos-Joint keeps growing ~linearly to 47 nodes.");
  return 0;
}
