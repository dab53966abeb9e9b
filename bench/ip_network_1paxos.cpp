// A4 — §8's related-work claim: "we conducted experiments of 1Paxos over an
// IP network and observed a factor of 2.88 improvement over Multi-Paxos".
//
// 1Paxos vs Multi-Paxos under the LAN latency model (trans 2 us,
// prop 135 us) at saturating client counts. The expected shape is a clear
// (>1.5x) 1Paxos advantage at saturation: the leader's per-commit message
// load is halved, and in a LAN the leader is still the throughput
// bottleneck once enough clients pile on.
#include "support/bench_common.hpp"

int main(int argc, char** argv) {
  using namespace ci;
  using namespace ci::bench;

  Flags flags;  // no knobs: --help, or exit 2 on any flag
  harness::parse_flags(argc, argv, {}, &flags);

  header("A4: 1Paxos vs Multi-Paxos over an IP network (LAN model)",
         "paper §8 (in-text, factor 2.88)", "3 replicas; LAN latency model from §3");

  row("%8s %20s %20s %12s", "clients", "Multi-Paxos op/s", "1Paxos op/s", "ratio");
  double best_ratio = 0;
  for (const int clients : {10, 25, 50, 100, 150, 200}) {
    ClusterSpec mp;
    mp.protocol = Protocol::kMultiPaxos;
    mp.num_replicas = 3;
    mp.num_clients = clients;
    mp.seed = 9;
    apply_lan_timeouts(mp);
    const double mp_tput = run_sim(mp, 200 * kMillisecond, 2 * kSecond).throughput;

    ClusterSpec op;
    op.protocol = Protocol::kOnePaxos;
    op.num_replicas = 3;
    op.num_clients = clients;
    op.seed = 9;
    apply_lan_timeouts(op);
    const double op_tput = run_sim(op, 200 * kMillisecond, 2 * kSecond).throughput;

    const double ratio = op_tput / mp_tput;
    best_ratio = std::max(best_ratio, ratio);
    row("%8d %20.0f %20.0f %12.2f", clients, mp_tput, op_tput, ratio);
  }
  row("");
  row("best 1Paxos/Multi-Paxos ratio at saturation: %.2fx (paper: 2.88x)", best_ratio);
  return 0;
}
