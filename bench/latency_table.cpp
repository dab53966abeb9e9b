// E3 — §7.2 in-text latency/throughput comparison, one client.
//
// Paper (48-core Opteron): 1Paxos 16 us < Multi-Paxos 19.6 us < 2PC 21.4 us.
// 2PC loses to Multi-Paxos because it waits for ALL replicas; 1Paxos wins by
// sending the fewest messages. This is the paper's sim-vs-hardware
// comparison in one table, so both backends run the same spec through the
// harness:
//   * the simulator with the paper's §3 cost constants (absolute numbers in
//     the paper's ballpark), and
//   * the real QC-libtask runtime on this machine (absolute numbers shrink
//     with modern cores; the ordering is the reproduced claim).
#include "support/bench_common.hpp"

namespace {

using namespace ci;
using namespace ci::bench;

ClusterSpec one_client_spec(Backend backend, Protocol p) {
  ClusterSpec o;
  o.apply_backend_profile(backend);
  o.protocol = p;
  o.num_replicas = 3;
  o.num_clients = 1;
  o.seed = 3;
  return o;
}

core::RunResult best_rt(Protocol p) {
  // Min-of-3 by median: container scheduling noise only adds latency.
  core::RunResult best;
  for (int i = 0; i < 3; ++i) {
    ClusterSpec o = one_client_spec(Backend::kRt, p);
    o.workload.requests_per_client = 5000;
    RunPlan plan;
    plan.duration = 30 * kSecond;  // quota ends the run
    const core::RunResult r = harness::run(Backend::kRt, o, plan);
    if (i == 0 || r.latency.percentile(0.5) < best.latency.percentile(0.5)) best = r;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;  // no knobs: --help, or exit 2 on any flag
  harness::parse_flags(argc, argv, {}, &flags);

  header("E3: commit latency and throughput with one client",
         "paper §7.2 (in-text table)",
         "3 replicas, closed loop; ordering 1Paxos < Multi-Paxos < 2PC");

  const Protocol protocols[] = {Protocol::kOnePaxos, Protocol::kMultiPaxos, Protocol::kTwoPc};
  const double paper_us[] = {16.0, 19.6, 21.4};

  row("--- simulator (paper §3 cost constants) ---");
  row("%-12s %14s %14s %14s %16s", "protocol", "mean lat us", "p50 lat us", "paper us",
      "throughput op/s");
  for (int i = 0; i < 3; ++i) {
    const ClusterSpec o = one_client_spec(Backend::kSim, protocols[i]);
    const BenchRun r = run_sim(o, 20 * kMillisecond, 300 * kMillisecond);
    row("%-12s %14.1f %14.1f %14.1f %16.0f", pname(protocols[i]), r.mean_latency_us,
        r.p50_latency_us, paper_us[i], r.throughput);
  }

  row("");
  row("--- real QC-libtask runtime on this machine ---");
  row("%-12s %14s %14s %16s", "protocol", "mean lat us", "p50 lat us", "throughput op/s");
  for (int i = 0; i < 3; ++i) {
    const core::RunResult r = best_rt(protocols[i]);
    row("%-12s %14.2f %14.2f %16.0f", pname(protocols[i]), r.latency.mean() / 1e3,
        static_cast<double>(r.latency.percentile(0.5)) / 1e3, r.throughput_ops());
  }
  row("");
  row("Shape check (paper): latency ordering 1Paxos < Multi-Paxos < 2PC;");
  row("throughput ordering reversed (closed loop).");
  return 0;
}
