// E4 — Figure 8: "latency vs throughput w.r.t. the number of clients in a
// 48-core machine."
//
// 3 replicas, a growing client count, all three protocols. Expected shape
// (paper): 1Paxos reaches the highest throughput (its peak ~2x its
// single-client rate); Multi-Paxos saturates around 52% and 2PC around 48%
// of 1Paxos's peak; past saturation latency climbs steeply while throughput
// stalls.
//
// One sweep, three runtimes: `--backend=sim` (default) runs the full 1..45
// sweep faithful to a 48-core box; `--backend=rt` runs the identical spec
// over real threads up to a client count this machine can host without
// heavy oversubscription; `--backend=net` does the same over a loopback
// TCP socket mesh (`--net-port-base`, `--net-registry`, `--net-io-threads`
// shape the mesh).
#include <algorithm>

#include "common/affinity.hpp"
#include "support/bench_common.hpp"

int main(int argc, char** argv) {
  using namespace ci;
  using namespace ci::bench;

  Flags flags;
  harness::parse_flags(
      argc, argv,
      {Flag::kBackend, Flag::kNetPortBase, Flag::kNetRegistry, Flag::kNetIoThreads}, &flags);
  const Backend backend = flags.backend;
  const core::NetParams& net = flags.net;

  header("E4: latency vs throughput as clients scale",
         "paper Fig. 8", "3 replicas; series = (throughput op/s, latency us) per client count");

  const int clients[] = {1, 2, 3, 5, 7, 9, 13, 18, 25, 35, 45};
  const Protocol protocols[] = {Protocol::kTwoPc, Protocol::kMultiPaxos, Protocol::kOnePaxos};

  // The rt/net sweeps stop before drowning the machine in threads; the sim
  // sweep models the paper's 48 cores and runs the full axis.
  const int max_clients = backend == Backend::kSim
                              ? 45
                              : std::max(1, ci::online_cores() - 5);
  const Nanos warmup = backend == Backend::kSim ? 20 * kMillisecond : 100 * kMillisecond;
  const Nanos window = backend == Backend::kSim ? 200 * kMillisecond : 400 * kMillisecond;

  BenchJson json("fig8_scalability");
  json.set_backend(backend);
  row("--- backend: %s (%d cores online) ---", core::backend_name(backend),
      ci::online_cores());
  row("%8s | %12s %10s | %12s %10s | %12s %10s", "clients", "2PC op/s", "lat us",
      "MP op/s", "lat us", "1Paxos op/s", "lat us");
  double peak[3] = {0, 0, 0};
  for (const int n : clients) {
    if (n > max_clients) break;
    double tput[3];
    double lat[3];
    for (int p = 0; p < 3; ++p) {
      ClusterSpec o;
      o.apply_backend_profile(backend);
      o.protocol = protocols[p];
      o.num_replicas = 3;
      o.num_clients = n;
      o.net = net;
      o.seed = 4;
      const BenchRun r = run_cluster(backend, o, warmup, window);
      tput[p] = r.throughput;
      lat[p] = r.mean_latency_us;
      peak[p] = std::max(peak[p], r.throughput);
      json.add(std::string(pname(protocols[p])) + "-clients=" + std::to_string(n), r);
    }
    row("%8d | %12.0f %10.1f | %12.0f %10.1f | %12.0f %10.1f", n, tput[0], lat[0], tput[1],
        lat[1], tput[2], lat[2]);
  }
  row("");
  row("peak throughput: 2PC %.0f (%.0f%% of 1Paxos), Multi-Paxos %.0f (%.0f%%), 1Paxos %.0f",
      peak[0], 100.0 * peak[0] / peak[2], peak[1], 100.0 * peak[1] / peak[2], peak[2]);
  row("(paper: 2PC 48%%, Multi-Paxos 52%% of 1Paxos's peak)");
  row("");
  row("Shape check (paper): 1Paxos scales furthest before its latency knee;");
  row("Multi-Paxos and 2PC saturate at roughly half of 1Paxos's peak.");
  return 0;
}
