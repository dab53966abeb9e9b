// E6 — Figure 10: "Throughput of 2PC-Joint, which is run directly among the
// clients" under read workloads (§7.5).
//
// 2PC-Joint services reads locally when the replica is not between the two
// phases of an ongoing round; writes still pay the full all-replica
// agreement. Expected shape (paper): with 3 clients and 75% reads 2PC-Joint
// catches up with 1Paxos; with 5 clients it falls behind again — the local
// read optimization does not scale with the number of nodes.
#include <string>

#include "support/bench_common.hpp"

namespace {

using namespace ci;
using namespace ci::bench;

BenchRun joint_run(Protocol p, int nodes, double read_fraction, bool local_reads) {
  ClusterSpec o;
  o.protocol = p;
  o.num_replicas = nodes;
  o.joint = true;
  o.joint_local_reads = local_reads;
  o.workload.read_fraction = read_fraction;
  o.seed = 6;
  return run_sim(o, 20 * kMillisecond, 300 * kMillisecond);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;  // no knobs: --help, or exit 2 on any flag
  harness::parse_flags(argc, argv, {}, &flags);

  header("E6: read workloads — 2PC-Joint local reads vs 1Paxos",
         "paper Fig. 10", "proposals/sec for 3 and 5 joint nodes");

  BenchJson json("fig10_read_workload");
  // One table row per configuration, one json row per (config, node count)
  // so the snapshot diffs cell by cell.
  auto table_row = [&](const char* name, const std::string& slug, Protocol p,
                       double reads, bool local) {
    const BenchRun three = joint_run(p, 3, reads, local);
    const BenchRun five = joint_run(p, 5, reads, local);
    row("%-26s %14.0f %14.0f", name, three.throughput, five.throughput);
    json.add(slug + "-3n", three);
    json.add(slug + "-5n", five);
  };

  row("%-26s %14s %14s", "configuration", "3 clients", "5 clients");
  table_row("1Paxos - 0% read", "1paxos-read0", Protocol::kOnePaxos, 0.0, false);
  table_row("2PC-Joint - 0% read", "joint-read0", Protocol::kTwoPc, 0.0, true);
  table_row("2PC-Joint - 10% read", "joint-read10", Protocol::kTwoPc, 0.10, true);
  table_row("2PC-Joint - 75% read", "joint-read75", Protocol::kTwoPc, 0.75, true);
  row("");
  row("Shape check (paper): more reads lift 2PC-Joint; at 3 clients / 75%%");
  row("reads it approaches 1Paxos, but adding clients drops it again while");
  row("1Paxos holds — the local-read optimization does not scale (§7.5).");
  return 0;
}
