// Sharded scalability: aggregate throughput of N consensus groups over one
// transport vs the single-group, single-leader ceiling of Fig. 8.
//
// Fig. 8 shows each protocol saturating once its leader core is busy —
// adding clients past the knee only buys latency. The paper's end state
// (§2.1) is many small groups partitioning the machine's state instead of
// one global group; this bench measures what that buys: with the key space
// sharded over N independent Multi-Paxos groups there are N leaders, so
// aggregate committed throughput keeps scaling after a single group stalls.
//
// Two sweeps:
//   1. groups x clients at 3 replicas per group — the scale-out curve.
//   2. equal total replicas (12 cores of replicas as 1x12, 2x6, 4x3) — the
//      same hardware budget spent on one big group vs several small ones.
//
//   $ ./bench/fig_sharded_scalability [--backend=sim|rt] [--placement=...]
#include <algorithm>

#include "common/affinity.hpp"
#include "support/bench_common.hpp"

int main(int argc, char** argv) {
  using namespace ci;
  using namespace ci::bench;
  using core::Placement;
  using core::ShardSpec;

  // This bench sweeps its own group counts; --groups would silently no-op.
  Flags flags;
  harness::parse_flags(argc, argv, {Flag::kBackend, Flag::kPlacement}, &flags);
  const Backend backend = flags.backend;
  const Placement placement = flags.placement;

  header("Sharded scalability: N groups over one transport",
         "paper §2.1 end state; single-group ceiling = Fig. 8",
         "Multi-Paxos; one leader per group, so throughput scales with groups");

  const Nanos warmup = backend == Backend::kSim ? 20 * kMillisecond : 100 * kMillisecond;
  const Nanos window = backend == Backend::kSim ? 200 * kMillisecond : 400 * kMillisecond;

  auto sharded = [&](std::int32_t groups, std::int32_t replicas,
                     std::int32_t clients_per_group) {
    ClusterSpec o;
    o.apply_backend_profile(backend);
    o.protocol = Protocol::kMultiPaxos;
    o.num_replicas = replicas;
    o.num_clients = clients_per_group;
    o.seed = 7;
    return run_cluster(backend, ShardSpec(o, groups, placement), warmup, window);
  };

  row("--- backend: %s, placement: %s (%d cores online) ---",
      core::backend_name(backend), core::placement_name(placement),
      ci::online_cores());

  // Sweep 1: scale-out at 3 replicas and 4 clients per group. The rt sweep
  // stops before drowning the machine in threads; under colocated placement
  // the transport node count does not grow with groups, so the whole sweep
  // runs anywhere.
  const int group_counts[] = {1, 2, 4, 8};
  const int max_nodes = backend == Backend::kSim ? 128 : std::max(8, ci::online_cores() * 4);
  auto transport_nodes = [&](std::int32_t groups, std::int32_t replicas,
                             std::int32_t clients_per_group) {
    ClusterSpec o;
    o.num_replicas = replicas;
    o.num_clients = clients_per_group;
    return ShardSpec(o, groups, placement).total_nodes();
  };
  BenchJson json("fig_sharded_scalability");
  json.set_backend(backend);
  row("%8s | %8s %8s | %12s %12s | %8s", "groups", "replicas", "clients",
      "agg op/s", "op/s/group", "speedup");
  double base = 0;
  bool first = true;
  for (const int g : group_counts) {
    if (transport_nodes(g, 3, 4) > max_nodes) break;
    const BenchRun r = sharded(g, 3, 4);
    if (first) base = r.throughput;  // 1-group baseline only, even if it's 0
    first = false;
    // base is 0 when the baseline run drowned (oversubscribed rt box);
    // don't print inf/nan, and don't rebase onto a later row.
    const double speedup = base > 0 ? r.throughput / base : 0.0;
    row("%8d | %8d %8d | %12.0f %12.0f | %7.2fx", g, g * 3, g * 4, r.throughput,
        r.throughput / g, speedup);
    json.add("groups=" + std::to_string(g), r);
  }

  // Sweep 2: the same replica budget (12) as one group vs several. Client
  // count is held at 8 total so only the layout changes.
  row("");
  row("equal hardware budget (12 replicas, 8 clients total):");
  row("%16s | %12s %10s | %10s", "layout", "agg op/s", "lat us", "consistent");
  struct Layout {
    int groups, replicas, clients_per_group;
  };
  const Layout layouts[] = {{1, 12, 8}, {2, 6, 4}, {4, 3, 2}};
  for (const Layout& l : layouts) {
    if (backend == Backend::kRt &&
        transport_nodes(l.groups, l.replicas, l.clients_per_group) > max_nodes) {
      continue;
    }
    const BenchRun r = sharded(l.groups, l.replicas, l.clients_per_group);
    char name[32];
    std::snprintf(name, sizeof(name), "%dx%d", l.groups, l.replicas);
    row("%16s | %12.0f %10.1f | %10s", name, r.throughput, r.mean_latency_us,
        r.consistent ? "yes" : "NO");
    json.add(name, r);
  }

  row("");
  row("Shape check: aggregate op/s grows with groups (one leader each) while");
  row("a single group's rate is capped by its leader; at equal replica budget");
  row("several small groups beat one wide group (smaller quorums, more leaders).");
  return 0;
}
