// Batching amortization: throughput vs batch size, per placement.
//
// After the sharding layer (fig_sharded_scalability) the per-message cost
// at each group's leader is the dominant term in every throughput figure:
// deciding one command costs the leader a fixed number of serially-processed
// messages (request in, accepts out, acceptances in, reply out — §3's
// transmission delay). Leader-side batching (--batch knob, consensus/
// batch.hpp) packs k queued commands into ONE instance, so the protocol
// messages amortize over k and only the per-command client traffic remains.
//
// Two sweeps:
//   1. single group, batch size 1..64 at a client count high enough to keep
//      the leader's backlog non-empty — the amortization curve, plus the
//      messages-per-command column that explains it.
//   2. batching x sharding: 4 groups per placement at batch 1 vs 64 — the
//      two multipliers compose (each group's leader batches its own
//      backlog).
//
//   $ ./bench/fig_batching_amortization [--backend=sim|rt] [--sweep-diff]
//
// --sweep-diff appends a cross-backend check: one representative batched
// spec runs on sim AND rt and the two RunResults are shape-diffed
// (harness::sweep_diff); any mismatch fails the binary.
#include "support/bench_common.hpp"

int main(int argc, char** argv) {
  using namespace ci;
  using namespace ci::bench;
  using core::Placement;
  using core::ShardSpec;

  // The batch sweep is this bench's own axis; --batch would silently no-op.
  Flags flags;
  harness::parse_flags(argc, argv, {Flag::kBackend, Flag::kSweepDiff}, &flags);
  const Backend backend = flags.backend;
  const bool diff_backends = flags.sweep_diff;

  header("Batching amortization: throughput vs batch size",
         "Multi-Paxos group commit over the §3 cost model",
         "leader messages amortize over the batch; client traffic stays per-command");

  const Nanos warmup = backend == Backend::kSim ? 20 * kMillisecond : 100 * kMillisecond;
  const Nanos window = backend == Backend::kSim ? 200 * kMillisecond : 400 * kMillisecond;
  // Enough closed-loop clients that the leader always has a backlog to pack
  // (a batch can never exceed the number of waiting commands).
  const std::int32_t kClients = 24;

  auto batched = [&](std::int32_t batch, std::int32_t groups, Placement placement,
                     std::int32_t coalesce = 1) {
    ClusterSpec o;
    o.apply_backend_profile(backend);
    o.protocol = Protocol::kMultiPaxos;
    o.num_replicas = 3;
    o.num_clients = kClients;
    o.seed = 21;
    o.engine.batch.max_commands = batch;
    o.workload.round_size = coalesce;
    return run_cluster(backend, ShardSpec(o, groups, placement), warmup, window);
  };

  BenchJson json("fig_batching_amortization");
  json.set_backend(backend);

  row("--- backend: %s, %d clients/group, 3 replicas/group ---",
      core::backend_name(backend), kClients);
  row("");
  row("single group:");
  row("%8s | %12s %10s %10s | %10s %10s | %8s", "batch", "op/s", "msgs/op", "bytes/op",
      "p50 us", "p99 us", "speedup");
  double base = 0;
  for (const std::int32_t b : {1, 2, 4, 8, 16, 32, 64}) {
    const BenchRun r = batched(b, 1, Placement::kGroupMajor);
    if (b == 1) base = r.throughput;
    row("%8d | %12.0f %10.2f %10.1f | %10.1f %10.1f | %7.2fx", b, r.throughput,
        r.msgs_per_op(), r.bytes_per_op(), r.p50_latency_us, r.p99_latency_us,
        base > 0 ? r.throughput / base : 0.0);
    json.add("batch=" + std::to_string(b), r);
  }

  row("");
  row("client coalescing x leader batching (single group, batch=64):");
  row("%8s | %12s %10s %10s | %10s %10s", "coalesce", "op/s", "msgs/op", "bytes/op",
      "p50 us", "p99 us");
  for (const std::int32_t cw : {1, 4, 8}) {
    const BenchRun r = batched(64, 1, Placement::kGroupMajor, cw);
    row("%8d | %12.0f %10.2f %10.1f | %10.1f %10.1f", cw, r.throughput, r.msgs_per_op(),
        r.bytes_per_op(), r.p50_latency_us, r.p99_latency_us);
    json.add("batch=64-coalesce=" + std::to_string(cw), r);
  }
  row("(coalesce=N ships N client commands per kClientCmdBatch frame, so the");
  row("per-command request/reply traffic amortizes too — the floor the batch");
  row("sweep flattens against drops below it)");

  row("");
  row("batching x sharding (4 groups, %d clients per group):", kClients);
  row("%12s | %10s | %12s | %8s", "placement", "batch", "agg op/s", "speedup");
  for (const Placement p :
       {Placement::kGroupMajor, Placement::kInterleaved, Placement::kCoLocated}) {
    const BenchRun one = batched(1, 4, p);
    const BenchRun big = batched(64, 4, p);
    row("%12s | %10d | %12.0f | %8s", core::placement_name(p), 1, one.throughput, "");
    row("%12s | %10d | %12.0f | %7.2fx", core::placement_name(p), 64, big.throughput,
        one.throughput > 0 ? big.throughput / one.throughput : 0.0);
    json.add(std::string(core::placement_name(p)) + "-4g-batch=1", one);
    json.add(std::string(core::placement_name(p)) + "-4g-batch=64", big);
  }

  row("");
  row("Shape check: single-group op/s rises monotonically with batch size and");
  row("clears 2x by batch=64 while msgs/op AND bytes/op collapse toward the");
  row("per-command client traffic floor (frames carry k commands behind one");
  row("header); the 4-group rows show batching and sharding compose.");

  if (diff_backends) {
    // One representative batched spec, both runtimes, shapes diffed.
    ClusterSpec o;
    o.protocol = Protocol::kMultiPaxos;
    o.num_replicas = 3;
    o.num_clients = 4;
    o.workload.requests_per_client = 100;
    o.engine.batch.max_commands = 16;
    o.seed = 21;
    harness::RunPlan plan;
    plan.duration = 20 * kSecond;  // the quota ends both runs long before this
    plan.max_wall = 60 * kSecond;
    row("");
    row("--sweep-diff: batch=16 spec on sim AND rt...");
    const harness::SweepDiffN d =
        harness::sweep_diff({Backend::kSim, Backend::kRt}, ShardSpec(o), plan);
    row("  sim committed %llu, rt committed %llu",
        static_cast<unsigned long long>(d.runs[0].result.committed),
        static_cast<unsigned long long>(d.runs[1].result.committed));
    for (const std::string& m : d.mismatches) row("  MISMATCH: %s", m.c_str());
    if (!d.ok()) return 1;
    row("  shapes agree.");
  }
  return 0;
}
