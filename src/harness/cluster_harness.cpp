#include "harness/cluster_harness.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "core/threaded_cluster.hpp"
#include "sim/sim_cluster.hpp"

namespace ci::harness {
namespace {

RunResult run_sim_backend(const ShardSpec& shard, const RunPlan& plan) {
  sim::SimCluster c(shard);
  c.run(plan.warmup);
  const std::uint64_t committed_warm = c.total_committed();
  const std::uint64_t issued_warm = c.total_issued();
  const std::uint64_t local_reads_warm = c.sharded().total_local_reads();
  const std::uint64_t messages_warm = c.net().total_messages();
  const std::uint64_t bytes_warm = c.net().total_bytes();
  c.run(plan.warmup + plan.duration);
  const Nanos measured = std::max<Nanos>(c.net().now() - plan.warmup, 1);
  RunResult res = c.result(measured);
  res.committed -= committed_warm;
  res.issued -= issued_warm;
  res.local_reads -= local_reads_warm;
  res.total_messages -= messages_warm;
  res.total_bytes -= bytes_warm;
  return res;
}

// On rt and net alike: warm up, snapshot the live counters, measure, and
// subtract. On net, total_messages/total_bytes count actual frames and
// socket bytes (length prefix included), so msgs/op and bytes/op rows are
// honest wire numbers.
RunResult run_threaded_backend(Backend b, const ShardSpec& shard, const RunPlan& plan) {
  core::ThreadedCluster c(b, shard);
  c.start();
  const Nanos t0 = now_nanos();
  // Without a warmup the window opens at start() from zero: a snapshot
  // taken after start() races the clients' first commits out of the result.
  std::uint64_t committed_warm = 0, issued_warm = 0, local_reads_warm = 0;
  std::uint64_t messages_warm = 0, bytes_warm = 0;
  if (plan.warmup > 0) {
    c.drive_until(t0 + plan.warmup);
    committed_warm = c.live_committed();
    issued_warm = c.live_issued();
    local_reads_warm = c.live_local_reads();
    messages_warm = c.live_messages();
    bytes_warm = c.live_bytes();
  }
  const Nanos measure_start = plan.warmup > 0 ? now_nanos() : t0;
  c.drive_until(t0 + std::min(plan.warmup + plan.duration, plan.max_wall));
  const Nanos measured = std::max<Nanos>(now_nanos() - measure_start, 1);
  c.stop();
  RunResult res = c.collect();
  res.committed -= committed_warm;
  res.issued -= issued_warm;
  res.local_reads -= local_reads_warm;
  res.total_messages -= messages_warm;
  res.total_bytes -= bytes_warm;
  res.duration = measured;
  return res;
}

}  // namespace

RunResult run(Backend b, const ShardSpec& shard, const RunPlan& plan) {
  return b == Backend::kSim ? run_sim_backend(shard, plan)
                            : run_threaded_backend(b, shard, plan);
}

RunResult run(Backend b, const ClusterSpec& spec, const RunPlan& plan) {
  return run(b, ShardSpec(spec), plan);
}

namespace {

// One formatted complaint; keeps the shape checks below readable.
void mismatch(std::vector<std::string>* out, const std::string& what) {
  out->push_back(what);
}

}  // namespace

SweepDiffN sweep_diff(const std::vector<Backend>& backends, const ShardSpec& shard,
                      const RunPlan& plan) {
  CI_CHECK_MSG(!backends.empty(), "sweep_diff needs at least one backend");
  for (std::size_t i = 0; i < backends.size(); ++i) {
    for (std::size_t j = i + 1; j < backends.size(); ++j) {
      CI_CHECK_MSG(backends[i] != backends[j], "duplicate backend in sweep_diff list");
    }
  }

  SweepDiffN d;
  // One logical spec, one runtime per requested backend. Each side gets its
  // backend's timeout profile (virtual microsecond timers vs real
  // oversubscribed threads/sockets) — the same adaptation every
  // cross-backend comparison in the repo makes.
  for (const Backend b : backends) {
    ShardSpec side = shard;
    side.base.apply_backend_profile(b);
    d.runs.push_back({b, run(b, side, plan)});
  }
  auto* m = &d.mismatches;

  const std::uint64_t per_client = shard.base.workload.requests_per_client;
  for (const BackendRun& r : d.runs) {
    const std::string who = core::backend_name(r.backend);

    // Safety shape: agreement must hold on every backend, full stop.
    if (!r.result.consistent) {
      mismatch(m, who + " run inconsistent (cross-replica disagreement)");
    }

    // Liveness shape: every backend makes progress on the same spec.
    if (r.result.committed == 0) mismatch(m, who + " committed nothing");

    // Quota shape: a closed-loop request quota must complete on every side —
    // the one throughput-independent count the backends can agree on exactly.
    if (per_client > 0) {
      const std::uint64_t quota = per_client *
                                  static_cast<std::uint64_t>(shard.base.client_count()) *
                                  static_cast<std::uint64_t>(shard.groups);
      if (r.result.committed != quota) {
        mismatch(m, who + " committed " + std::to_string(r.result.committed) +
                        " of a " + std::to_string(quota) + "-request quota");
      }
    }
  }

  // Amortization shape: messages per committed op is a structural property
  // of the protocol/batch configuration, not of the clock — every backend
  // must land within an order of magnitude of the FIRST one (by convention
  // sim, the deterministic reference; rt/net retries under an oversubscribed
  // machine account for the slack — trust shapes, not numbers).
  const BackendRun& ref = d.runs.front();
  if (ref.result.committed > 0) {
    const double ref_mpo = static_cast<double>(ref.result.total_messages) /
                           static_cast<double>(ref.result.committed);
    for (std::size_t i = 1; i < d.runs.size(); ++i) {
      const BackendRun& r = d.runs[i];
      if (r.result.committed == 0) continue;
      const double mpo = static_cast<double>(r.result.total_messages) /
                         static_cast<double>(r.result.committed);
      if (ref_mpo > 0 && mpo > 0 && (mpo / ref_mpo > 10.0 || ref_mpo / mpo > 10.0)) {
        mismatch(m, std::string("msgs/op diverged: ") + core::backend_name(ref.backend) +
                        " " + std::to_string(ref_mpo) + " vs " +
                        core::backend_name(r.backend) + " " + std::to_string(mpo));
      }
    }
  }
  return d;
}

}  // namespace ci::harness
