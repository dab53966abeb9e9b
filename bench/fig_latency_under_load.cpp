// Tail latency under offered load (DESIGN.md §1g): what the adaptive batch
// flush buys once arrivals are generated by the outside world instead of by
// the service's own completions.
//
// One group of MultiPaxos (batch=64, flush budget 200 us), driven by the
// open-loop workload engine (harness/workload.hpp) with a YCSB-A mix over
// 10000 logical sessions (override with --sessions). Two batcher arms:
//   * fixed    — the classic timer: every partial batch waits the full
//     200 us budget for company, no matter how quiet the client side is;
//   * adaptive — the EWMA gap predictor: flush immediately when the
//     predicted wait for the next command exceeds the budget, hold only
//     when arrivals are streaming in fast enough to fill the batch.
//
// Sweep: a closed-loop peak for each arm (depth 64 per conduit — the
// saturation anchor), then Poisson open-loop points at 30/60/80/95% of the
// FIXED arm's measured peak, both arms at every point. Latency is measured
// from each op's scheduled arrival instant, so queueing delay under
// overload is charged honestly (no coordinated omission).
//
// Shape to check: the two arms' peaks agree within noise (under saturation
// batches fill before any timer matters), while at and below 60% load the
// adaptive arm's p99 sits far below the fixed arm's — a lone arrival no
// longer donates a 200 us timer wait to the percentiles.
//
//   $ ./bench/fig_latency_under_load [--backend=sim|rt] [--sessions=N]
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "client/service_client.hpp"
#include "harness/workload.hpp"
#include "support/bench_common.hpp"

namespace {

using namespace ci;
using namespace ci::bench;
using consensus::BatchPolicy;

constexpr Nanos kFlushBudget = 200 * kMicrosecond;

client::ServiceClient::Options make_opts(Backend backend,
                                         BatchPolicy::FlushMode mode) {
  client::ServiceClient::Options o;
  o.backend = backend;
  o.groups = 1;
  o.spec.protocol = core::Protocol::kMultiPaxos;
  if (backend == Backend::kSim) {
    // Microsecond heartbeats so election/lease chatter settles well inside
    // the measured virtual-time windows; 10 ms retry keeps session timers
    // off the latency path.
    o.spec.apply(TimeoutProfile::many_core());
    o.spec.workload.request_timeout = 10 * kMillisecond;
  }
  o.spec.engine.batch.max_commands = 64;
  o.spec.engine.batch.flush_after = kFlushBudget;
  o.spec.engine.batch.flush_mode = mode;
  o.spec.seed = 29;
  o.num_sessions = 4;  // conduits the logical sessions multiplex over
  return o;
}

harness::WorkloadProfile base_profile(std::int64_t sessions) {
  harness::WorkloadProfile p = harness::WorkloadProfile::preset('A');
  p.sessions = sessions;
  p.key_space = 20000;
  p.seed = 11;
  return p;
}

BenchRun to_run(const client::ServiceClient& svc,
                const harness::WorkloadResult& r, std::uint64_t m0,
                std::uint64_t b0) {
  BenchRun out;
  out.throughput = r.achieved_rate();
  out.committed = static_cast<std::uint64_t>(r.completed);
  out.messages = svc.total_messages() - m0;
  out.bytes = svc.total_bytes() - b0;
  fill_latency(&out, r.latency);
  return out;
}

const char* arm_name(BatchPolicy::FlushMode mode) {
  return mode == BatchPolicy::FlushMode::kAdaptive ? "adaptive" : "fixed";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.sessions = 10000;
  harness::parse_flags(argc, argv, {Flag::kBackend, Flag::kSessions}, &flags);
  const Backend backend = flags.backend;
  const std::int64_t sessions = flags.sessions;
  const bool sim = backend == Backend::kSim;

  header("Tail latency under offered load: adaptive vs fixed batch flush",
         "open-loop YCSB-A arrivals against one MultiPaxos group (DESIGN.md §1g)",
         "adaptive flushing buys low-load tail latency without giving up peak");

  row("--- backend: %s, 1 group x 3 replicas, MultiPaxos batch=64, "
      "flush budget %lld us, %lld logical sessions over 4 conduits ---",
      core::backend_name(backend), static_cast<long long>(kFlushBudget / 1000),
      static_cast<long long>(sessions));
  row("");
  row("%16s | %12s %10s | %10s %10s %10s", "point", "op/s", "msgs/op", "p50 us",
      "p99 us", "p999 us");

  BenchJson json("fig_latency_under_load");
  json.set_backend(backend);

  // Every measurement gets a fresh cluster: same seed, same warm ritual,
  // so sim points are bit-reproducible and arms never share batcher state.
  // The warm pass (different generator seed) carries the group past its
  // first election and populates the hot keys before anything is recorded.
  auto measure = [&](BatchPolicy::FlushMode mode, double target_rate,
                     std::int64_t ops) {
    client::ServiceClient svc(make_opts(backend, mode));
    harness::WorkloadProfile warm = base_profile(sessions);
    warm.seed = 97;
    (void)harness::run_closed_loop(svc, warm, sim ? 2000 : 500, /*depth=*/16);
    harness::WorkloadProfile p = base_profile(sessions);
    const std::uint64_t m0 = svc.total_messages();
    const std::uint64_t b0 = svc.total_bytes();
    harness::WorkloadResult r;
    if (target_rate > 0) {
      p.target_rate = target_rate;
      r = harness::run_open_loop(svc, p, ops);
    } else {
      r = harness::run_closed_loop(svc, p, ops, /*depth=*/64);
    }
    return to_run(svc, r, m0, b0);
  };

  auto emit = [&](const std::string& label, const BenchRun& r) {
    row("%16s | %12.0f %10.2f | %10.1f %10.1f %10.1f", label.c_str(),
        r.throughput, r.msgs_per_op(), r.p50_latency_us, r.p99_latency_us,
        r.p999_latency_us);
    json.add(label, r);
  };

  // Saturation anchors first: the closed loop keeps 64 ops per conduit
  // pending, so batches fill and the flush timer is irrelevant — the two
  // arms must agree here (within noise under rt).
  const std::int64_t kPeakOps = sim ? 30000 : 8000;
  const BenchRun fixed_peak =
      measure(BatchPolicy::FlushMode::kFixed, 0.0, kPeakOps);
  emit("fixed-peak", fixed_peak);
  const BenchRun adaptive_peak =
      measure(BatchPolicy::FlushMode::kAdaptive, 0.0, kPeakOps);
  emit("adaptive-peak", adaptive_peak);

  // Open-loop points, both arms at each fraction of the FIXED peak (one
  // shared denominator keeps the arms comparable row to row).
  for (const int pct : {30, 60, 80, 95}) {
    const double rate = fixed_peak.throughput * pct / 100.0;
    const auto ops = static_cast<std::int64_t>(std::clamp(
        rate * 0.12, 4000.0, sim ? 60000.0 : 12000.0));
    for (const BatchPolicy::FlushMode mode :
         {BatchPolicy::FlushMode::kFixed, BatchPolicy::FlushMode::kAdaptive}) {
      const BenchRun r = measure(mode, rate, ops);
      emit(std::string(arm_name(mode)) + "-load" + std::to_string(pct), r);
    }
  }

  row("");
  row("Shape check: the two peak rows agree within a few percent (batches");
  row("fill under saturation; no timer on the path). Below 60%% load the");
  row("fixed arm's p99 carries the 200 us hold almost verbatim, while the");
  row("adaptive arm flushes lone arrivals immediately — its p99 must sit at");
  row("half the fixed arm's or better until the queue itself dominates.");
  return 0;
}
