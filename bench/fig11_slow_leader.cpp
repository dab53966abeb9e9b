// E7 — Figure 11: "The changes in throughput achieved by 1Paxos when the
// leader is slow."
//
// 5 clients, 3 replicas; the leader's core becomes slow mid-run. Expected
// shape (paper): throughput drops to ~zero while the clients detect the slow
// leader and another node takes the leadership through PaxosUtility, then
// recovers to the pre-fault level; the no-failure baseline stays flat.
//
// The slow core is injected as per-message stalls (container sandboxes
// emulate CPU affinity, so the paper's burner processes would not contend;
// see DESIGN.md substitutions). The paper plots proposals/sec in 10 ms
// buckets; so do we. `--backend={sim,rt}` picks the runtime; the fault
// schedule travels inside the spec's FaultPlan either way.
//
// The shape is checked as a predicate (ctest `paper_fig11_slow_leader`, on
// sim), with tolerances read off the paper's words:
//   * "drops to almost zero": some stretch of the slow window runs at no
//     more than 10% of the pre-fault throughput. Measured over 1 ms
//     buckets: on sim's many-core timeouts the leader change completes
//     inside one of the paper's 10 ms buckets (DESIGN.md §3);
//   * "recovers ... while the old leader is still slow": from 200 ms after
//     the fault until the heal, throughput averages at least 80% of
//     pre-fault;
//   * the no-failure line is flat: each of its 10 ms buckets is within 20%
//     of its mean.
// Exits 1 when any clause fails.
#include <algorithm>
#include <vector>

#include "support/bench_common.hpp"

namespace {

using namespace ci;
using namespace ci::bench;

constexpr Nanos kBucket = 10 * kMillisecond;  // the paper's bucket width
constexpr int kBuckets = 200;                 // 2 s total
constexpr int kSlowStartBucket = 50;          // fault at 0.5 s
constexpr int kSlowEndBucket = 130;           // heal at 1.3 s
constexpr int kFine = 10;                     // 1 ms buckets per paper bucket

// Commit rate per 1 ms bucket.
std::vector<double> run_series(Backend backend, bool inject_fault) {
  ClusterSpec o;
  o.apply_backend_profile(backend);
  o.protocol = Protocol::kOnePaxos;
  o.num_clients = 5;
  o.workload.requests_per_client = 0;  // run for the full window
  if (inject_fault) {
    o.faults.slow_node(0, kSlowStartBucket * kBucket, kSlowEndBucket * kBucket, 2000);
  }
  return run_timeseries(backend, o, kBucket / kFine, kBuckets * kFine);
}

// The same series in the paper's 10 ms buckets.
std::vector<double> coarse(const std::vector<double>& fine) {
  std::vector<double> out(kBuckets, 0.0);
  for (std::size_t i = 0; i < fine.size(); ++i) out[i / kFine] += fine[i] / kFine;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ci;
  using namespace ci::bench;

  Flags flags;
  flags.backend = Backend::kRt;
  harness::parse_flags(argc, argv, {Flag::kBackend}, &flags);
  const Backend backend = flags.backend;

  header("E7: 1Paxos throughput with a slow leader (time series)",
         "paper Fig. 11 + §2.2's matching 2PC experiment",
         "5 clients, 3 replicas; leader slowed in [0.5s, 1.3s); 10 ms buckets");
  row("backend: %s", core::backend_name(backend));

  const std::vector<double> faulty_fine = run_series(backend, true);
  const std::vector<double> faulty = coarse(faulty_fine);
  const std::vector<double> baseline = coarse(run_series(backend, false));

  row("%10s %18s %18s", "time ms", "slow-leader op/s", "no-failure op/s");
  for (int i = 0; i < kBuckets; i += 2) {  // print every 20 ms
    row("%10d %18.0f %18.0f", i * 10, faulty[static_cast<std::size_t>(i)],
        baseline[static_cast<std::size_t>(i)]);
  }

  // Phase summary for the shape check.
  auto avg = [&](const std::vector<double>& v, int from, int to) {
    double s = 0;
    for (int i = from; i < to; ++i) s += v[static_cast<std::size_t>(i)];
    return s / (to - from);
  };
  const double pre = avg(faulty, 5, kSlowStartBucket);
  const double dip = avg(faulty, kSlowStartBucket, kSlowStartBucket + 10);
  const double in_fault = avg(faulty, kSlowStartBucket + 20, kSlowEndBucket);
  const double post = avg(faulty, kSlowEndBucket + 5, kBuckets - 2);
  const double flat = avg(baseline, 5, kBuckets - 2);
  const double lowest = *std::min_element(faulty_fine.begin() + kSlowStartBucket * kFine,
                                          faulty_fine.begin() + kSlowEndBucket * kFine);
  const auto [flat_lo, flat_hi] =
      std::minmax_element(baseline.begin() + 5, baseline.begin() + (kBuckets - 2));

  // Mirror the phase averages into the snapshot (the full series would
  // drown the diff; the phases ARE the shape the figure argues).
  BenchJson json("fig11_slow_leader");
  json.set_backend(backend);
  auto phase = [&](const std::string& label, double ops) {
    BenchRun r;
    r.throughput = ops;
    r.committed = static_cast<std::uint64_t>(ops);
    json.add(label, r);
  };
  phase("pre-fault", pre);
  phase("takeover-dip", dip);
  phase("in-fault", in_fault);
  phase("after-heal", post);
  phase("no-failure", flat);
  row("");
  row("pre-fault avg %.0f | takeover dip avg %.0f | post-takeover (leader still slow) %.0f |"
      " after heal %.0f op/s",
      pre, dip, in_fault, post);

  // The predicate (Fig. 11, §7.6): the leader change dips toward zero, the
  // new leader then carries the pre-fault load while the old one is still
  // slow, and nothing dips without the fault.
  constexpr double kDipMax = 0.10;
  constexpr double kRecoverMin = 0.80;
  constexpr double kFlatBand = 0.20;
  const bool dips = lowest <= kDipMax * pre;
  const bool recovers = in_fault >= kRecoverMin * pre;
  const bool stays_flat = *flat_lo >= (1 - kFlatBand) * flat && *flat_hi <= (1 + kFlatBand) * flat;
  row("");
  row("%-44s %-28s %s", "paper (Fig. 11)", "measured", "verdict");
  row("%-44s lowest 1 ms %7.1f%% %11s", "throughput drops to almost zero (<= 10%)",
      100 * lowest / pre, dips ? "ok" : "MISMATCH");
  row("%-44s %7.1f%% of pre-fault %5s", "recovers while the leader is slow (>= 80%)",
      100 * in_fault / pre, recovers ? "ok" : "MISMATCH");
  row("%-44s %5.1f%%..%5.1f%% of mean %s", "no-failure line is flat (within 20%)",
      100 * *flat_lo / flat, 100 * *flat_hi / flat, stays_flat ? "ok" : "MISMATCH");
  const bool holds = dips && recovers && stays_flat;
  row("Fig. 11 predicate: %s", holds ? "holds" : "FAILS");
  return holds ? 0 : 1;
}
