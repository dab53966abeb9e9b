// E8 — §2.2's motivating experiment: 2PC throughput when the coordinator
// core becomes slow.
//
// Same harness as E7 (Fig. 11) but running the blocking protocol. Expected
// shape (paper): "after Core 0 becomes slow, only a few requests can commit
// and the throughput drops to zero" — and it STAYS near zero until the core
// heals, because 2PC has no takeover.
#include <vector>

#include "support/bench_common.hpp"

namespace {

using namespace ci;
using namespace ci::bench;

constexpr Nanos kBucket = 10 * kMillisecond;
constexpr int kBuckets = 150;  // 1.5 s
constexpr int kSlowStartBucket = 40;
constexpr int kSlowEndBucket = 110;

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.backend = Backend::kRt;
  harness::parse_flags(argc, argv, {Flag::kBackend}, &flags);
  const Backend backend = flags.backend;

  header("E8: 2PC throughput with a slow coordinator (time series)",
         "paper §2.2 (in-text experiment)",
         "5 clients, 3 replicas; coordinator core slowed in [0.4s, 1.1s); 10 ms buckets");
  row("backend: %s", core::backend_name(backend));

  ClusterSpec o;
  o.apply_backend_profile(backend);
  o.protocol = Protocol::kTwoPc;
  o.num_clients = 5;
  o.workload.requests_per_client = 0;
  o.faults.slow_node(0, kSlowStartBucket * kBucket, kSlowEndBucket * kBucket, 2000);
  const std::vector<double> series = run_timeseries(backend, o, kBucket, kBuckets);

  row("%10s %18s", "time ms", "2PC op/s");
  for (int i = 0; i < kBuckets; i += 2) {
    row("%10d %18.0f", i * 10, series[static_cast<std::size_t>(i)]);
  }

  auto avg = [&](int from, int to) {
    double s = 0;
    for (int i = from; i < to; ++i) s += series[static_cast<std::size_t>(i)];
    return s / (to - from);
  };
  const double pre = avg(5, kSlowStartBucket);
  const double during = avg(kSlowStartBucket + 5, kSlowEndBucket);
  const double post = avg(kSlowEndBucket + 5, kBuckets - 2);
  row("");
  row("pre-fault avg %.0f | during-fault avg %.0f (%.1f%% of pre) | after heal %.0f op/s", pre,
      during, 100.0 * during / pre, post);
  row("Shape check (paper): throughput collapses for the WHOLE slow window");
  row("(no takeover exists in 2PC) and only recovers when the core heals —");
  row("contrast with Fig. 11 (E7), where 1Paxos replaces the leader.");
  return 0;
}
