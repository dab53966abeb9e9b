// Backend sweep diff CLI (--sweep-diff made runnable): one spec, executed
// on every requested backend — the simulator, the real-thread runtime, and
// the TCP socket mesh by default — with the RunResults diffed automatically
// by SHAPE: consistency, quota completion, message amortization — never by
// wall-clock numbers (rt/net may be oversubscribed). Exits non-zero on any
// mismatch, so it doubles as a scriptable check.
//
// Positionals select the protocol (2pc|basic|multi|1paxos) and the backend
// list (sim|rt|net, in any order; default all three):
//
//   $ ./bench/sweep_diff [--batch=N] [--batch-flush-us=T]
//                        [--flush-policy=fixed|adaptive] [--groups=N]
//                        [--placement=...] [2pc|basic|multi|1paxos]
//                        [sim] [rt] [net]
#include <cstdio>
#include <cstring>
#include <vector>

#include "support/bench_common.hpp"

int main(int argc, char** argv) {
  using namespace ci;
  using namespace ci::bench;

  Flags flags;
  harness::parse_flags(argc, argv,
                       {Flag::kBatch, Flag::kBatchFlushUs, Flag::kFlushPolicy, Flag::kGroups,
                        Flag::kPlacement, Flag::kPositionals},
                       &flags);
  Protocol protocol = Protocol::kMultiPaxos;
  std::vector<harness::Backend> backends;
  for (const std::string& arg : flags.positionals) {
    harness::Backend b = harness::Backend::kSim;
    if (arg == "2pc") {
      protocol = Protocol::kTwoPc;
    } else if (arg == "basic") {
      protocol = Protocol::kBasicPaxos;
    } else if (arg == "multi") {
      protocol = Protocol::kMultiPaxos;
    } else if (arg == "1paxos") {
      protocol = Protocol::kOnePaxos;
    } else if (harness::parse_backend(arg.c_str(), &b)) {
      for (const harness::Backend seen : backends) {
        if (seen == b) {
          std::fprintf(stderr, "backend '%s' listed twice\n", arg.c_str());
          return 2;
        }
      }
      backends.push_back(b);
    } else {
      std::fprintf(stderr, "unknown positional '%s' (2pc|basic|multi|1paxos|sim|rt|net)\n",
                   arg.c_str());
      return 2;
    }
  }
  if (backends.empty()) {
    backends = {harness::Backend::kSim, harness::Backend::kRt, harness::Backend::kNet};
  }

  ClusterSpec o;
  o.protocol = protocol;
  o.num_replicas = 3;
  o.num_clients = 4;
  o.workload.requests_per_client = 100;
  o.engine.batch = flags.batch;
  o.seed = 29;
  const core::ShardSpec shard(o, flags.groups, flags.placement);

  harness::RunPlan plan;
  plan.duration = 20 * kSecond;  // the quota ends every run long before this
  plan.max_wall = 60 * kSecond;

  header("Backend sweep diff", "one spec, every requested runtime",
         "shapes must agree; absolute numbers are expected to differ");
  const harness::SweepDiffN d = harness::sweep_diff(backends, shard, plan);

  const auto mpo = [](const core::RunResult& r) {
    return r.committed > 0
               ? static_cast<double>(r.total_messages) / static_cast<double>(r.committed)
               : 0.0;
  };
  const auto bpo = [](const core::RunResult& r) {
    return r.committed > 0
               ? static_cast<double>(r.total_bytes) / static_cast<double>(r.committed)
               : 0.0;
  };
  row("%6s | %10s %10s %10s %12s | %s", "side", "committed", "msgs/op", "bytes/op",
      "op/s", "consistent");
  for (const harness::BackendRun& r : d.runs) {
    row("%6s | %10llu %10.2f %10.1f %12.0f | %s", core::backend_name(r.backend),
        static_cast<unsigned long long>(r.result.committed), mpo(r.result), bpo(r.result),
        r.result.throughput_ops(), r.result.consistent ? "yes" : "NO");
  }

  if (d.ok()) {
    row("shapes agree.");
    return 0;
  }
  for (const std::string& m : d.mismatches) row("MISMATCH: %s", m.c_str());
  return 1;
}
