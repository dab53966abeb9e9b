// Shared helpers for the experiment-reproduction benches: table printing and
// canonical measurement-window runs over the backend-agnostic harness.
//
// Every binary in bench/ regenerates one table or figure from the paper's
// evaluation (see DESIGN.md §3 for the index) and prints the same rows or
// series the paper reports. Absolute numbers reflect this machine and the
// simulator's cost model; DESIGN.md §3 records the expected *shapes*.
//
// Every bench parses its command line with one harness::parse_flags call
// naming the flags it reads (harness/flags.hpp): `--help` lists them and
// exits 0, any other flag exits 2. Benches that run on more than one
// runtime read `--backend={sim,rt,net}` and run the same ClusterSpec on
// whichever was chosen.
#pragma once

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/timeseries.hpp"
#include "core/cluster_spec.hpp"
#include "core/run_result.hpp"
#include "core/threaded_cluster.hpp"
#include "harness/cluster_harness.hpp"
#include "harness/flags.hpp"
#include "sim/sim_cluster.hpp"

namespace ci::bench {

using core::Backend;
using core::ClusterSpec;
using core::LatencyModel;
using core::Protocol;
using core::TimeoutProfile;
using harness::Flag;
using harness::Flags;
using harness::RunPlan;
using sim::SimCluster;

inline void header(const char* experiment, const char* paper_ref, const char* what) {
  std::printf("==============================================================\n");
  std::printf("%s  (%s)\n%s\n", experiment, paper_ref, what);
  std::printf("==============================================================\n");
}

inline void row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
  std::fflush(stdout);
}

// Digest of one measured run, in the units the tables print.
struct BenchRun {
  double throughput = 0;  // committed ops/s over the measure window
  double mean_latency_us = 0;
  double p50_latency_us = 0;
  double p99_latency_us = 0;
  double p999_latency_us = 0;
  std::uint64_t committed = 0;
  std::uint64_t messages = 0;  // boundary crossings during the window
  std::uint64_t bytes = 0;     // encoded wire frame bytes behind them
  bool consistent = true;

  double msgs_per_op() const {
    return committed > 0 ? static_cast<double>(messages) / static_cast<double>(committed)
                         : 0.0;
  }
  double bytes_per_op() const {
    return committed > 0 ? static_cast<double>(bytes) / static_cast<double>(committed)
                         : 0.0;
  }
};

// Runs a (possibly sharded) spec on the chosen backend with a warmup,
// measuring commits over `window`, merged across groups. Latency
// histograms span the whole run (they did before the refactor too: warmup
// samples are indistinguishable without faults).
inline BenchRun run_cluster(Backend backend, const core::ShardSpec& shard, Nanos warmup,
                            Nanos window) {
  RunPlan plan;
  plan.warmup = warmup;
  plan.duration = window;
  const core::RunResult r = harness::run(backend, shard, plan);
  BenchRun out;
  out.committed = r.committed;
  out.messages = r.total_messages;
  out.bytes = r.total_bytes;
  out.throughput = r.throughput_ops();
  out.mean_latency_us = r.latency.mean() / 1e3;
  out.p50_latency_us = static_cast<double>(r.latency.percentile(0.5)) / 1e3;
  out.p99_latency_us = static_cast<double>(r.latency.percentile(0.99)) / 1e3;
  out.p999_latency_us = static_cast<double>(r.latency.percentile(0.999)) / 1e3;
  out.consistent = r.consistent;
  return out;
}

// Fills a BenchRun's latency columns from a bench-recorded histogram (for
// benches that measure their own windows instead of going through
// run_cluster).
inline void fill_latency(BenchRun* out, const Histogram& h) {
  out->mean_latency_us = h.mean() / 1e3;
  out->p50_latency_us = static_cast<double>(h.percentile(0.5)) / 1e3;
  out->p99_latency_us = static_cast<double>(h.percentile(0.99)) / 1e3;
  out->p999_latency_us = static_cast<double>(h.percentile(0.999)) / 1e3;
}

inline BenchRun run_cluster(Backend backend, const ClusterSpec& spec, Nanos warmup,
                            Nanos window) {
  return run_cluster(backend, core::ShardSpec(spec), warmup, window);
}

// Sim-only sweeps (LAN models, 47-node joints) keep the explicit name.
inline BenchRun run_sim(const ClusterSpec& spec, Nanos warmup, Nanos window) {
  return run_cluster(Backend::kSim, spec, warmup, window);
}

// Machine-readable perf trajectory: every bench can mirror its printed
// rows into BENCH_<name>.json (one object per row: label, op/s, msgs/op,
// bytes/op, latencies) so sizes and amortization are diffable across PRs
// instead of living only in scrollback. Written on destruction, to the
// working directory.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  // Stamps every subsequent row with the backend that produced it, so the
  // diff tool never cross-compares sim numbers against rt/net numbers even
  // when the row labels collide. Call once, right after parsing --backend.
  void set_backend(Backend b) { backend_ = core::backend_name(b); }

  void add(const std::string& label, const BenchRun& r) {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"label\": \"%s\", \"backend\": \"%s\", \"ops_per_sec\": %.1f, "
                  "\"msgs_per_op\": %.3f, "
                  "\"bytes_per_op\": %.1f, \"committed\": %llu, \"p50_us\": %.1f, "
                  "\"p99_us\": %.1f, \"p999_us\": %.1f, \"consistent\": %s}",
                  label.c_str(), backend_.c_str(), r.throughput, r.msgs_per_op(),
                  r.bytes_per_op(),
                  static_cast<unsigned long long>(r.committed), r.p50_latency_us,
                  r.p99_latency_us, r.p999_latency_us, r.consistent ? "true" : "false");
    rows_.emplace_back(buf);
  }

  ~BenchJson() {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;  // read-only cwd: the table already printed
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"sizeof_message\": %zu,\n  \"rows\": [\n",
                 name_.c_str(), sizeof(ci::consensus::Message));
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s%s\n", rows_[i].c_str(), i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  std::string name_;
  std::string backend_ = "sim";  // the historical default; see set_backend
  std::vector<std::string> rows_;
};

// LAN-regime cost model plus the lan() timeout profile (prop 135 us needs
// millisecond timers and a pipeline deep enough for the bandwidth-delay
// product — the paper's LAN deployments were not window-limited).
inline void apply_lan_timeouts(ClusterSpec& o) {
  o.sim.model = LatencyModel::lan();
  o.apply(TimeoutProfile::lan());
}

inline const char* pname(Protocol p) { return core::protocol_name(p); }

// Time-series run for the slow-core experiments (Fig. 11 / §2.2): runs the
// spec — including its FaultPlan — for `buckets * bucket` and returns the
// merged per-bucket commit rate across all clients. Works on any backend:
// virtual time under sim, wall time under rt and net.
inline std::vector<double> run_timeseries(Backend backend, const ClusterSpec& spec,
                                          Nanos bucket, int buckets) {
  const Nanos total = bucket * buckets;
  const int C = spec.client_count();
  std::vector<TimeSeries> per_client;
  per_client.reserve(static_cast<std::size_t>(C));

  if (backend == Backend::kSim) {
    sim::SimCluster c(spec);
    for (int i = 0; i < C; ++i) per_client.emplace_back(0, bucket, static_cast<std::size_t>(buckets));
    for (int i = 0; i < C; ++i) c.client(i)->set_commit_series(&per_client[static_cast<std::size_t>(i)]);
    c.run(total);
  } else {
    core::ThreadedCluster c(backend, spec);
    const Nanos origin = now_nanos();
    for (int i = 0; i < C; ++i) per_client.emplace_back(origin, bucket, static_cast<std::size_t>(buckets));
    for (int i = 0; i < C; ++i) c.client(i)->set_commit_series(&per_client[static_cast<std::size_t>(i)]);
    c.start();
    c.drive_until(origin + total);
    c.stop();
  }

  TimeSeries merged(per_client[0].origin(), bucket, static_cast<std::size_t>(buckets));
  for (const auto& ts : per_client) merged.merge(ts);
  std::vector<double> rates;
  rates.reserve(static_cast<std::size_t>(buckets));
  for (std::size_t i = 0; i < merged.size(); ++i) rates.push_back(merged.rate(i));
  return rates;
}

}  // namespace ci::bench
