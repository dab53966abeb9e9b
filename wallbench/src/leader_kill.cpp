// Leader-kill trials: a net::NetCluster with the workload's protocol and
// one closed-loop client, whose leader (replica 0) is fail-stopped after a
// warm-up. Each trial builds a fresh mesh.
//
// The leader-kill workload repeats trials until its measured time is used
// up, so set-up, failover and latency are medians or pools over trials.
// Every other workload runs kProbeTrials of them for its failover_ms (the
// service workloads have no fail-stop hook of their own, and rt none at
// all, so their failover is measured on the net mesh).
//
// The client's commit instants come from its commit TimeSeries at 250 ns
// resolution. With one request in flight and no think time, the gap
// between two consecutive commits is the later request's latency from
// issue; the longest gap after the kill is the failover: failure
// detection, PaxosUtility takeover and client retarget.
//
// Correctness, as in tests/net/net_fault_test.cpp: replicas agree
// instance by instance (RunResult::consistent), and every acked
// (client, seq) appears in the decided log.
#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "common/timeseries.hpp"
#include "net/net_cluster.hpp"
#include "stats.hpp"

namespace wallbench {
namespace {

using ci::Nanos;

constexpr int kMinTrials = 3;
// Trial shape: load before the kill, then time observed after it (well
// past fd_timeout and a lease). The workload's trials are long enough for
// ~1000 latency samples on each side of the kill; the probes only need the
// failover itself, so they are shorter and more numerous.
struct Shape {
  Nanos warm;
  Nanos after;
};
constexpr Shape kWorkloadTrial{300 * kMillisecond, 300 * kMillisecond};
constexpr Shape kProbeTrial{100 * kMillisecond, 150 * kMillisecond};
constexpr int kProbeTrials = 7;
// A mesh that has not committed this long after construction is abandoned
// and the trial retried (up to kAttempts); the commit series covers set-up,
// warm-up, the kill and the stop.
constexpr Nanos kFirstCommitCap = 500 * kMillisecond;
constexpr int kAttempts = 3;
constexpr Nanos kSeriesBucket = 250;
constexpr Nanos kSeriesSpan =
    kFirstCommitCap + kWorkloadTrial.warm + kWorkloadTrial.after + 300 * kMillisecond;

void sleep_until(Nanos t) {
  const Nanos spin = 200 * kMicrosecond;
  const Nanos now = now_nanos();
  if (t - now > spin) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now - spin));
  while (now_nanos() < t) {
  }
}

struct Trial {
  double setup_s = 0;
  double failover_ms = 0;
  double p50_us = 0, p99_us = 0, ops_s = 0;
  std::vector<double> latencies;  // ns, consecutive-commit gaps
  std::int64_t commits = 0;
  std::int64_t acked = 0;  // acks checked against the decided log
  Nanos window = 0;  // first commit .. shape.after past the kill
  std::uint64_t msgs = 0, bytes = 0;
  Nanos cpu = 0;
  double retries = 0;
  double leader_changes = 0;
};

// One trial. Returns false when the mesh did not commit within
// kFirstCommitCap; correctness failures go to rep->violation.
bool try_kill_trial(const WorkloadDef& w, Shape shape, std::uint64_t seed, std::uint64_t id,
                    Tracer* tracer, Report* rep, Trial* out) {
  ci::core::ClusterSpec spec;
  spec.apply_backend_profile(ci::core::Backend::kNet);
  spec.protocol = w.protocol;
  spec.num_replicas = 3;
  spec.num_clients = 1;
  spec.workload.requests_per_client = 0;  // run until stopped
  spec.seed = seed;
  configure_engine(w, &spec.engine);

  // The series is allocated (and zeroed) before set-up is timed.
  ci::TimeSeries series(now_nanos(), kSeriesBucket,
                        static_cast<std::size_t>(kSeriesSpan / kSeriesBucket));
  const Nanos t0 = now_nanos();
  auto c = std::make_unique<ci::net::NetCluster>(spec);
  c->client(0)->set_commit_series(&series);
  c->start();
  const Nanos t1 = now_nanos();
  while (c->live_committed() < 1) {
    if (now_nanos() - t0 > kFirstCommitCap) {
      c->stop();
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  const Nanos seen_first = now_nanos();
  const std::uint64_t msgs0 = c->live_messages(), bytes0 = c->live_bytes();
  const Nanos cpu0 = service_cpu_ns();

  const Nanos kill_at = seen_first + shape.warm;
  sleep_until(kill_at);
  const Nanos t_kill = now_nanos();
  c->kill_node(0);
  const Nanos t_end = t_kill + shape.after;
  sleep_until(t_end);
  out->msgs = c->live_messages() - msgs0;
  out->bytes = c->live_bytes() - bytes0;
  out->cpu = service_cpu_ns() - cpu0;
  c->stop();
  const ci::core::RunResult r = c->collect();

  // Correctness: agreement, and no acked command lost across the kill.
  if (!r.consistent) rep->violation("replicas disagree on a decided instance");
  std::set<std::pair<ci::consensus::NodeId, std::uint32_t>> decided;
  for (const ci::consensus::Command& cmd : c->deployment().recorder().decided_sequence()) {
    if (cmd.client != ci::consensus::kNoNode) decided.emplace(cmd.client, cmd.seq);
  }
  const ci::consensus::NodeId client_node = spec.num_replicas;
  const std::uint64_t acked = c->client(0)->committed();
  for (std::uint32_t s = 1; s <= acked; ++s) {
    if (decided.count({client_node, s}) == 0) {
      rep->violation("acked seq " + std::to_string(s) + " missing from the decided log");
    }
  }
  if (acked == 0) rep->violation("the client committed nothing");
  out->acked = static_cast<std::int64_t>(acked);
  out->retries = static_cast<double>(c->client(0)->retries());
  // Read once every node thread has joined: did the survivors move off the
  // initial leader (replica 0)?
  out->leader_changes = c->deployment().replica_engine(1)->believed_leader() != 0 ? 1 : 0;

  // Commit instants (the series is safe to read: every node thread joined).
  std::vector<Nanos> at;
  for (std::size_t i = 0; i < series.size(); ++i) {
    for (std::uint64_t n = 0; n < series.bucket(i); ++n) {
      at.push_back(series.origin() + static_cast<Nanos>(i) * kSeriesBucket);
    }
  }
  // The window runs from the first commit to shape.after past the kill; commits
  // that landed while the trial was being stopped are not in it.
  while (!at.empty() && at.back() > t_end) at.pop_back();
  const Nanos t_first = at.front();
  for (std::size_t i = 1; i < at.size(); ++i) {
    out->latencies.push_back(static_cast<double>(at[i] - at[i - 1]));
  }
  Nanos prev = t_kill, gap = 0, gap_from = t_kill, gap_to = t_end;
  for (const Nanos t : at) {
    if (t < t_kill) continue;
    if (t - prev > gap) {
      gap = t - prev;
      gap_from = prev;
      gap_to = t;
    }
    prev = t;
  }
  if (t_end - prev > gap) {
    rep->violation("no commit landed in the last " +
                   std::to_string((t_end - prev) / kMillisecond) + " ms after the kill");
    gap = t_end - prev;
  }
  out->failover_ms = static_cast<double>(gap) / 1e6;
  out->setup_s = static_cast<double>(t_first - t0) / 1e9;
  out->commits = static_cast<std::int64_t>(at.size());
  out->window = t_end - t_first;
  std::vector<double> lat = out->latencies;
  out->p50_us = percentile(lat, 0.50) / 1e3;
  out->p99_us = percentile(lat, 0.99) / 1e3;
  out->ops_s = static_cast<double>(out->commits) * 1e9 / static_cast<double>(out->window);

  tracer->record(SpanName::kSetupConstruct, SpanName::kNone, id, t0, t1);
  tracer->record(SpanName::kSetupFirstCommit, SpanName::kNone, id, t1, t_first);
  tracer->record(SpanName::kHarnessWait, SpanName::kNone, id, kill_at, t_kill);
  tracer->record(SpanName::kFaultGap, SpanName::kNone, id, gap_from, gap_to);
  return true;
}

bool kill_trial(const WorkloadDef& w, Shape shape, std::uint64_t seed, std::uint64_t id,
                Tracer* tracer, Report* rep, Trial* out) {
  for (int a = 0; a < kAttempts; ++a) {
    if (try_kill_trial(w, shape, seed + 100 * static_cast<std::uint64_t>(a), id, tracer, rep, out)) {
      return true;
    }
  }
  rep->invalid = "the net mesh did not commit within 0.5 s of construction, " +
                 std::to_string(kAttempts) + " times";
  return false;
}

}  // namespace

double failover_probe(const WorkloadDef& w, const Options& o, Report* rep) {
  Tracer off(false);
  std::vector<double> gaps;
  for (int k = 0; k < kProbeTrials; ++k) {
    Trial t;
    if (!kill_trial(w, kProbeTrial, o.seed * 1000 + static_cast<std::uint64_t>(k), 0, &off, rep, &t)) {
      return 0;
    }
    gaps.push_back(t.failover_ms);
  }
  return median(gaps);
}

void run_leader_kill(const WorkloadDef& w, const Options& o, Report* rep) {
  // Alternate trials are traced; their latency against the untraced
  // trials' is the tracing overhead.
  Tracer tracer(o.trace);
  Tracer off(false);
  std::vector<Trial> trials;
  std::vector<double> lat_all, lat_traced, lat_untraced;
  std::int64_t commits = 0;
  Nanos cpu = 0;
  std::uint64_t msgs = 0, bytes = 0;

  const Nanos budget_end = now_nanos() + static_cast<Nanos>(o.seconds) * kSecond;
  for (int k = 0; k < kMinTrials || now_nanos() < budget_end; ++k) {
    const bool traced = o.trace && k % 2 == 0;
    Trial t;
    if (!kill_trial(w, kWorkloadTrial, o.seed * 1000 + static_cast<std::uint64_t>(k),
                    static_cast<std::uint64_t>(k) + 1, traced ? &tracer : &off, rep, &t)) {
      return;
    }
    lat_all.insert(lat_all.end(), t.latencies.begin(), t.latencies.end());
    if (o.trace) {
      auto& dst = traced ? lat_traced : lat_untraced;
      dst.insert(dst.end(), t.latencies.begin(), t.latencies.end());
    }
    // Every acked op was checked against the decided log; the one request
    // still in flight when a trial stops is cut off, not failed.
    rep->attempted += t.acked;
    commits += t.commits;
    msgs += t.msgs;
    bytes += t.bytes;
    cpu += t.cpu;
    t.latencies.clear();
    trials.push_back(std::move(t));
  }

  // Every end-to-end figure is the median over trials.
  auto med = [&trials](double Trial::*field) {
    std::vector<double> v;
    for (const Trial& t : trials) v.push_back(t.*field);
    return median(v);
  };
  rep->e2e("setup_s", med(&Trial::setup_s), "s");
  rep->e2e("p50_us", med(&Trial::p50_us), "us");
  rep->e2e("p99_us", med(&Trial::p99_us), "us");
  rep->e2e("ops_s", med(&Trial::ops_s), "1/s");
  rep->e2e("failover_ms", med(&Trial::failover_ms), "ms");
  std::vector<double> fo;
  for (const Trial& t : trials) fo.push_back(t.failover_ms);
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%zu trials; failover quartile spread %.3f; %lld commits",
                trials.size(), quartile_spread(fo), static_cast<long long>(commits));
  rep->notes.push_back(buf);

  if (!o.trace) return;
  auto pct = [&tracer](SpanName n, double q, double scale) {
    std::vector<double> d = tracer.durations(n);
    return percentile(d, q) / scale;
  };
  const double ops = static_cast<double>(std::max<std::int64_t>(commits, 1));
  std::vector<double> lat = lat_all;
  rep->layer("harness.lateness_us.p50", pct(SpanName::kHarnessWait, 0.50, 1e3), "us");
  rep->layer("harness.lateness_us.p99", pct(SpanName::kHarnessWait, 0.99, 1e3), "us");
  rep->layer("client.rtt_us.p50", percentile(lat, 0.50) / 1e3, "us");
  rep->layer("client.rtt_us.p99", percentile(lat, 0.99) / 1e3, "us");
  rep->layer("client.retries", med(&Trial::retries), "count");
  rep->layer("consensus.msgs_per_op", static_cast<double>(msgs) / ops, "msg/op");
  rep->layer("consensus.bytes_per_op", static_cast<double>(bytes) / ops, "B/op");
  rep->layer("core.leader_changes", med(&Trial::leader_changes), "count");
  rep->layer("net.bytes_per_msg", msgs > 0 ? static_cast<double>(bytes) / static_cast<double>(msgs) : 0.0,
             "B/msg");
  rep->layer("proc.cpu_us_per_op", static_cast<double>(cpu) / 1e3 / ops, "us");
  rep->layer("setup.construct_ms", pct(SpanName::kSetupConstruct, 0.50, 1e6), "ms");
  rep->layer("setup.first_commit_ms", pct(SpanName::kSetupFirstCommit, 0.50, 1e6), "ms");
  rep->layer("trace.overhead_us",
             (percentile(lat_traced, 0.50) - percentile(lat_untraced, 0.50)) / 1e3, "us");
  if (!o.trace_out.empty() && !tracer.write_csv(o.trace_out)) {
    rep->notes.push_back("could not write spans to " + o.trace_out);
  }
}

}  // namespace wallbench
