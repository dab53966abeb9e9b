// Service workloads: one client::ServiceClient on the net or rt backend,
// driven through one Session (one conduit carrying 1000 logical sessions)
// by a single load thread.
//
// Open loop: arrivals come from harness::ArrivalGen at a fixed rate; the
// load thread spins on the monotonic clock to each scheduled instant, as
// harness::run_open_loop does, and latency runs from the scheduled instant
// to SubmitHandle::completed_at(). Closed loop: `depth` ops stay in flight;
// latency runs from issue to completed_at().
//
// Unlike harness::run_open_loop the load thread never blocks without a
// deadline: it keeps at most AsyncClientEngine::kMaxOutstanding ops live,
// so Session::submit never waits for room inside the library, and every
// wait it does itself ends at the run's deadline. An op still unacknowledged
// when the drain deadline passes counts as failed.
#include <sched.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "client/service_client.hpp"
#include "common/affinity.hpp"
#include "stats.hpp"

namespace wallbench {
namespace {

using ci::Nanos;
using ci::client::ServiceClient;
using ci::client::Session;
using ci::client::SubmitHandle;
using ci::consensus::Op;
using ci::harness::Arrival;
using ci::harness::WlOp;

constexpr int kSetupTrials = 11;
// Set-up trials are spaced out so that one host stall, which can last tens
// of milliseconds, lands in a minority of them rather than in all.
constexpr Nanos kSetupSpacing = 40 * kMillisecond;
constexpr Nanos kFirstCommitCap = 10 * kSecond;
constexpr Nanos kWarmup = 500 * kMillisecond;
constexpr Nanos kDrainCap = 2 * kSecond;
// Traced runs alternate traced and untraced windows of this length; the
// difference of their p50 latencies is the reported tracing overhead.
constexpr Nanos kTraceWindow = 200 * kMillisecond;
constexpr Nanos kStatWindow = 1 * kSecond;
constexpr Nanos kLeaderSample = 5 * kMillisecond;
// An open-loop run in which the generator itself (not the service holding
// the pipeline full) issued more than kGeneratorLateShare of its ops over
// kGeneratorLagLimit late measured the generator, not the system: it is void.
constexpr Nanos kGeneratorLagLimit = 1 * kMillisecond;
constexpr double kGeneratorLateShare = 0.05;
constexpr std::int32_t kPipeline = ci::client::AsyncClientEngine::kMaxOutstanding;
constexpr std::size_t kRing = 4096;  // live ops <= kPipeline; the rest are reaped
constexpr std::size_t kTraceCapacity = std::size_t{1} << 20;
// Latency samples kept per run. Every buffer the load thread fills while it
// measures is sized before the window opens: growing one would stall the
// load thread for a copy in the middle of the measurement. Ops are sampled 1 in
// sample_stride_ (by op id) so the expected count fits; the closed loop is
// sized for kClosedRateCeiling ops per second.
constexpr std::size_t kMaxSamples = std::size_t{1} << 21;
constexpr double kClosedRateCeiling = 1.5e6;
constexpr std::uint32_t kStallFactor = 2000001;  // ~1 s sleep per node loop pass

ServiceClient::Options service_options(const WorkloadDef& w, std::uint64_t seed) {
  ServiceClient::Options so;
  so.backend = w.backend;
  so.num_sessions = 1;
  so.spec.protocol = w.protocol;
  so.spec.num_replicas = 3;
  so.spec.seed = seed;
  configure_engine(w, &so.spec.engine);
  return so;
}

struct Sample {
  double latency = 0;       // ns
  std::uint32_t window = 0;  // stat window of the op's start
  bool traced_window = false;
};

struct Flight {
  SubmitHandle h;
  std::uint64_t id = 0;
  std::uint64_t key = 0;
  Nanos scheduled = 0;  // open: arrival instant; closed: when its slot freed
  Nanos issued = 0;     // the load thread reached the op (client.submit starts)
  Nanos submitted = 0;  // Session::submit returned (traced windows only)
  bool write = false;
  bool measured = false;
  bool traced_window = false;
  bool traced = false;
  bool reaped = false;
};

class LoadRun {
 public:
  LoadRun(const WorkloadDef& w, const Options& o, Report* rep)
      : w_(w), o_(o), rep_(rep), open_(w.loop == Loop::kOpen),
        tracer_(o.trace, kTraceCapacity), gen_(profile_for(w, o.seed)), ring_(kRing) {}

  void run() {
    if (!setup()) return;
    drive();
    drain();
    // The service has no fail-stop hook: failover is measured by leader-kill
    // trials of the same protocol configuration on the net mesh.
    failover_ms_ = failover_probe(w_, o_, rep_);
    if (!rep_->invalid.empty()) return;
    report();
  }

 private:
  // Builds the service kSetupTrials times; each trial is timed from
  // construction to the reply of its first write. The last one serves the
  // run.
  bool setup() {
    for (int k = 0; k < kSetupTrials; ++k) {
      if (svc_ != nullptr) {
        svc_.reset();
        std::this_thread::sleep_for(std::chrono::nanoseconds(kSetupSpacing));
      }
      const std::uint64_t id = next_id_++;
      const Nanos t0 = now_nanos();
      svc_opts_ = service_options(w_, o_.seed + k);
      svc_ = std::make_unique<ServiceClient>(svc_opts_);
      const Nanos t1 = now_nanos();
      SubmitHandle h = svc_->session(0).submit(Op::kWrite, 0, writes_.next_value(0));
      while (!h.done()) {
        if (now_nanos() - t1 > kFirstCommitCap) {
          rep_->invalid = "the service did not commit its first write within 10 s";
          h = SubmitHandle();
          svc_.reset();
          return false;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      check(0, h.wait(), "first write");
      const Nanos t2 = h.completed_at();
      setup_s_.push_back(static_cast<double>(t2 - t0) / 1e9);
      construct_ms_.push_back(static_cast<double>(t1 - t0) / 1e6);
      first_commit_ms_.push_back(static_cast<double>(t2 - t1) / 1e6);
      tracer_.record(SpanName::kSetupConstruct, SpanName::kNone, id, t0, t1);
      tracer_.record(SpanName::kSetupFirstCommit, SpanName::kNone, id, t1, t2);
    }
    return true;
  }

  void drive() {
    Session& s = svc_->session(0);
    origin_ = now_nanos();
    m_start_ = origin_ + kWarmup;
    m_end_ = m_start_ + static_cast<Nanos>(o_.seconds) * kSecond;
    windows_ = static_cast<std::size_t>(o_.seconds);
    done_window_.assign(windows_, 0);
    leader_ = svc_->believed_leader(0);
    const double expected_ops =
        (open_ ? w_.rate : kClosedRateCeiling) * static_cast<double>(o_.seconds);
    sample_stride_ = static_cast<std::uint64_t>(expected_ops / static_cast<double>(kMaxSamples)) + 1;
    samples_.reserve(kMaxSamples);
    if (open_) generator_lag_.reserve(static_cast<std::size_t>(expected_ops * 1.1) + 1024);
    // Spans: ~4 per traced op, half the windows traced.
    trace_stride_ = static_cast<std::uint64_t>(expected_ops * 2.0 / static_cast<double>(kTraceCapacity)) + 1;

    // On rt every node thread is pinned (node n to core n mod cores), so the
    // load thread would time-share some node's core at the scheduler's whim;
    // pin it beside the session node it feeds, and yield when idle. The
    // load thread's affinity comes back once the window closes.
    cpu_set_t affinity;
    const bool pin = !open_ && w_.backend == ci::core::Backend::kRt && svc_opts_.spec.rt.pin &&
                     ci::pinning_available() &&
                     sched_getaffinity(0, sizeof(affinity), &affinity) == 0;
    if (pin) ci::pin_to_core(svc_opts_.spec.num_replicas % ci::online_cores());
    Nanos t = now_nanos();
    if (open_) {
      Arrival a = gen_.next();
      for (;;) {
        const Nanos sched = origin_ + a.at;
        if (sched >= m_end_) break;
        while (t < sched) t = now_nanos();
        tick(t);
        reap(/*full_scan=*/false);
        if (!room(&t)) break;
        issue(s, a, sched, t);
        a = gen_.next();
      }
    } else {
      while (t < m_end_) {
        tick(t);
        const int reaped = reap(/*full_scan=*/false);
        bool issued = false;
        while (live_ < w_.depth && size_ < kRing && t < m_end_) {
          Nanos sched = t;
          if (!freed_at_.empty()) {
            sched = std::min(freed_at_.front(), t);
            freed_at_.pop_front();
          }
          issue(s, gen_.next(), sched, t);
          issued = true;
          t = now_nanos();
        }
        if (reaped == 0 && !issued) std::this_thread::yield();
        t = now_nanos();
      }
    }
    end_measure();
    if (pin) sched_setaffinity(0, sizeof(affinity), &affinity);
  }

  // Per-iteration bookkeeping: start the measured window, sample the
  // believed leader.
  void tick(Nanos t) {
    if (!measuring_ && t >= m_start_) begin_measure();
    if (t >= next_leader_sample_) {
      const auto l = svc_->believed_leader(0);
      if (l != leader_) {
        ++leader_changes_;
        leader_ = l;
      }
      next_leader_sample_ = t + kLeaderSample;
    }
  }

  void begin_measure() {
    measuring_ = true;
    cpu0_ = service_cpu_ns();
    msgs0_ = svc_->total_messages();
    bytes0_ = svc_->total_bytes();
    if (o_.inject_stall) {
      for (ci::consensus::NodeId r = 0; r < svc_->num_replicas(); ++r) {
        svc_->throttle_replica(r, kStallFactor);
      }
    }
  }

  void end_measure() {
    if (!measuring_) begin_measure();
    cpu1_ = service_cpu_ns();
    msgs1_ = svc_->total_messages();
    bytes1_ = svc_->total_bytes();
  }

  // Open loop: with kPipeline ops live, wait (reaping out of order) until
  // one completes. Gives up, and stops the run's issuing, at the end of
  // the measured window.
  bool room(Nanos* t) {
    if (live_ < kPipeline && size_ < kRing) return true;
    while (live_ >= kPipeline || size_ >= kRing) {
      if (*t >= m_end_) return false;
      std::this_thread::yield();
      reap(/*full_scan=*/true);
      *t = now_nanos();
    }
    last_room_end_ = *t;
    return true;
  }

  void issue(Session& s, const Arrival& a, Nanos sched, Nanos t) {
    CI_CHECK_MSG(a.op == WlOp::kRead || a.op == WlOp::kUpdate,
                 "wallbench workloads issue single-record reads and updates only");
    Flight& f = ring_[(head_ + size_) % kRing];
    ++size_;
    ++live_;
    f.id = next_id_++;
    f.key = a.key;
    f.write = a.op == WlOp::kUpdate;
    f.scheduled = sched;
    f.issued = t;
    f.reaped = false;
    f.measured = measuring_ && (open_ ? sched >= m_start_ : t >= m_start_);
    f.traced_window = tracer_.enabled() && ((t - origin_) / kTraceWindow) % 2 == 0;
    f.traced = f.traced_window && f.measured && f.id % trace_stride_ == 0;
    if (f.measured && open_ && generator_lag_.size() < generator_lag_.capacity()) {
      // The generator's own lag: how late it reached the op, not counting
      // time the service held it back by keeping the pipeline full.
      generator_lag_.push_back(static_cast<double>(t - std::max(sched, last_room_end_)));
    }
    const std::uint64_t value = f.write ? writes_.next_value(a.key) : 0;
    f.h = s.submit(f.write ? Op::kWrite : Op::kRead, a.key, value);
    if (f.traced_window) f.submitted = now_nanos();
    ++rep_->attempted;
  }

  // Completes finished ops: in issue order until the first unfinished one,
  // or (full_scan) every finished op. Returns how many completed.
  int reap(bool full_scan) {
    int reaped = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      Flight& f = ring_[(head_ + i) % kRing];
      if (f.reaped) continue;
      if (!f.h.done()) {
        if (!full_scan) break;
        continue;
      }
      complete(f);
      f.h = SubmitHandle();
      f.reaped = true;
      --live_;
      ++reaped;
    }
    while (size_ > 0 && ring_[head_].reaped) {
      head_ = (head_ + 1) % kRing;
      --size_;
    }
    return reaped;
  }

  void check(std::uint64_t key, std::uint64_t result, const char* what) {
    if (!writes_.plausible(key, result)) {
      rep_->violation(std::string(what) + " on key " + std::to_string(key) + " returned " +
                      std::to_string(result) + ", which no write to that key carried");
    }
  }

  void complete(Flight& f) {
    check(f.key, f.h.wait(), f.write ? "write" : "read");
    const Nanos done_at = f.h.completed_at();
    if (done_at >= m_start_ && done_at < m_end_) {
      ++done_window_[static_cast<std::size_t>((done_at - m_start_) / kStatWindow)];
      ++window_completions_;
    }
    if (!open_) freed_at_.push_back(done_at);
    if (!f.measured) return;
    if (done_at - f.issued > svc_opts_.spec.workload.request_timeout) ++slow_ops_;
    const Nanos from = open_ ? f.scheduled : f.issued;
    if (f.id % sample_stride_ == 0 && samples_.size() < kMaxSamples) {
      const std::size_t win = std::min(
          windows_ - 1, static_cast<std::size_t>(std::max<Nanos>(from - m_start_, 0) / kStatWindow));
      samples_.push_back(
          {static_cast<double>(done_at - from), static_cast<std::uint32_t>(win), f.traced_window});
    }
    if (f.traced) {
      tracer_.record(SpanName::kWlOp, SpanName::kNone, f.id, f.scheduled, done_at);
      tracer_.record(SpanName::kHarnessWait, SpanName::kWlOp, f.id, f.scheduled, f.issued);
      tracer_.record(SpanName::kClientSubmit, SpanName::kWlOp, f.id, f.issued, f.submitted);
      tracer_.record(SpanName::kClientRtt, SpanName::kWlOp, f.id, f.submitted, done_at);
    }
  }

  void drain() {
    const Nanos deadline = now_nanos() + kDrainCap;
    while (live_ > 0 && now_nanos() < deadline) {
      if (reap(/*full_scan=*/true) == 0) std::this_thread::yield();
    }
    rep_->failed = live_;
    for (std::size_t i = 0; i < size_; ++i) ring_[(head_ + i) % kRing].h = SubmitHandle();
    // A throttled node sleeps per frame it handles, so lift the injected
    // stall before teardown: stopping must not wait out its backlog.
    if (o_.inject_stall) {
      for (ci::consensus::NodeId r = 0; r < svc_->num_replicas(); ++r) svc_->throttle_replica(r, 1);
    }
    svc_.reset();
  }

  void report() {
    Report& r = *rep_;
    const double ops = static_cast<double>(std::max<std::int64_t>(window_completions_, 1));

    // Per-second p99 and throughput, reported as medians over the run's
    // seconds: one host hiccup moves one second, not the result.
    std::vector<std::vector<double>> by_window(windows_);
    std::vector<double> all, traced, untraced;
    all.reserve(samples_.size());
    for (const Sample& x : samples_) {
      by_window[x.window].push_back(x.latency);
      all.push_back(x.latency);
      (x.traced_window ? traced : untraced).push_back(x.latency);
    }
    std::vector<double> p99s, rates;
    for (std::size_t w = 0; w < windows_; ++w) {
      if (!by_window[w].empty()) p99s.push_back(percentile(by_window[w], 0.99) / 1e3);
      rates.push_back(static_cast<double>(done_window_[w]) * static_cast<double>(kSecond) /
                      static_cast<double>(kStatWindow));
    }
    const double p50 = percentile(all, 0.50) / 1e3;
    const double p99_run = percentile(all, 0.99) / 1e3;
    r.e2e("setup_s", median(setup_s_), "s");
    r.e2e("p50_us", p50, "us");
    r.e2e("p99_us", median(p99s), "us");
    r.e2e("ops_s", median(rates), "1/s");
    r.e2e("failover_ms", failover_ms_, "ms");

    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "error_frac %.6g (%lld of %lld ops unacknowledged); %zu latency samples (1 in %llu ops)",
                  r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0.0,
                  static_cast<long long>(r.failed), static_cast<long long>(r.attempted),
                  samples_.size(), static_cast<unsigned long long>(sample_stride_));
    r.notes.push_back(buf);
    std::snprintf(buf, sizeof(buf),
                  "whole-run p99 %.6g us; per-second p99 quartile spread %.3f, ops/s spread %.3f",
                  p99_run, quartile_spread(p99s), quartile_spread(rates));
    r.notes.push_back(buf);

    if (open_) {
      std::vector<double> lag = generator_lag_;
      const std::size_t late = static_cast<std::size_t>(std::count_if(
          lag.begin(), lag.end(), [](double l) { return l > static_cast<double>(kGeneratorLagLimit); }));
      const double late_frac = lag.empty() ? 0.0 : static_cast<double>(late) / static_cast<double>(lag.size());
      std::snprintf(buf, sizeof(buf), "generator lag p50 %.6g us, p99 %.6g us; %.4f of ops over %lld us late",
                    percentile(lag, 0.50) / 1e3, percentile(lag, 0.99) / 1e3, late_frac,
                    static_cast<long long>(kGeneratorLagLimit / kMicrosecond));
      r.notes.push_back(buf);
      if (late_frac > kGeneratorLateShare) {
        r.invalid = "the load generator fell behind its schedule (" + std::string(buf) + ")";
      }
    }
    if (!tracer_.enabled()) return;
    auto pct = [this](SpanName n, double q, double scale) {
      std::vector<double> d = tracer_.durations(n);
      return percentile(d, q) / scale;
    };
    r.layer("harness.lateness_us.p50", pct(SpanName::kHarnessWait, 0.50, 1e3), "us");
    r.layer("harness.lateness_us.p99", pct(SpanName::kHarnessWait, 0.99, 1e3), "us");
    r.layer("client.submit_ns.p50", pct(SpanName::kClientSubmit, 0.50, 1.0), "ns");
    r.layer("client.submit_ns.p99", pct(SpanName::kClientSubmit, 0.99, 1.0), "ns");
    r.layer("client.rtt_us.p50", pct(SpanName::kClientRtt, 0.50, 1e3), "us");
    r.layer("client.rtt_us.p99", pct(SpanName::kClientRtt, 0.99, 1e3), "us");
    r.layer("client.retries", static_cast<double>(slow_ops_), "count");
    const double msgs = static_cast<double>(msgs1_ - msgs0_);
    const double bytes = static_cast<double>(bytes1_ - bytes0_);
    r.layer("consensus.msgs_per_op", msgs / ops, "msg/op");
    r.layer("consensus.bytes_per_op", bytes / ops, "B/op");
    r.layer("core.leader_changes", static_cast<double>(leader_changes_), "count");
    r.layer("net.bytes_per_msg", msgs > 0 ? bytes / msgs : 0.0, "B/msg");
    r.layer("proc.cpu_us_per_op", static_cast<double>(cpu1_ - cpu0_) / 1e3 / ops, "us");
    r.layer("setup.construct_ms", median(construct_ms_), "ms");
    r.layer("setup.first_commit_ms", median(first_commit_ms_), "ms");
    r.layer("trace.overhead_us",
            (percentile(traced, 0.50) - percentile(untraced, 0.50)) / 1e3, "us");
    std::snprintf(buf, sizeof(buf), "trace: %zu spans kept, %llu dropped, 1 in %llu ops sampled",
                  tracer_.size(), static_cast<unsigned long long>(tracer_.dropped()),
                  static_cast<unsigned long long>(trace_stride_));
    r.notes.push_back(buf);
    if (!o_.trace_out.empty() && !tracer_.write_csv(o_.trace_out)) {
      r.notes.push_back("could not write spans to " + o_.trace_out);
    }
  }

  const WorkloadDef& w_;
  const Options& o_;
  Report* rep_;
  const bool open_;
  Tracer tracer_;
  ci::harness::ArrivalGen gen_;
  WriteLog writes_;
  ServiceClient::Options svc_opts_;
  std::unique_ptr<ServiceClient> svc_;

  std::vector<Flight> ring_;
  std::size_t head_ = 0, size_ = 0;
  std::int32_t live_ = 0;
  std::deque<Nanos> freed_at_;  // closed loop: completion instants not yet reused
  std::uint64_t next_id_ = 1;
  std::uint64_t trace_stride_ = 1;

  Nanos origin_ = 0, m_start_ = 0, m_end_ = 0, last_room_end_ = 0;
  bool measuring_ = false;
  Nanos next_leader_sample_ = 0;
  ci::consensus::NodeId leader_ = ci::consensus::kNoNode;
  std::int64_t leader_changes_ = 0;
  Nanos cpu0_ = 0, cpu1_ = 0;
  std::uint64_t msgs0_ = 0, msgs1_ = 0, bytes0_ = 0, bytes1_ = 0;

  std::vector<double> setup_s_, construct_ms_, first_commit_ms_;
  std::size_t windows_ = 1;
  std::uint64_t sample_stride_ = 1;
  std::vector<Sample> samples_;
  std::vector<double> generator_lag_;
  std::vector<std::int64_t> done_window_;  // completions per stat window
  std::int64_t window_completions_ = 0;
  std::int64_t slow_ops_ = 0;
  double failover_ms_ = 0;
};

}  // namespace

void run_service(const WorkloadDef& w, const Options& o, Report* rep) {
  LoadRun run(w, o, rep);
  run.run();
}

}  // namespace wallbench
