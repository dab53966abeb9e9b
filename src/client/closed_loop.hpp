// The closed-loop load generator (paper §7.1): send a round, wait for every
// reply, optionally think, send the next. It generates and measures load
// only; the AsyncClientEngine it owns does all of the wire protocol — seq
// stamping, reply matching, leader-hint retargeting, the §7.6 retry to the
// next replica with the leader-suspect flag, and the kClientRequest-vs-
// kClientCmdBatch frame choice.
//
// A round is ClosedLoopConfig::round_size commands (1 = the classic
// one-request loop; N > 1 submits the round as one run, which the engine
// ships in one kClientCmdBatch frame, and completes it when every reply
// lands, each command recording its own latency). With no think time the
// next round goes out inside the event that delivered the last reply, not
// on the next timer tick.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "client/async_client.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "common/timeseries.hpp"

namespace ci::client {

struct ClosedLoopConfig {
  AsyncClientConfig engine;          // wire side
  std::int32_t round_size = 1;       // commands per round (capped at kMaxClientBatchCommands)
  Nanos think_time = 0;              // §7.4 uses 2 ms between requests
  double read_fraction = 0.0;        // §7.5 read workloads
  std::uint64_t total_requests = 0;  // 0 = run until kStop
  bool auto_start = false;           // otherwise waits for kStart

  // Joint deployments: called for read commands before going to the
  // network; returning true services the read from the co-located replica
  // (2PC-Joint local reads, §7.5).
  std::function<bool(const Command&, std::uint64_t*)> local_read;
};

class ClosedLoopClient final : public Engine {
 public:
  explicit ClosedLoopClient(const ClosedLoopConfig& cfg);

  void start(Context& ctx) override;
  void on_message(Context& ctx, const Message& m) override;
  void tick(Context& ctx) override;
  Nanos next_deadline(Nanos now) const override;
  NodeId believed_leader() const override { return engine_.believed_leader(); }

  // Counters are readable from other threads while the client runs (the
  // threaded harness polls them); relaxed atomics, monotonic.
  std::uint64_t committed() const { return committed_.load(std::memory_order_relaxed); }
  std::uint64_t issued() const { return issued_.load(std::memory_order_relaxed); }
  std::uint64_t local_reads() const { return local_reads_.load(std::memory_order_relaxed); }
  std::uint64_t retries() const { return engine_.retries(); }
  bool done() const { return cfg_.total_requests != 0 && committed() >= cfg_.total_requests; }

  // Commit latency distribution (closed-loop, per request).
  const Histogram& latency() const { return latency_; }

  // Optional: commit timestamps for throughput-over-time plots (Fig. 11).
  void set_commit_series(TimeSeries* ts) { commit_series_ = ts; }

 private:
  // Max rounds serviced wholly by local reads in one issue() call; bounds
  // the work done inside a single event when reads never touch the network.
  static constexpr int kMaxLocalBurst = 32;

  void issue(Context& ctx);
  void record_commit(Nanos latency, Nanos now);

  ClosedLoopConfig cfg_;
  AsyncClientEngine engine_;
  Rng rng_;
  bool started_ = false;
  Nanos first_sent_ = 0;
  Nanos next_issue_at_ = 0;
  std::vector<Command> round_;  // the round being built (reused)
  std::int32_t open_ = 0;       // round commands still awaiting a reply
  std::atomic<std::uint64_t> committed_{0};
  std::atomic<std::uint64_t> issued_{0};
  std::atomic<std::uint64_t> local_reads_{0};
  Histogram latency_;
  TimeSeries* commit_series_ = nullptr;
};

}  // namespace ci::client
