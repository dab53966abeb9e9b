#include "client/closed_loop.hpp"

#include <algorithm>

#include "common/time.hpp"

namespace ci::client {

namespace {

// Latency of a locally-serviced read. ctx.now() is useless here — under the
// simulator virtual time is frozen for the whole callback, so the elapsed
// virtual time is always zero — and recording 0 poisoned the histogram's
// low percentiles. Measure the actual state-machine lookup on the wall
// clock instead, clamped to 1 ns so the sample is never zero.
template <typename Fn>
bool timed_local_read(const Fn& local_read, const Command& cmd, std::uint64_t* result,
                      Nanos* elapsed) {
  const Nanos begin = now_nanos();
  const bool hit = local_read(cmd, result);
  *elapsed = std::max<Nanos>(now_nanos() - begin, 1);
  return hit;
}

}  // namespace

ClosedLoopClient::ClosedLoopClient(const ClosedLoopConfig& cfg)
    : cfg_(cfg),
      engine_(cfg.engine),
      rng_(cfg.engine.base.seed + static_cast<std::uint64_t>(cfg.engine.base.self) * 104729) {
  round_.reserve(static_cast<std::size_t>(consensus::kMaxClientBatchCommands));
}

void ClosedLoopClient::start(Context& ctx) {
  if (cfg_.auto_start) {
    started_ = true;
    next_issue_at_ = ctx.now();
  }
}

void ClosedLoopClient::record_commit(Nanos latency, Nanos now) {
  latency_.record(latency);
  committed_.fetch_add(1, std::memory_order_relaxed);
  if (commit_series_ != nullptr) commit_series_->record(now);
}

void ClosedLoopClient::issue(Context& ctx) {
  // Rounds serviced wholly by local reads complete at once; keep issuing
  // (bounded, so one call cannot consume the whole quota in zero simulated
  // time) until a round actually reaches the network.
  for (int burst = 0; burst < kMaxLocalBurst; ++burst) {
    if (done()) return;
    const Nanos now = ctx.now();
    if (now < next_issue_at_) return;  // think time pending
    std::int32_t want = std::min(cfg_.round_size, consensus::kMaxClientBatchCommands);
    if (cfg_.total_requests != 0) {
      want = static_cast<std::int32_t>(
          std::min<std::uint64_t>(static_cast<std::uint64_t>(want),
                                  cfg_.total_requests - std::min(cfg_.total_requests, issued())));
    }
    round_.clear();
    for (std::int32_t i = 0; i < want; ++i) {
      const std::uint64_t n = issued_.fetch_add(1, std::memory_order_relaxed) + 1;
      Command cmd;
      cmd.op = rng_.next_double() < cfg_.read_fraction ? Op::kRead : Op::kWrite;
      cmd.key = static_cast<std::uint64_t>(cfg_.engine.base.self);
      cmd.value = n;
      if (cmd.op == Op::kRead && cfg_.local_read) {
        std::uint64_t result = 0;
        Nanos elapsed = 0;
        if (timed_local_read(cfg_.local_read, cmd, &result, &elapsed)) {
          // Serviced from the co-located replica without touching the network.
          local_reads_.fetch_add(1, std::memory_order_relaxed);
          record_commit(elapsed, now);
          continue;
        }
      }
      round_.push_back(cmd);
    }
    if (!round_.empty()) {
      // The engine stamps client and seq; launch puts the round on the wire
      // now, inside this event.
      engine_.submit_run(round_);
      engine_.launch(ctx);
      open_ = static_cast<std::int32_t>(round_.size());
      first_sent_ = now;
      return;
    }
    next_issue_at_ = now + cfg_.think_time;
    if (cfg_.think_time > 0) return;
  }
}

void ClosedLoopClient::on_message(Context& ctx, const Message& m) {
  switch (m.type) {
    case MsgType::kStart:
      if (!started_) {
        started_ = true;
        next_issue_at_ = ctx.now();
      }
      return;
    case MsgType::kStop:
      // No new rounds and no retries; replies to the open round still land.
      started_ = false;
      return;
    case MsgType::kClientReply: {
      if (!engine_.on_reply(ctx, m)) return;  // stale
      const Nanos now = ctx.now();
      record_commit(now - first_sent_, now);
      if (--open_ > 0) return;
      next_issue_at_ = now + cfg_.think_time;
      // True closed loop: with no think time the next round goes out as
      // part of handling the reply, not on the next timer tick.
      if (started_ && cfg_.think_time == 0) issue(ctx);
      return;
    }
    default:
      return;
  }
}

void ClosedLoopClient::tick(Context& ctx) {
  if (!started_) return;
  if (open_ > 0) {
    engine_.tick(ctx);  // the engine resends overdue commands (§7.6)
    return;
  }
  issue(ctx);
}

// tick() forwards to the engine while a round is open and issues the next
// round once its think time is over.
Nanos ClosedLoopClient::next_deadline(Nanos now) const {
  if (!started_) return kNoDeadline;
  if (open_ > 0) return engine_.next_deadline(now);
  return done() ? kNoDeadline : next_issue_at_;
}

}  // namespace ci::client
