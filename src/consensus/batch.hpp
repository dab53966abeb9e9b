// Leader-side request batching: the knob, the value type, and the
// accumulator.
//
// Batching changes the unit of agreement from one client command to an
// ordered run of commands (a Batch): the leader packs pending requests into
// one instance, acceptors accept / learn the run as a single value, and the
// execution path fans the run back out — every command is applied, delivered
// and acked individually, in batch order. This amortizes the per-message
// leader cost that dominates throughput on a many-core (paper §3: cores
// process events serially, so saturation emerges from message counts).
//
// The degenerate policy (max_commands == 1, the default) produces only
// single-command batches: every instance decides a run of one, the classic
// one-command-per-instance regime.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/check.hpp"
#include "common/time.hpp"
#include "consensus/types.hpp"

namespace ci::consensus {

// The value one agreement instance decides: 1..kMaxCommandsPerBatch
// commands, ordered. Size 1 is the classic one-command-per-instance regime.
using Batch = std::vector<Command>;

inline Batch single_batch(const Command& cmd) { return Batch{cmd}; }

struct BatchPolicy {
  // What governs the idle-pipeline flush of a PARTIAL batch:
  //   * kFixed — the classic timer: hold up to flush_after unconditionally
  //     (bit-identical to the pre-adaptive behavior, and the default);
  //   * kAdaptive — the hold is derived from the observed arrival rate: a
  //     lone command flushes immediately when the next arrival is not
  //     expected within the budget, and waits at most a handful of
  //     predicted inter-arrival gaps when company IS imminent. flush_after
  //     becomes the upper bound of the hold (the "budget"); 0 keeps the
  //     stock kAdaptiveDefaultHold.
  enum class FlushMode : std::uint8_t { kFixed, kAdaptive };

  // Commands per instance; 1 (default) decides one command per instance.
  // Clamped to [1, kMaxCommandsPerBatch].
  std::int32_t max_commands = 1;

  // Payload-byte budget per batch. Commands are indivisible: a single
  // command always travels even when it alone exceeds the budget.
  std::int32_t max_bytes = kMaxCommandsPerBatch * static_cast<std::int32_t>(sizeof(Command));

  // How long a partial batch may wait for company ONCE THE PIPELINE IS
  // IDLE. Group commit proper needs no timer: while instances are in
  // flight, arrivals accumulate, and each decide flushes the whole backlog
  // as one batch — the batch size adapts to load by itself. The timer only
  // governs the idle case: 0 (default) proposes a lone command immediately
  // (work-conserving, no added latency), T > 0 holds it up to T hoping for
  // company (trading latency for fill at low load). Under kAdaptive this is
  // the hold's UPPER BOUND, not its value.
  Nanos flush_after = 0;

  FlushMode flush_mode = FlushMode::kFixed;

  // Adaptive-mode constants. The hold is min(budget, kAdaptiveHoldGaps *
  // ewma_gap): at high arrival rates a few gaps buy most of the fill a
  // fixed timer would (the in-flight decide accumulates the rest — group
  // commit), while the budget caps the worst case when the gap estimate is
  // stale. kAdaptiveDefaultHold is the budget when flush_after is unset —
  // roughly a few decide round trips under the sim cost model.
  static constexpr std::int64_t kAdaptiveHoldGaps = 8;
  static constexpr Nanos kAdaptiveDefaultHold = 200 * kMicrosecond;

  bool batching() const { return max_commands > 1; }

  bool adaptive() const { return flush_mode == FlushMode::kAdaptive; }

  // The adaptive hold budget: flush_after when set, the stock default
  // otherwise (an adaptive policy with no timer configured must still be
  // allowed to hold — the whole point is that IT decides when not to).
  Nanos adaptive_hold_budget() const {
    return flush_after > 0 ? flush_after : kAdaptiveDefaultHold;
  }

  // Commands per batch after every cap (max_commands, the byte budget, the
  // compile-time ceiling); never below 1.
  std::int32_t commands_cap() const {
    std::int32_t cap = std::min(max_commands, kMaxCommandsPerBatch);
    cap = std::min(cap, max_bytes / static_cast<std::int32_t>(sizeof(Command)));
    return std::max(cap, 1);
  }
};

// FIFO of commands waiting for a leader pipeline slot, with the flush
// policy folded in. Engines push on arrival and take() a batch whenever
// ready() says the head of the queue should be proposed.
class Batcher {
 public:
  Batcher() = default;
  explicit Batcher(const BatchPolicy& policy) : policy_(policy) {}

  const BatchPolicy& policy() const { return policy_; }

  bool empty() const { return q_.empty(); }
  std::size_t size() const { return q_.size(); }

  void push(const Command& cmd, Nanos now) {
    // Arrival-rate estimate for the adaptive flush rule: EWMA of the
    // inter-arrival gap, clamped to >= 1 ns so a measured gap is never
    // confused with the "no estimate yet" zero. Re-queues (push_front) are
    // not arrivals and leave the estimate alone.
    if (last_arrival_ != kNoTime && now >= last_arrival_) {
      const Nanos gap = std::max<Nanos>(now - last_arrival_, 1);
      ewma_gap_ = ewma_gap_ == 0 ? gap : (3 * ewma_gap_ + gap) / 4;
    }
    last_arrival_ = now;
    q_.push_back({cmd, now});
  }

  // Re-queue at the front (a command that lost an instance race must be
  // re-proposed before new arrivals). Front-of-queue age makes it flush
  // immediately under any flush_after.
  void push_front(const Command& cmd) { q_.push_front({cmd, kNoTime}); }

  // True when a batch should be proposed now. `outstanding` is the number
  // of instances the caller already has in flight:
  //   * unbatched policy — any pending command goes at once (the classic
  //     one-command-per-instance regime);
  //   * batching — a full batch always goes; a partial batch goes only when
  //     the pipeline is idle and its oldest command has waited out the
  //     flush policy (group commit: in-flight decides flush the accumulated
  //     backlog). kFixed waits flush_after unconditionally; kAdaptive waits
  //     only while the arrival-rate estimate says company is imminent —
  //     see idle_hold().
  // Re-queued commands (push_front) count as overdue: a race loser must be
  // re-proposed as soon as the pipeline allows.
  bool ready(Nanos now, std::size_t outstanding) const {
    if (q_.empty()) return false;
    if (!policy_.batching()) return true;
    if (static_cast<std::int32_t>(q_.size()) >= policy_.commands_cap()) return true;
    if (outstanding > 0) return false;
    const Nanos enqueued = q_.front().enqueued;
    return enqueued == kNoTime || now - enqueued >= idle_hold();
  }

  // When ready(·, outstanding) turns true with `outstanding` unchanged:
  // the oldest command's enqueue time (already past) when a batch is due
  // regardless of the clock, its enqueue time plus idle_hold() for a
  // partial batch on an idle pipeline, and kNoDeadline when nothing is
  // queued or a partial batch waits for an in-flight decide (which arrives
  // as a message, not a timer).
  Nanos flush_deadline(std::size_t outstanding) const {
    if (q_.empty()) return kNoDeadline;
    const Nanos enqueued = q_.front().enqueued;
    if (!policy_.batching() ||
        static_cast<std::int32_t>(q_.size()) >= policy_.commands_cap()) {
      return enqueued;
    }
    if (outstanding > 0) return kNoDeadline;
    return enqueued == kNoTime ? kNoTime : enqueued + idle_hold();
  }

  // How long the oldest command of a partial batch holds on an idle
  // pipeline. kFixed: flush_after, always. kAdaptive: 0 when there is no
  // gap estimate yet or arrivals are too sparse for company to show up
  // within the budget (the p99-at-low-load win: a lone command proposes at
  // batch=1 latency); otherwise a handful of predicted gaps, capped by the
  // budget (enough fill to keep msgs/op amortized at mid load — saturation
  // never gets here, full batches and in-flight accumulation flush first).
  Nanos idle_hold() const {
    if (!policy_.adaptive()) return policy_.flush_after;
    const Nanos budget = policy_.adaptive_hold_budget();
    if (ewma_gap_ == 0 || ewma_gap_ >= budget) return 0;
    return std::min<Nanos>(budget, BatchPolicy::kAdaptiveHoldGaps * ewma_gap_);
  }

  // The current inter-arrival estimate (0 = no estimate yet); test hook.
  Nanos ewma_gap() const { return ewma_gap_; }

  // Pops the next batch (up to the policy's cap), FIFO. Empty iff empty().
  Batch take() {
    Batch out;
    const std::int32_t cap = policy_.commands_cap();
    while (!q_.empty() && static_cast<std::int32_t>(out.size()) < cap) {
      out.push_back(q_.front().cmd);
      q_.pop_front();
    }
    return out;
  }

  // Drains everything in FIFO order (forwarding to another leader).
  std::vector<Command> drain() {
    std::vector<Command> out;
    out.reserve(q_.size());
    for (const Pending& p : q_) out.push_back(p.cmd);
    q_.clear();
    return out;
  }

 private:
  // Sentinel enqueue time for re-queued commands: always overdue.
  static constexpr Nanos kNoTime = -1;

  struct Pending {
    Command cmd;
    Nanos enqueued = 0;
  };

  BatchPolicy policy_;
  std::deque<Pending> q_;
  Nanos last_arrival_ = kNoTime;  // newest push() time (re-queues excluded)
  Nanos ewma_gap_ = 0;            // EWMA inter-arrival gap; 0 = no estimate
};

// ---- Wire helpers ----
// Batches travel as count-prefixed Command runs. In memory a run is a
// CommandRun (message.hpp): inline for short runs, pooled for long ones;
// on the wire the codec serializes only the used commands.

inline std::int32_t pack_batch(const Batch& b, Command* out) {
  CI_CHECK(!b.empty() &&
           b.size() <= static_cast<std::size_t>(kMaxCommandsPerBatch));
  std::copy(b.begin(), b.end(), out);
  return static_cast<std::int32_t>(b.size());
}

inline Batch unpack_batch(const Command* cmds, std::int32_t count) {
  CI_CHECK(count >= 1 && count <= kMaxCommandsPerBatch);
  return Batch(cmds, cmds + count);
}

// unpack_batch into a caller-owned batch, reusing its capacity: an engine
// decodes every received run into one scratch batch without allocating.
inline const Batch& unpack_into(Batch& out, const Command* cmds, std::int32_t count) {
  CI_CHECK(count >= 1 && count <= kMaxCommandsPerBatch);
  out.assign(cmds, cmds + count);
  return out;
}

// Order-sensitive digest of a command run (FNV-1a over the semantic fields,
// seeded by the count; padding excluded). AcceptorChange entries identify
// their batched uncommitted values by (instance, count, digest) and the
// bodies travel out of line — the digest is what lets an adopter verify a
// fetched body against the decided entry (see message.hpp BatchedProposalRef
// and DESIGN.md §1c).
inline std::uint64_t batch_digest(const Command* cmds, std::int32_t count) {
  std::uint64_t h = 1469598103934665603ull ^ static_cast<std::uint64_t>(count);
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (std::int32_t i = 0; i < count; ++i) {
    const Command& c = cmds[i];
    mix((static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.client)) << 32) | c.seq);
    mix(static_cast<std::uint64_t>(c.op));
    mix(c.key);
    mix(c.value);
  }
  return h;
}

inline std::uint64_t batch_digest(const Batch& b) {
  return batch_digest(b.data(), static_cast<std::int32_t>(b.size()));
}

}  // namespace ci::consensus
