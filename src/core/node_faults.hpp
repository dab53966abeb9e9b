// Per-node fault and clock controls for the threaded transports: the one
// copy core::NodeLoop holds by value for rt::RtNode and net::NetNode alike,
// plus the pure rule that turns a FaultPlan's slow windows into a node's
// stall factor and the poller that applies a plan at wall-clock offsets.
//
// NodeFaults is read on every message a node processes, so everything on
// it is inline and relaxed-atomic: no virtual call, and a healthy node pays
// one load and one predictable branch per message (maybe_stall) and per
// clock read (now).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/time.hpp"
#include "core/cluster_spec.hpp"

namespace ci::core {

class NodeFaults {
 public:
  // Portable slow-core injection: every message the node processes (and
  // every tick) costs an extra (factor-1) x 500ns sleep, collapsing the
  // node's processing rate the way a contended core would. factor 1 (or 0)
  // = healthy.
  void set_slow_factor(std::uint32_t factor) {
    slow_factor_.store(factor == 0 ? 1 : factor, std::memory_order_relaxed);
  }

  void maybe_stall() const {
    const std::uint32_t f = slow_factor_.load(std::memory_order_relaxed);
    if (f <= 1) return;
    // Sleep, don't spin: on a dedicated core the node's processing rate
    // collapses identically either way, but on an oversubscribed machine a
    // busy-wait would burn timeslices the *healthy* nodes need — the fault
    // would slow the whole cluster instead of one node.
    std::this_thread::sleep_for(std::chrono::nanoseconds(static_cast<Nanos>(f - 1) * 500));
  }

  // Clock-skew injection: from now on now() advances `rate` times the wall
  // clock, re-anchored so the perceived clock stays continuous at the
  // switch. The three fields are stored relaxed — the node thread may
  // briefly mix old and new anchors at the switch instant, which perturbs
  // the perceived time by at most the in-flight window; the lease staleness
  // tests stretch once and then settle, so the transient is harmless.
  // rate > 1 models the fast clock a deposed leader would need to overrun
  // its lease.
  void stretch_clock(double rate) {
    const Nanos t = now_nanos();
    const double old_rate = clock_rate_.load(std::memory_order_relaxed);
    const Nanos anchor_real = clock_anchor_real_.load(std::memory_order_relaxed);
    const Nanos anchor_seen = clock_anchor_seen_.load(std::memory_order_relaxed);
    const Nanos seen_now =
        anchor_seen + static_cast<Nanos>(static_cast<double>(t - anchor_real) * old_rate);
    clock_anchor_real_.store(t, std::memory_order_relaxed);
    clock_anchor_seen_.store(seen_now, std::memory_order_relaxed);
    clock_rate_.store(rate, std::memory_order_relaxed);
  }

  // A wall span no longer than the given span of the perceived clock: the
  // span itself unless the clock runs fast (rate > 1), when it passes
  // `rate` times quicker.
  Nanos to_wall(Nanos perceived_span) const {
    const double rate = clock_rate_.load(std::memory_order_relaxed);
    if (rate <= 1.0) return perceived_span;
    return static_cast<Nanos>(static_cast<double>(perceived_span) / rate);
  }

  // The node's perceived clock (what its engines read as ctx.now()).
  Nanos now() const {
    const Nanos t = now_nanos();
    const double rate = clock_rate_.load(std::memory_order_relaxed);
    if (rate == 1.0) return t;
    const Nanos anchor_real = clock_anchor_real_.load(std::memory_order_relaxed);
    const Nanos anchor_seen = clock_anchor_seen_.load(std::memory_order_relaxed);
    return anchor_seen + static_cast<Nanos>(static_cast<double>(t - anchor_real) * rate);
  }

 private:
  std::atomic<std::uint32_t> slow_factor_{1};
  // Perceived-clock skew: seen + (wall - real) * rate.
  std::atomic<Nanos> clock_anchor_real_{0};
  std::atomic<Nanos> clock_anchor_seen_{0};
  std::atomic<double> clock_rate_{1.0};
};

// The stall factor `node` (a group-local id) should run at `elapsed` into
// the run: slow_window_factor rounded to an integer, where a factor above 1
// never rounds down to the healthy sentinel (stall granularity is
// (factor-1) x 500ns).
inline std::uint32_t slow_factor_at(const FaultPlan& plan, consensus::NodeId node,
                                    Nanos elapsed) {
  const double factor = slow_window_factor(plan.events, node, elapsed);
  return factor <= 1.0 ? 1u : std::max(2u, static_cast<std::uint32_t>(factor + 0.5));
}

// Applies a FaultPlan at wall-clock offsets from a poll loop. Each poll
// recomputes the factor of every node a slow window names (so healing
// shows up on the first poll past the window) and fires each kStretchClock
// event exactly once: re-anchoring a skewed oscillator on every poll would
// compound the transform. Only kSlowNode and kStretchClock apply to real
// threads; silent acceptor reboot is sim-only state surgery.
class FaultPoller {
 public:
  explicit FaultPoller(const FaultPlan& plan)
      : plan_(plan), stretch_fired_(plan.events.size(), false) {}

  // Calls slow(node, factor) for every windowed node and stretch(node, rate)
  // for each clock stretch whose offset has passed, `node` group-local.
  template <typename Slow, typename Stretch>
  void poll(Nanos elapsed, Slow&& slow, Stretch&& stretch) {
    for (std::size_t i = 0; i < plan_.events.size(); ++i) {
      const FaultEvent& f = plan_.events[i];
      if (f.kind == FaultEvent::Kind::kStretchClock) {
        if (stretch_fired_[i] || elapsed < f.at) continue;
        stretch_fired_[i] = true;
        stretch(f.node, f.factor);
      } else if (f.kind == FaultEvent::Kind::kSlowNode) {
        slow(f.node, slow_factor_at(plan_, f.node, elapsed));
      }
    }
  }

 private:
  FaultPlan plan_;
  std::vector<bool> stretch_fired_;  // one latch per planned event
};

}  // namespace ci::core
