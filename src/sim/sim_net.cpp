#include "sim/sim_net.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"
#include "consensus/wire_codec.hpp"

namespace ci::sim {

SimNet::SimNet(const LatencyModel& model, std::uint64_t seed, Nanos tick_period)
    : model_(model), rng_(seed), tick_period_(tick_period) {
  CI_CHECK(tick_period_ > 0);
}

namespace {

// Frame buffers come in power-of-two size classes, kMinFrameClassBytes and
// up; the top class is capped at the largest frame.
constexpr std::size_t kMinFrameClassBytes = 64;

// Frames are never shorter than the message header.
std::size_t frame_class(std::uint32_t len) {
  return static_cast<std::size_t>(std::bit_width((len - 1) / kMinFrameClassBytes));
}

}  // namespace

std::unique_ptr<unsigned char[]> SimNet::acquire_frame(std::uint32_t len) {
  static_assert(std::bit_width((wire::kMaxFrameBytes - 1) / kMinFrameClassBytes) < kFrameClasses,
                "the top frame class must hold the largest frame");
  auto& pool = frame_pool_[frame_class(len)];
  if (!pool.empty()) {
    auto buf = std::move(pool.back());
    pool.pop_back();
    return buf;
  }
  return std::make_unique_for_overwrite<unsigned char[]>(
      std::min(kMinFrameClassBytes << frame_class(len), wire::kMaxFrameBytes));
}

void SimNet::recycle_frame(std::unique_ptr<unsigned char[]> frame, std::uint32_t len) {
  frame_pool_[frame_class(len)].push_back(std::move(frame));
}

void SimNet::add_node(Engine* engine) {
  CI_CHECK(!started_);
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<NodeCtx>(this, id, engine));
}

void SimNet::slow_node(NodeId node, Nanos from, Nanos to, double factor) {
  CI_CHECK(factor >= 1.0);
  nodes_[static_cast<std::size_t>(node)]->slow_windows.push_back(
      {core::FaultEvent::Kind::kSlowNode, node, from, to, factor});
}

void SimNet::heal_node(NodeId node, Nanos t) {
  for (core::FaultEvent& w : nodes_[static_cast<std::size_t>(node)]->slow_windows) {
    if (w.at <= t && w.until > t) w.until = t;  // only windows open at t; future ones stand
  }
}

void SimNet::stretch_clock(NodeId node, double rate) {
  CI_CHECK(rate > 0.0);
  NodeCtx& n = *nodes_[static_cast<std::size_t>(node)];
  // Re-anchor at the current virtual time so the perceived clock is
  // continuous across the rate change (it jumps in SLOPE, not in value).
  const Nanos seen_now =
      n.skew_anchor_seen +
      static_cast<Nanos>(static_cast<double>(now_ - n.skew_anchor_real) * n.skew_rate);
  n.skew_anchor_real = now_;
  n.skew_anchor_seen = seen_now;
  n.skew_rate = rate;
}

void SimNet::schedule_call(Nanos t, NodeId node, std::function<void()> fn) {
  Event e;
  e.time = t;
  e.seq = seq_++;
  e.kind = Event::Kind::kCall;
  e.node = node;
  e.call = std::move(fn);
  push_event(std::move(e));
}

void SimNet::push_event(Event e) {
  event_queue_.push_back(std::move(e));
  std::push_heap(event_queue_.begin(), event_queue_.end(), EventAfter{});
}

std::uint64_t SimNet::total_messages() const {
  std::uint64_t sum = 0;
  for (const auto& n : nodes_) sum += n->sent;
  return sum;
}

std::uint64_t SimNet::total_bytes() const {
  std::uint64_t sum = 0;
  for (const auto& n : nodes_) sum += n->sent_bytes;
  return sum;
}

void SimNet::send_from(NodeCtx& src, NodeId dst, const Message& m) {
  CI_CHECK(dst >= 0 && dst < static_cast<NodeId>(nodes_.size()));
  Event e;
  e.seq = seq_++;
  e.kind = Event::Kind::kMessage;
  e.node = dst;
  const std::size_t frame_bytes = wire::frame_size(m);
  if (dst == src.id_) {
    // Local delivery between collapsed roles: no node boundary is crossed,
    // no transmission cost is charged (Fig. 3 counts only crossing
    // messages). Delivered once the current handler finishes.
    e.time = src.busy_until;
  } else {
    const double f = core::slow_window_factor(src.slow_windows, src.id_, src.busy_until);
    // trans_send is the per-message cost; per_byte_cost (off by default) adds
    // the bandwidth term from the frame size the codec reports. Both are CPU
    // work on the sending core, so both scale with its slowdown factor.
    src.busy_until += static_cast<Nanos>(
        static_cast<double>(model_.trans_send + model_.per_byte_cost(frame_bytes)) * f);
    src.logical_now = src.busy_until;
    src.sent++;
    src.sent_bytes += frame_bytes;
    if (model_.drop_probability > 0 && rng_.next_bool(model_.drop_probability)) {
      dropped_++;
      wire::release_body(m);  // send consumed the body; the frame dies unsent
      return;
    }
    const Nanos jitter =
        model_.prop_jitter > 0 ? static_cast<Nanos>(rng_.next_below(
                                     static_cast<std::uint64_t>(model_.prop_jitter)))
                               : 0;
    e.time = src.busy_until + model_.prop + jitter;
  }
  // Encode at send: the event carries the wire frame, with src/dst stamped
  // mid-encode — the in-memory Message and its pooled run are released here,
  // and each field byte moved exactly once.
  e.frame = acquire_frame(static_cast<std::uint32_t>(frame_bytes));
  wire::BufferWriter w(e.frame.get());
  const std::uint32_t written = wire::encode_into(m, w, src.id_, dst);
  CI_CHECK(written == frame_bytes);
  wire::release_body(m);
  e.frame_len = written;
  push_event(std::move(e));
}

void SimNet::process(Event& e) {
  NodeCtx& n = *nodes_[static_cast<std::size_t>(e.node)];
  switch (e.kind) {
    case Event::Kind::kMessage: {
      const Nanos t0 = std::max(e.time, n.busy_until);
      const double f = core::slow_window_factor(n.slow_windows, n.id_, t0);
      n.busy_until = t0 + static_cast<Nanos>(
                              static_cast<double>(model_.trans_recv + model_.handler_cost) * f);
      n.logical_now = n.busy_until;
      // Decode the wire frame the sender encoded (allocating a fresh pooled
      // body if the frame carries a command run), deliver, then recycle both
      // the body and the buffer.
      Message m;
      CI_CHECK_MSG(wire::try_decode(e.frame.get(), e.frame_len, &m),
                   "malformed frame in the sim network");
      n.engine_->on_message(n, m);
      wire::release_body(m);
      recycle_frame(std::move(e.frame), e.frame_len);
      break;
    }
    case Event::Kind::kTick: {
      // Ticks wait for the CPU like any other work but cost ~nothing
      // themselves; their sends are charged normally.
      const Nanos t0 = std::max(e.time, n.busy_until);
      n.logical_now = t0;
      n.busy_until = std::max(n.busy_until, t0);
      n.engine_->tick(n);
      Event next;
      next.time = e.time + tick_period_;
      next.seq = seq_++;
      next.kind = Event::Kind::kTick;
      next.node = e.node;
      push_event(std::move(next));
      break;
    }
    case Event::Kind::kCall: {
      n.logical_now = std::max(e.time, n.logical_now);
      e.call();
      break;
    }
  }
}

void SimNet::run_until(Nanos until) {
  if (!started_) {
    started_ = true;
    for (auto& n : nodes_) {
      n->logical_now = 0;
      n->engine_->start(*n);
    }
    // Stagger first ticks so nodes do not act in lockstep.
    const auto count = static_cast<Nanos>(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      Event t;
      t.time = tick_period_ * (static_cast<Nanos>(i) + 1) / std::max<Nanos>(count, 1);
      t.seq = seq_++;
      t.kind = Event::Kind::kTick;
      t.node = static_cast<NodeId>(i);
      push_event(std::move(t));
    }
  }
  while (!event_queue_.empty() && event_queue_.front().time <= until) {
    std::pop_heap(event_queue_.begin(), event_queue_.end(), EventAfter{});
    Event e = std::move(event_queue_.back());
    event_queue_.pop_back();
    now_ = e.time;
    process(e);
  }
  now_ = std::max(now_, until);
}

}  // namespace ci::sim
