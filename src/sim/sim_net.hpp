// Deterministic discrete-event simulation of a many-core "network" of
// protocol engines.
//
// Each node is one Engine with a serially-busy CPU (`busy_until`): receiving
// a message, running its handler, and sending each outgoing message all
// advance the node's clock by the model's costs, scaled by the node's
// current slowdown factor. Fault injection = slowdown windows (the paper
// models failures as slow cores, §1 fn.3) plus arbitrary scheduled calls
// (e.g. the acceptor silent-reboot hook).
//
// Runs are bit-reproducible for a given (cluster, seed): the event queue
// orders by (time, sequence number) and all jitter comes from one seeded RNG.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "consensus/engine.hpp"
#include "core/cluster_spec.hpp"
#include "core/latency_model.hpp"

namespace ci::sim {

using consensus::Command;
using consensus::Engine;
using consensus::Instance;
using consensus::Message;
using consensus::NodeId;
using core::LatencyModel;

class SimNet {
 public:
  SimNet(const LatencyModel& model, std::uint64_t seed, Nanos tick_period);

  // Nodes must be added before run(); ids are dense from 0.
  void add_node(Engine* engine);

  // Multiplies the node's CPU costs by `factor` during [from, to).
  void slow_node(NodeId node, Nanos from, Nanos to, double factor);

  // Ends every slow window still open at time t for `node` (heal).
  void heal_node(NodeId node, Nanos t);

  // From the current virtual time on, the node's PERCEIVED clock (what its
  // engine's ctx.now() returns) advances `rate` times virtual time — the
  // clock-skew fault the lease safety argument must survive. Event order
  // and CPU costs are untouched; only the node's view of time is skewed,
  // continuously re-anchored at the switch point.
  void stretch_clock(NodeId node, double rate);

  // Runs fn at virtual time t on the given node (models environment events
  // such as an acceptor reboot).
  void schedule_call(Nanos t, NodeId node, std::function<void()> fn);

  // Processes events until virtual time reaches `until` (or the queue runs
  // dry, which cannot happen while ticking). Can be called repeatedly with
  // increasing deadlines.
  void run_until(Nanos until);

  // Stop ticking a node (ends the simulation cleanly once the queue drains).
  Nanos now() const { return now_; }

  // Boundary-crossing messages sent per node (self-sends excluded) — the
  // quantity Fig. 3 counts.
  std::uint64_t messages_sent(NodeId node) const { return nodes_[static_cast<std::size_t>(node)]->sent; }
  std::uint64_t total_messages() const;
  std::uint64_t messages_dropped() const { return dropped_; }
  // Encoded frame bytes behind those messages (wire::frame_size per send):
  // what a socket backend would actually push through the kernel.
  std::uint64_t total_bytes() const;

 private:
  // Move-only: payloads ride behind pointers so heap sift operations move
  // ~64 bytes instead of copying a frame.
  //
  // Messages are ENCODED AT SEND: the event carries the wire frame (a
  // pooled buffer sized to the frame, recycled after delivery), not the
  // in-memory Message — each field byte moves exactly once, engine memory
  // to frame, mirroring what a socket backend would transmit. Self-sends
  // between collapsed roles travel as frames too, but are not charged or
  // counted: no node boundary is crossed.
  struct Event {
    Nanos time = 0;
    std::uint64_t seq = 0;
    enum class Kind : std::uint8_t { kMessage, kTick, kCall } kind = Kind::kMessage;
    NodeId node = -1;
    std::unique_ptr<unsigned char[]> frame;  // kMessage
    std::uint32_t frame_len = 0;
    std::function<void()> call;

    friend bool operator>(const Event& a, const Event& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  // Min-heap "later" comparator: heap front = earliest (time, seq). The
  // (time, seq) order is total, so run order — and with it bit-exact
  // reproducibility — is independent of the heap's internal layout.
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const { return a > b; }
  };

  class NodeCtx final : public consensus::Context {
   public:
    NodeCtx(SimNet* net, NodeId id, Engine* engine) : net_(net), id_(id), engine_(engine) {}

    NodeId self() const override { return id_; }
    // The node's PERCEIVED clock: virtual time through the skew transform
    // (identity until SimNet::stretch_clock re-anchors it).
    Nanos now() const override {
      if (skew_rate == 1.0) return logical_now;
      return skew_anchor_seen +
             static_cast<Nanos>(static_cast<double>(logical_now - skew_anchor_real) *
                                skew_rate);
    }
    void send(NodeId dst, const Message& m) override { net_->send_from(*this, dst, m); }
    // Delivery reporting happens in the GroupDemuxEngine hosted on every
    // node (its deliver hook feeds the per-group agreement recorders); the
    // transport itself has no delivery channel.
    void deliver(Instance, const Command&) override {}

    SimNet* net_;
    NodeId id_;
    Engine* engine_;
    Nanos busy_until = 0;
    Nanos logical_now = 0;
    std::uint64_t sent = 0;
    std::uint64_t sent_bytes = 0;
    std::vector<core::FaultEvent> slow_windows;  // this node's kSlowNode windows
    // Clock skew (stretch_clock): perceived = seen + (virtual - real) * rate.
    Nanos skew_anchor_real = 0;
    Nanos skew_anchor_seen = 0;
    double skew_rate = 1.0;
  };

  void send_from(NodeCtx& src, NodeId dst, const Message& m);
  void push_event(Event e);
  void process(Event& e);
  std::unique_ptr<unsigned char[]> acquire_frame(std::uint32_t len);
  void recycle_frame(std::unique_ptr<unsigned char[]> frame, std::uint32_t len);

  LatencyModel model_;
  Rng rng_;
  Nanos tick_period_;
  Nanos now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t dropped_ = 0;
  bool started_ = false;
  std::vector<std::unique_ptr<NodeCtx>> nodes_;
  // Binary min-heap over (time, seq), maintained with std::push_heap /
  // std::pop_heap (std::priority_queue cannot hand move-only elements back).
  std::vector<Event> event_queue_;
  // Recycled frame buffers, one free list per power-of-two size class
  // (sim_net.cpp): a queued event holds a buffer sized to its frame, not to
  // the largest frame. The steady state allocates nothing per send —
  // in-flight depth sets each list's high-water mark once and buffers cycle
  // through it thereafter.
  static constexpr std::size_t kFrameClasses = 7;  // 64 B .. wire::kMaxFrameBytes
  std::array<std::vector<std::unique_ptr<unsigned char[]>>, kFrameClasses> frame_pool_;
};

}  // namespace ci::sim
