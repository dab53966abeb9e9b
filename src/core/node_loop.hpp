// The threaded transports' one node: an engine on one OS thread, the loop
// the paper's runtime runs on each replica's core (§6-7.1). rt::RtNode (SPSC
// queues) and net::NetNode (TCP sockets) derive from it and supply the
// transport (CRTP, so the per-frame path makes no virtual call). It holds,
// once for both: the engine Context and its send counters; the deferred
// self-send queue (engines are not reentrant); a FIFO backlog per peer of
// encoded frames that found the link full; start/request_stop/join around
// one stop flag; the NodeFaults hook; and one pass — wait, read each peer,
// stall, tick, drain self-sends, flush backlogs. One read per peer per pass,
// then a tick, is §6.2's interleaving: a flooding peer starves neither the
// other peers nor the tick (heartbeats, retries).
//
// A Transport befriends NodeLoop<Transport> and supplies:
//   kFramePrefixBytes      link bytes per frame beyond the codec frame;
//   thread_main()          on the node thread: set up links, run(), tear down;
//   wait(progress)         block or spin until input is likely (`progress`:
//                          the last pass read something); a transport that
//                          blocks bounds the block by deadline_wait();
//   notify()               any thread: end a wait() in progress, or the
//                          next one, early (a no-op for a spinning wait);
//   read(peer)             one read's worth of frames, each through
//                          deliver(); true if it read anything;
//   link_up(peer)          false: sends to peer are dropped;
//   write(peer, m, len)    encode m into the link if it has room now;
//   write(peer, frame)     copy a backlogged frame likewise.
// Its destructor calls request_stop() and join(): the node thread runs
// transport code, so it must end before the transport's members do.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "consensus/engine.hpp"
#include "consensus/wire_codec.hpp"
#include "core/node_faults.hpp"

namespace ci::core {

template <typename Transport>
class NodeLoop {
 public:
  // One encoded codec frame, as the backlog keeps it.
  using Frame = std::vector<unsigned char>;

  NodeLoop(const NodeLoop&) = delete;
  NodeLoop& operator=(const NodeLoop&) = delete;

  void start() {
    thread_ = std::thread([this] {
      transport().thread_main();
      // Pooled bodies are thread-local; anything still parked in the self
      // queue goes back to this thread's pool before the thread exits.
      for (const consensus::Message& m : self_queue_) wire::release_body(m);
      self_queue_.clear();
    });
  }
  void request_stop() {
    stop_.store(true, std::memory_order_relaxed);
    wake();
  }
  // Thread-safe: the node has work it cannot see on its links (a command
  // queued from another thread); its current or next wait returns early.
  void wake() { transport().notify(); }
  void join() {
    if (thread_.joinable()) thread_.join();
  }

  // Fault and clock controls (core/node_faults.hpp): per-message stall and
  // perceived-clock skew.
  void set_slow_factor(std::uint32_t factor) { faults_.set_slow_factor(factor); }
  void stretch_clock(double rate) { faults_.stretch_clock(rate); }

  consensus::NodeId id() const { return self_; }
  std::uint64_t messages_sent() const { return ctx_.sent.load(std::memory_order_relaxed); }
  // Link bytes behind messages_sent(): codec frame bytes plus the
  // transport's per-frame prefix.
  std::uint64_t bytes_sent() const { return ctx_.sent_bytes.load(std::memory_order_relaxed); }

 protected:
  // Peers occupy ids [0, total_nodes).
  NodeLoop(consensus::NodeId self, std::int32_t total_nodes, consensus::Engine* engine)
      : self_(self),
        total_nodes_(total_nodes),
        engine_(engine),
        ctx_(this),
        backlogs_(static_cast<std::size_t>(total_nodes)) {
    CI_CHECK(self >= 0 && self < total_nodes);
  }
  ~NodeLoop() { CI_CHECK_MSG(!thread_.joinable(), "transport destroyed a running node"); }

  bool stopping() const { return stop_.load(std::memory_order_relaxed); }
  const std::atomic<bool>* stop_flag() const { return &stop_; }
  std::int32_t total_nodes() const { return total_nodes_; }
  bool backlogged(consensus::NodeId peer) const {
    return !backlogs_[static_cast<std::size_t>(peer)].empty();
  }

  // Wall nanoseconds until the engine's next deadline, clamped to
  // [0, cap]: how long wait() may block before the tick is due. The
  // deadline is in the node's perceived clock; a stretched clock's span is
  // converted to wall time rounding toward an early wake, which costs a
  // no-op tick and never a missed timer.
  Nanos deadline_wait(Nanos cap) const {
    const Nanos now = faults_.now();
    const Nanos d = engine_->next_deadline(now);
    if (d <= now) return 0;
    if (d == kNoDeadline) return cap;
    return std::min(cap, faults_.to_wall(d - now));
  }

  // Starts the engine and runs passes until request_stop(). Called by the
  // transport's thread_main once its links are up.
  void run() {
    if (stopping()) return;
    engine_->start(ctx_);
    drain_self_queue();
    bool progress = true;
    while (!stopping()) {
      transport().wait(progress);
      progress = false;
      for (consensus::NodeId peer = 0; peer < total_nodes_; ++peer) {
        if (peer != self_ && transport().read(peer)) progress = true;
      }
      faults_.maybe_stall();
      engine_->tick(ctx_);
      drain_self_queue();
      for (consensus::NodeId peer = 0; peer < total_nodes_; ++peer) flush_backlog(peer);
    }
  }

  // Hands one received codec frame to the engine; false (and nothing
  // delivered) if it does not decode.
  bool deliver(const unsigned char* frame, std::uint32_t len) {
    consensus::Message m;
    if (!wire::try_decode(frame, len, &m)) return false;
    faults_.maybe_stall();
    engine_->on_message(ctx_, m);
    wire::release_body(m);  // decode allocated any pooled body
    drain_self_queue();
    return true;
  }

  // Encodes m, stamped self -> dst, through a transport's frame writer.
  void encode(const consensus::Message& m, wire::FrameWriter& w, consensus::NodeId dst,
              std::uint32_t frame_len) const {
    const std::uint32_t written = wire::encode_into(m, w, self_, dst);
    CI_CHECK(written == frame_len);
  }

 private:
  class Ctx final : public consensus::Context {
   public:
    explicit Ctx(NodeLoop* loop) : loop_(loop) {}
    consensus::NodeId self() const override { return loop_->self_; }
    Nanos now() const override { return loop_->faults_.now(); }
    void send(consensus::NodeId dst, const consensus::Message& m) override {
      loop_->send(dst, m);
    }
    // Delivery reporting happens in the GroupDemuxEngine hosted on every
    // node (core::ThreadedCluster's hook logs per node thread and replays
    // into the per-group recorders after join()); the transport has none.
    void deliver(consensus::Instance, const consensus::Command&) override {}

    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> sent_bytes{0};

   private:
    NodeLoop* loop_;
  };

  Transport& transport() { return static_cast<Transport&>(*this); }

  // send() consumes the message's pooled body: the encode is its one read.
  void send(consensus::NodeId dst, const consensus::Message& m) {
    if (dst == self_) {
      // Defer: engines are not reentrant, and local delivery between
      // collapsed roles costs no boundary crossing. The copy shares the
      // pooled body; drain_self_queue releases it after delivery.
      consensus::Message out = m;
      out.src = self_;
      out.dst = dst;
      self_queue_.push_back(out);
      return;
    }
    if (dst < 0 || dst >= total_nodes_ || !transport().link_up(dst)) {
      // The peer is gone. Dropping is the failure model: a dead node is
      // silence, and retry and failure detection live in the engines.
      wire::release_body(m);
      return;
    }
    const auto n = static_cast<std::uint32_t>(wire::frame_size(m));
    ctx_.sent.fetch_add(1, std::memory_order_relaxed);
    ctx_.sent_bytes.fetch_add(Transport::kFramePrefixBytes + n, std::memory_order_relaxed);
    auto& backlog = backlogs_[static_cast<std::size_t>(dst)];
    // Fast path: the transport encodes straight into the link (each field
    // byte moves once, engine memory to link buffer). Otherwise the frame
    // joins the FIFO backlog behind any older frame still waiting.
    if (!backlog.empty() || !transport().write(dst, m, n)) {
      Frame frame(n);
      wire::BufferWriter w(frame.data());
      encode(m, w, dst, n);
      backlog.push_back(std::move(frame));
    }
    wire::release_body(m);
  }

  void flush_backlog(consensus::NodeId peer) {
    auto& backlog = backlogs_[static_cast<std::size_t>(peer)];
    while (!backlog.empty() && transport().write(peer, backlog.front())) backlog.pop_front();
  }

  void drain_self_queue() {
    while (!self_queue_.empty()) {
      const consensus::Message m = self_queue_.front();
      self_queue_.pop_front();
      engine_->on_message(ctx_, m);
      wire::release_body(m);
    }
  }

  const consensus::NodeId self_;
  const std::int32_t total_nodes_;
  consensus::Engine* const engine_;
  Ctx ctx_;
  std::vector<std::deque<Frame>> backlogs_;    // index = peer id; node thread only
  std::deque<consensus::Message> self_queue_;  // node thread only
  std::atomic<bool> stop_{false};
  NodeFaults faults_;
  std::thread thread_;  // last: it uses every member above
};

}  // namespace ci::core
