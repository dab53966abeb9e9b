#include "rt/rt_node.hpp"

#include "common/affinity.hpp"
#include "common/check.hpp"
#include "common/time.hpp"

namespace ci::rt {

RtNode::RtNode(NodeId self, std::int32_t total_nodes, Engine* engine, qclt::Network* net,
               int core)
    : self_(self),
      total_nodes_(total_nodes),
      engine_(engine),
      net_(net),
      core_(core),
      ctx_(std::make_unique<Ctx>(this)),
      // Construct the scheduler here (not on the node thread) so
      // request_stop() from other threads never races its creation.
      sched_(std::make_unique<qclt::Scheduler>(kTaskStackBytes)),
      pending_(static_cast<std::size_t>(total_nodes)) {}

RtNode::~RtNode() {
  request_stop();
  join();
}

void RtNode::start() {
  thread_ = std::thread([this] { thread_main(); });
}

void RtNode::request_stop() {
  stop_.store(true, std::memory_order_relaxed);
  sched_->request_stop();
}

void RtNode::join() {
  if (thread_.joinable()) thread_.join();
}

void RtNode::send(NodeId dst, const Message& m) {
  if (dst == self_) {
    // Defer: engines are not reentrant, and local delivery between
    // collapsed roles costs no boundary crossing. The copy shares the
    // message's pooled body (if any); custody moves to the self queue and
    // drain_self_queue releases it after delivery.
    Message out = m;
    out.src = self_;
    out.dst = dst;
    self_queue_.push_back(out);
    return;
  }
  ctx_->sent.fetch_add(1, std::memory_order_relaxed);
  const auto n = static_cast<std::uint32_t>(wire::frame_size(m));
  ctx_->sent_bytes.fetch_add(n, std::memory_order_relaxed);
  auto& conn = conns_[static_cast<std::size_t>(dst)];
  auto& backlog = pending_[static_cast<std::size_t>(dst)];
  qclt::SpscQueue* q = conn->out_queue();
  if (backlog.empty() && q->free_slots() >= qclt::wire::fragments_for(n)) {
    // Fast path: encode the frame straight into the reserved SPSC slots —
    // each field byte moves exactly once, engine memory to shared-memory
    // slot, with src/dst stamped mid-flight (no frame buffer, no Message
    // copy just to rewrite two header fields).
    SlotFrameWriter w(q, n);
    const std::uint32_t written = wire::encode_into(m, w, self_, dst);
    CI_CHECK(written == n);
    w.finish();
    wire::release_body(m);  // send() consumes the message's pooled body
    return;
  }
  // Queue full (or older messages still waiting): encode into the FIFO
  // backlog instead; flush_pending replays the finished frames.
  alignas(Message) unsigned char buf[kWireBufBytes];
  wire::BufferWriter w(buf);
  const std::uint32_t written = wire::encode_into(m, w, self_, dst);
  CI_CHECK(written == n);
  wire::release_body(m);
  backlog.emplace_back(buf, buf + n);
}

void RtNode::flush_pending(NodeId peer) {
  auto& backlog = pending_[static_cast<std::size_t>(peer)];
  auto& conn = conns_[static_cast<std::size_t>(peer)];
  while (!backlog.empty()) {
    const auto& frame = backlog.front();
    if (!conn->try_write(frame.data(), static_cast<std::uint32_t>(frame.size()))) return;
    backlog.pop_front();
  }
}

void RtNode::drain_self_queue() {
  while (!self_queue_.empty()) {
    const Message m = self_queue_.front();
    self_queue_.pop_front();
    engine_->on_message(*ctx_, m);
    wire::release_body(m);
  }
}

void RtNode::thread_main() {
  if (core_ >= 0) pin_to_core(core_);
  if (stop_.load(std::memory_order_relaxed)) return;

  // Connections to every peer (netlisten/dial collapsed into an eager mesh).
  conns_.resize(static_cast<std::size_t>(total_nodes_));
  for (NodeId peer = 0; peer < total_nodes_; ++peer) {
    if (peer == self_) continue;
    const qclt::Duplex d = net_->duplex(self_, peer);
    conns_[static_cast<std::size_t>(peer)] =
        std::make_unique<qclt::Connection>(d.out, d.in, sched_.get());
  }

  // One blocking reader task per peer (§6.2).
  for (NodeId peer = 0; peer < total_nodes_; ++peer) {
    if (peer == self_) continue;
    auto* conn = conns_[static_cast<std::size_t>(peer)].get();
    sched_->spawn(
        [this, conn] {
          unsigned char buf[kWireBufBytes];
          while (!sched_->stopping()) {
            const std::int32_t n = conn->read(buf, sizeof(buf));
            if (n < 0) return;  // stopped
            faults_.maybe_stall();
            Message m;
            // The queues carry only frames peer RtNodes encoded into shared
            // memory: a frame that fails to decode is a bug, not hostile
            // input (contrast NetNode, which drops the link).
            CI_CHECK_MSG(wire::try_decode(buf, static_cast<std::size_t>(n), &m),
                         "malformed message on the wire");
            engine_->on_message(*ctx_, m);
            wire::release_body(m);  // decode allocated any pooled body
            drain_self_queue();
            // One message per slice: a busy peer must not starve the other
            // readers or the tick task (heartbeats, retries).
            sched_->yield();
          }
        },
        "reader");
  }

  // Main task: ticks, deferred local delivery, backlog flushing.
  sched_->spawn(
      [this] {
        engine_->start(*ctx_);
        drain_self_queue();
        while (!sched_->stopping()) {
          faults_.maybe_stall();
          engine_->tick(*ctx_);
          drain_self_queue();
          for (NodeId peer = 0; peer < total_nodes_; ++peer) {
            if (peer != self_) flush_pending(peer);
          }
          sched_->yield();
        }
      },
      "main");

  sched_->run();

  // Pooled bodies are thread-local; anything still parked in the self
  // queue must go back to this thread's pool before the thread exits.
  for (const Message& m : self_queue_) wire::release_body(m);
  self_queue_.clear();
}

}  // namespace ci::rt
