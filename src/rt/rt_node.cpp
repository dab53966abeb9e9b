#include "rt/rt_node.hpp"

#include <thread>

#include "common/affinity.hpp"

namespace ci::rt {

namespace {

// Passes that read nothing before the node thread yields its core
// (qclt::Scheduler::run's kIdleSpinSlices).
constexpr int kIdleSpinPasses = 64;

}  // namespace

RtNode::RtNode(NodeId self, std::int32_t total_nodes, Engine* engine, qclt::Network* net,
               int core)
    : NodeLoop(self, total_nodes, engine), net_(net), core_(core) {}

RtNode::~RtNode() {
  request_stop();
  join();
}

void RtNode::thread_main() {
  if (core_ >= 0) pin_to_core(core_);
  // Connections to every peer (netlisten/dial collapsed into an eager mesh).
  conns_.resize(static_cast<std::size_t>(total_nodes()));
  for (NodeId peer = 0; peer < total_nodes(); ++peer) {
    if (peer == id()) continue;
    const qclt::Duplex d = net_->duplex(id(), peer);
    conns_[static_cast<std::size_t>(peer)] = std::make_unique<qclt::Connection>(d.out, d.in);
  }
  run();
}

void RtNode::wait(bool progress) {
  // On a dedicated core the yield returns at once; on an oversubscribed
  // one, without it every idle node burns full timeslices on empty passes
  // and one agreement round takes tens of scheduler quanta.
  if (progress) {
    idle_passes_ = 0;
  } else if (++idle_passes_ >= kIdleSpinPasses) {
    idle_passes_ = 0;
    std::this_thread::yield();
  }
}

bool RtNode::read(NodeId peer) {
  unsigned char buf[kWireBufBytes];
  const std::int32_t n = conns_[static_cast<std::size_t>(peer)]->try_read(buf, sizeof(buf));
  if (n < 0) return false;
  // The queues carry only frames peer RtNodes encoded into shared memory: a
  // frame that fails to decode is a bug, not hostile input (contrast
  // NetNode, which drops the link).
  CI_CHECK_MSG(deliver(buf, static_cast<std::uint32_t>(n)), "malformed message on the wire");
  return true;
}

bool RtNode::write(NodeId peer, const Message& m, std::uint32_t frame_len) {
  qclt::SpscQueue* q = conns_[static_cast<std::size_t>(peer)]->out_queue();
  if (q->free_slots() < qclt::wire::fragments_for(frame_len)) return false;
  // Encode straight into the reserved slots, src/dst stamped mid-flight: no
  // frame buffer, no Message copy just to rewrite two header fields.
  SlotFrameWriter w(q, frame_len);
  encode(m, w, peer, frame_len);
  w.finish();
  return true;
}

bool RtNode::write(NodeId peer, const Frame& frame) {
  return conns_[static_cast<std::size_t>(peer)]->try_write(
      frame.data(), static_cast<std::uint32_t>(frame.size()));
}

}  // namespace ci::rt
