// One protocol node on one OS thread, owning a nonblocking TCP socket set —
// the net backend's deployment unit. Where RtNode's mesh is SPSC queues in
// shared memory, NetNode's is sockets: same engines, same wire::Codec frame
// bytes, plus a 4-byte length prefix per frame (net/framing.hpp) because a
// TCP stream has no slot boundaries.
//
// Lifecycle on the node thread:
//   1. listen (port_base + self, or ephemeral);
//   2. register with the registry and block for the full node -> endpoint
//      map (net/registry.hpp);
//   3. dial every lower-id peer / accept every higher-id peer, exchanging
//      MeshHello so the acceptor knows who dialed — listeners exist before
//      anyone registers, so dialing needs only bounded retry;
//   4. switch all links nonblocking, run the engine over a poll() loop:
//      recv -> reassemble -> decode -> on_message, tick every iteration,
//      flush per-link send rings (unless an IoPool owns flushing).
//
// Send path: wire::FrameWriter encodes straight into the link's SendRing
// (RingFrameWriter — the PR 7 zero-copy seam pointed at a socket); overflow
// frames go to a per-link backlog of encoded bytes and are promoted as the
// ring drains. A link whose peer vanished (EOF/ECONNRESET, or our own
// kill()) turns dead: sends to it are dropped, which is exactly the
// paper-faithful failure model — a killed node is silence, not an error.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "consensus/engine.hpp"
#include "consensus/wire_codec.hpp"
#include "core/node_faults.hpp"
#include "net/endpoint.hpp"
#include "net/framing.hpp"
#include "net/registry.hpp"
#include "net/send_ring.hpp"
#include "net/socket.hpp"

namespace ci::net {

using consensus::Command;
using consensus::Engine;
using consensus::GroupId;
using consensus::Instance;
using consensus::Message;
using consensus::NodeId;

// Everything a node needs to find and join its mesh.
struct MeshConfig {
  Endpoint registry;
  std::int32_t total_nodes = 0;
  std::uint16_t port_base = 0;  // node i listens on port_base + i; 0 = ephemeral
  Nanos bootstrap_deadline = 20 * kSecond;
  std::size_t ring_bytes = 0;  // 0 = derive from wire::kMaxFrameBytes
};

// Send-ring capacity for a deployment's batch policy: several prefixed
// max-size frames, so group commit never falls off the zero-copy path just
// because one frame is in flight.
inline std::size_t ring_bytes_for(const consensus::BatchPolicy& policy) {
  const std::size_t frame = kLenPrefixBytes + wire::max_frame_bytes(policy);
  std::size_t cap = 1;
  while (cap < 4 * frame) cap <<= 1;
  return cap < (1u << 16) ? (1u << 16) : cap;
}

class IoPool;

class NetNode {
 public:
  // Peers occupy ids [0, cfg.total_nodes). `pool` may be null (the node
  // thread flushes its own rings); a non-null pool takes over flushing once
  // the mesh is up.
  NetNode(NodeId self, Engine* engine, const MeshConfig& cfg, IoPool* pool);
  ~NetNode();

  NetNode(const NetNode&) = delete;
  NetNode& operator=(const NetNode&) = delete;

  void start();
  void request_stop();
  void join();

  // Fault injection: drop every socket and stop the node, from the peers'
  // point of view indistinguishable from the process dying. Commands the
  // node acked before the kill are already replicated (that is what an ack
  // means), which the net fault suite asserts end to end.
  void kill();

  // Mesh is up and the engine has started (set on the node thread).
  bool ready() const { return ready_.load(std::memory_order_acquire); }

  // Fault and clock controls (core/node_faults.hpp), the same per-message
  // stall and perceived-clock skew as RtNode.
  void set_slow_factor(std::uint32_t factor) { faults_.set_slow_factor(factor); }
  void stretch_clock(double rate) { faults_.stretch_clock(rate); }

  NodeId id() const { return self_; }
  std::uint64_t messages_sent() const { return ctx_->sent.load(std::memory_order_relaxed); }
  // Actual socket bytes behind messages_sent(): frame bytes PLUS the length
  // prefix per frame — what a packet capture would count.
  std::uint64_t bytes_sent() const { return ctx_->sent_bytes.load(std::memory_order_relaxed); }

  // Consumer half of every link's SendRing; called by the node thread each
  // poll iteration, or by the IoPool worker owning this node.
  void flush_rings();

 private:
  class Ctx final : public consensus::Context {
   public:
    explicit Ctx(NetNode* node) : node_(node) {}
    NodeId self() const override { return node_->self_; }
    Nanos now() const override { return node_->faults_.now(); }
    void send(NodeId dst, const Message& m) override { node_->send(dst, m); }
    // Delivery reporting happens in the GroupDemuxEngine hosted on every
    // node (core::ThreadedCluster's hook logs per node thread), same as rt.
    void deliver(Instance, const Command&) override {}

    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> sent_bytes{0};

   private:
    NetNode* node_;
  };

  struct Link {
    Socket sock;
    std::unique_ptr<SendRing> ring;
    std::deque<std::vector<unsigned char>> backlog;  // prefixed frames awaiting ring space
    FrameReassembler reasm;
    std::atomic<bool> dead{false};

    explicit Link(std::size_t ring_bytes, std::uint32_t max_frame)
        : ring(std::make_unique<SendRing>(ring_bytes)), reasm(max_frame) {}
  };

  void thread_main();
  bool bootstrap();
  void poll_loop();
  void recv_link(NodeId peer);
  bool handle_frame(const unsigned char* p, std::uint32_t len);
  void send(NodeId dst, const Message& m);
  void promote_backlogs();
  void drain_self_queue();

  NodeId self_;
  Engine* engine_;
  MeshConfig cfg_;
  IoPool* pool_;
  std::size_t ring_bytes_;

  std::unique_ptr<Ctx> ctx_;
  std::vector<std::unique_ptr<Link>> links_;  // index = peer id; self = null
  std::vector<unsigned char> rbuf_;           // recv scratch, node thread only
  std::deque<Message> self_queue_;            // deferred self-sends (no reentrancy)
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> killed_{false};
  std::atomic<bool> ready_{false};
  core::NodeFaults faults_;
};

// Dedicated socket-flusher threads (`--net-io-threads`): each worker drains
// the send rings of the nodes it owns (node id modulo worker count — a
// stable partition, so every ring keeps exactly one consumer and the SPSC
// contract holds). Nodes register after their mesh is up and deregister
// before closing any socket; remove() takes the writer lock, so it returns
// only once no worker is mid-flush on the departing node.
class IoPool {
 public:
  explicit IoPool(std::int32_t threads);
  ~IoPool();

  IoPool(const IoPool&) = delete;
  IoPool& operator=(const IoPool&) = delete;

  void add(NetNode* node);
  void remove(NetNode* node);

 private:
  void worker(std::size_t idx);

  std::size_t nthreads_;
  std::shared_mutex mu_;
  std::vector<NetNode*> nodes_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
};

}  // namespace ci::net
