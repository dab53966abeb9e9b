// One protocol node on one OS thread, owning a nonblocking TCP socket set —
// the net backend's deployment unit. It is core::NodeLoop over sockets
// where RtNode's mesh is SPSC queues in shared memory: same engines, same
// wire::Codec frame bytes, plus a 4-byte length prefix per frame
// (net/framing.hpp) because a TCP stream has no slot boundaries.
//
// Lifecycle on the node thread:
//   1. listen (port_base + self, or ephemeral);
//   2. register with the registry and block for the full node -> endpoint
//      map (net/registry.hpp);
//   3. dial every lower-id peer / accept every higher-id peer, exchanging
//      MeshHello so the acceptor knows who dialed — listeners exist before
//      anyone registers, so dialing needs only bounded retry;
//   4. switch all links nonblocking and run the node loop. Each pass waits
//      in ppoll() on every link plus an eventfd (POLLOUT only while bytes
//      are pending, and only when the node flushes its own rings), until
//      the engine's next deadline (Engine::next_deadline) and at most
//      1 ms; then it makes one recv per readable link and delivers every
//      frame it completes. wake() writes the eventfd: a command submitted
//      from another thread ends the wait at once instead of at the next
//      timer or frame;
//   5. on stop or kill(), close every socket: peers see EOF.
//
// Send path: wire::FrameWriter encodes straight into the link's SendRing
// (RingFrameWriter — the zero-copy seam pointed at a socket); frames that
// find the ring full wait in the loop's backlog and are pushed behind
// their length prefix as the ring drains. A link whose peer vanished
// (EOF/ECONNRESET), or that delivered bytes which do not decode, turns
// dead: sends to it are dropped, which is exactly the paper-faithful
// failure model — a killed node is silence, not an error.
#pragma once

#include <poll.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "consensus/wire_codec.hpp"
#include "core/node_loop.hpp"
#include "net/endpoint.hpp"
#include "net/framing.hpp"
#include "net/registry.hpp"
#include "net/send_ring.hpp"
#include "net/socket.hpp"

namespace ci::net {

using consensus::Engine;
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

// What ended each of a node's waits, counted once per pass: the eventfd
// (wake()), a link (readable, writable or closed), or the deadline or the
// 1 ms cap expiring with neither.
struct WakeCounts {
  std::uint64_t eventfd = 0;
  std::uint64_t socket = 0;
  std::uint64_t timeout = 0;
};

class NetNode : public core::NodeLoop<NetNode> {
 public:
  // Peers occupy ids [0, cfg.total_nodes). `pool` may be null (the node
  // thread flushes its own rings); a non-null pool takes over flushing once
  // the mesh is up.
  NetNode(NodeId self, Engine* engine, const MeshConfig& cfg, IoPool* pool);
  ~NetNode();

  // Fault injection: stop the node, which drops every socket — from the
  // peers' point of view indistinguishable from the process dying. Commands
  // the node acked before the kill are already replicated (that is what an
  // ack means), which the net fault suite asserts end to end.
  void kill() { request_stop(); }

  // Mesh is up and the engine has started (set on the node thread).
  bool ready() const { return ready_.load(std::memory_order_acquire); }

  // Consumer half of every link's SendRing; called by the node thread each
  // pass, or by the IoPool worker owning this node.
  void flush_rings();

  // Readable from any thread while the node runs (relaxed counters).
  WakeCounts wake_counts() const {
    return WakeCounts{wakes_eventfd_.load(std::memory_order_relaxed),
                      wakes_socket_.load(std::memory_order_relaxed),
                      wakes_timeout_.load(std::memory_order_relaxed)};
  }

 private:
  friend class core::NodeLoop<NetNode>;

  // Socket bytes per frame beyond the codec frame: what a packet capture
  // would count, so bytes_sent() includes it.
  static constexpr std::uint32_t kFramePrefixBytes = kLenPrefixBytes;

  struct Link {
    Socket sock;
    std::unique_ptr<SendRing> ring;
    FrameReassembler reasm;
    std::atomic<bool> dead{false};

    explicit Link(std::size_t ring_bytes, std::uint32_t max_frame)
        : ring(std::make_unique<SendRing>(ring_bytes)), reasm(max_frame) {}
  };

  void thread_main();
  bool bootstrap();
  void wait(bool progress);
  void notify();
  bool read(NodeId peer);
  bool link_up(NodeId peer) const;
  bool write(NodeId peer, const Message& m, std::uint32_t frame_len);
  bool write(NodeId peer, const Frame& frame);

  MeshConfig cfg_;
  IoPool* pool_;
  std::size_t ring_bytes_;

  std::vector<std::unique_ptr<Link>> links_;  // index = peer id; self = null
  std::vector<unsigned char> rbuf_;           // recv scratch, node thread only
  Socket wake_fd_;                            // eventfd behind wake()
  std::vector<pollfd> pfds_;                  // this pass's poll set; [0] = wake_fd_
  std::vector<NodeId> pfd_peer_;              // peer behind pfds_[i + 1]
  std::vector<bool> readable_;                // per peer, from this pass's poll
  std::atomic<bool> ready_{false};
  std::atomic<std::uint64_t> wakes_eventfd_{0};
  std::atomic<std::uint64_t> wakes_socket_{0};
  std::atomic<std::uint64_t> wakes_timeout_{0};
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
