// One protocol node on one OS thread, pinned to one core — the deployment
// unit of §7.1 (replicas on cores 0..2, clients on the rest, via taskset).
//
// The thread runs core::NodeLoop over QC-libtask connections: each pass
// polls every peer's incoming SPSC queue for at most one frame (§6.2's
// one-message-per-reader interleaving), ticks the engine and replays
// backlogged frames. Sends never block: a frame
// that finds its outgoing queue full joins the loop's per-peer backlog, so
// an engine can never deadlock on a full queue.
//
// The loop busy-polls while frames flow (the paper's runtime owns its
// core) and gives the OS thread up after a streak of passes that read
// nothing — the rule of qclt::Scheduler::run, which lets an oversubscribed
// host (fewer cores than nodes) run the peer holding the next message.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/node_loop.hpp"
#include "qclt/connection.hpp"
#include "qclt/net.hpp"
#include "rt/wire.hpp"

namespace ci::rt {

using consensus::Engine;
using consensus::Message;
using consensus::NodeId;

class RtNode : public core::NodeLoop<RtNode> {
 public:
  // `total_nodes` peers are assumed to occupy ids [0, total_nodes); the
  // full mesh is created through `net`. core < 0 leaves the thread unpinned.
  RtNode(NodeId self, std::int32_t total_nodes, Engine* engine, qclt::Network* net, int core);
  ~RtNode();

 private:
  friend class core::NodeLoop<RtNode>;

  // Queue slots carry codec frames as they are (fragment headers are the
  // slots' own framing, not link bytes the counters report).
  static constexpr std::uint32_t kFramePrefixBytes = 0;

  void thread_main();
  void wait(bool progress);
  // The spinning wait notices new work on its next pass.
  void notify() {}
  bool read(NodeId peer);
  bool link_up(NodeId) const { return true; }
  bool write(NodeId peer, const Message& m, std::uint32_t frame_len);
  bool write(NodeId peer, const Frame& frame);

  qclt::Network* net_;
  int core_;
  std::vector<std::unique_ptr<qclt::Connection>> conns_;  // index = peer id; self = null
  int idle_passes_ = 0;
};

}  // namespace ci::rt
