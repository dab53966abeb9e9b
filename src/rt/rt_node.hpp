// One protocol node on one OS thread, pinned to one core — the deployment
// unit of §7.1 (replicas on cores 0..2, clients on the rest, via taskset).
//
// Inside the thread a QC-libtask scheduler runs:
//   * one reader task per peer connection, blocking on the incoming queue
//     (the paper's fdread-style interface, §6.2) and feeding the engine;
//   * a main task that drives engine ticks, drains deferred self-sends, and
//     flushes sends that found their outgoing queue full.
//
// Engine handlers run inside whichever task delivered the message; sends
// are non-blocking (overflow goes to a per-peer pending buffer) so an
// engine can never deadlock on a full queue.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "consensus/engine.hpp"
#include "core/node_faults.hpp"
#include "qclt/connection.hpp"
#include "qclt/net.hpp"
#include "qclt/scheduler.hpp"
#include "rt/wire.hpp"

namespace ci::rt {

using consensus::Command;
using consensus::Engine;
using consensus::Instance;
using consensus::Message;
using consensus::NodeId;

class RtNode {
 public:
  // `total_nodes` peers are assumed to occupy ids [0, total_nodes); the
  // full mesh is created through `net`. core < 0 leaves the thread unpinned.
  RtNode(NodeId self, std::int32_t total_nodes, Engine* engine, qclt::Network* net, int core);
  ~RtNode();

  RtNode(const RtNode&) = delete;
  RtNode& operator=(const RtNode&) = delete;

  void start();
  void request_stop();
  void join();

  // Fault and clock controls (core/node_faults.hpp): per-message stall
  // and perceived-clock skew.
  void set_slow_factor(std::uint32_t factor) { faults_.set_slow_factor(factor); }
  void stretch_clock(double rate) { faults_.stretch_clock(rate); }

  NodeId id() const { return self_; }
  std::uint64_t messages_sent() const { return ctx_->sent.load(std::memory_order_relaxed); }
  // Encoded frame bytes behind messages_sent() (boundary crossings only).
  std::uint64_t bytes_sent() const { return ctx_->sent_bytes.load(std::memory_order_relaxed); }

 private:
  class Ctx final : public consensus::Context {
   public:
    explicit Ctx(RtNode* node) : node_(node) {}
    NodeId self() const override { return node_->self_; }
    Nanos now() const override { return node_->faults_.now(); }
    void send(NodeId dst, const Message& m) override { node_->send(dst, m); }
    // Delivery reporting happens in the GroupDemuxEngine hosted on every
    // node (core::ThreadedCluster's hook logs per node thread and replays
    // into the per-group recorders after join()); the transport has no
    // channel.
    void deliver(Instance, const Command&) override {}

    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> sent_bytes{0};

   private:
    RtNode* node_;
  };

  void thread_main();
  void send(NodeId dst, const Message& m);
  void flush_pending(NodeId peer);
  void drain_self_queue();

  NodeId self_;
  std::int32_t total_nodes_;
  Engine* engine_;
  qclt::Network* net_;
  int core_;

  std::unique_ptr<Ctx> ctx_;
  std::unique_ptr<qclt::Scheduler> sched_;
  std::vector<std::unique_ptr<qclt::Connection>> conns_;  // index = peer id; self = null
  std::vector<std::deque<std::vector<unsigned char>>> pending_;  // overflow per peer
  std::deque<Message> self_queue_;  // deferred self-sends (no reentrancy)
  std::thread thread_;
  std::atomic<bool> stop_{false};
  core::NodeFaults faults_;
};

}  // namespace ci::rt
