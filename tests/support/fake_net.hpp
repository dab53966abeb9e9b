// Hand-stepped test harness for protocol engines: a FakeNet delivers
// messages one at a time (or in bulk), lets tests drop/reorder specific
// messages, and advances virtual time to fire engine timers. This gives the
// unit tests surgical control that the discrete-event simulator (which
// models costs) does not aim to provide.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "consensus/engine.hpp"
#include "consensus/wire_codec.hpp"

namespace ci::test {

using ci::Nanos;
using consensus::Command;
using consensus::Context;
using consensus::Engine;
using consensus::Instance;
using consensus::Message;
using consensus::MsgType;
using consensus::NodeId;

class FakeNet {
 public:
  // In-flight and externally-captured messages may own pooled command
  // bodies (batches longer than the inline buffer); return them. NOTE:
  // tests that peek-copy a message, drop the original, and re-inject the
  // copy later rely on inline bodies — keep hand-stepped batch sizes at or
  // below consensus::kInlineBatchCommands.
  ~FakeNet() {
    for (const Message& m : queue_) ci::wire::release_body(m);
    for (const Message& m : external_) ci::wire::release_body(m);
  }

  // Engines are registered with dense ids starting at 0.
  void add(Engine* e) {
    auto ctx = std::make_unique<Ctx>();
    ctx->net = this;
    ctx->id = static_cast<NodeId>(ctxs_.size());
    ctx->engine = e;
    ctxs_.push_back(std::move(ctx));
  }

  void start_all() {
    for (auto& c : ctxs_) c->engine->start(*c);
  }

  Nanos now() const { return now_; }

  // Moves time forward and runs every engine's tick once.
  void advance(Nanos d) {
    now_ += d;
    for (auto& c : ctxs_) c->engine->tick(*c);
  }

  void tick_all() {
    for (auto& c : ctxs_) c->engine->tick(*c);
  }

  std::size_t pending() const { return queue_.size(); }
  const Message& peek(std::size_t i = 0) const { return queue_[i]; }

  // Delivers the oldest in-flight message. Returns false if none.
  bool step() {
    if (queue_.empty()) return false;
    Message m = queue_.front();
    queue_.pop_front();
    deliver(m);
    return true;
  }

  // Delivers messages until the network is quiet (bounded by `limit` steps).
  int run(int limit = 100000) {
    int steps = 0;
    while (step()) {
      if (++steps >= limit) break;
    }
    return steps;
  }

  // Removes all in-flight messages matching the predicate; returns count.
  int drop_if(const std::function<bool(const Message&)>& pred) {
    int dropped = 0;
    std::deque<Message> kept;
    for (auto& m : queue_) {
      if (pred(m)) {
        dropped++;
        ci::wire::release_body(m);
      } else {
        kept.push_back(m);
      }
    }
    queue_ = std::move(kept);
    return dropped;
  }

  // Drops every message to or from a node (models an unresponsive core).
  void isolate(NodeId n) { isolated_.insert(n); }
  void heal(NodeId n) { isolated_.erase(n); }

  // From the current virtual time on, node n's PERCEIVED clock (its
  // Context::now()) advances `rate` times virtual time — the clock-skew
  // adversary of the lease staleness tests. Re-anchored at the switch so
  // the perceived clock never jumps backwards.
  void stretch_clock(NodeId n, double rate) {
    auto& c = *ctxs_[static_cast<std::size_t>(n)];
    c.skew_anchor_seen = c.now();
    c.skew_anchor_real = now_;
    c.skew_rate = rate;
  }

  // Injects a message as if sent externally.
  void inject(const Message& m) { queue_.push_back(m); }

  // Per-node delivered (instance, command) records.
  const std::vector<std::pair<Instance, Command>>& delivered(NodeId n) const {
    return ctxs_[static_cast<std::size_t>(n)]->delivered;
  }

  // The node's Context, for driving engine APIs directly from tests.
  Context& ctx(NodeId n) { return *ctxs_[static_cast<std::size_t>(n)]; }

  // All messages ever sent, for message-count assertions.
  std::uint64_t sent_count(NodeId n) const { return ctxs_[static_cast<std::size_t>(n)]->sent; }

  // Messages addressed to ids without a registered engine (e.g. replies to
  // clients the test injected by hand) land here instead of crashing.
  const std::vector<Message>& external() const { return external_; }
  void clear_external() {
    for (const Message& m : external_) ci::wire::release_body(m);
    external_.clear();
  }

 private:
  struct Ctx final : Context {
    NodeId self() const override { return id; }
    Nanos now() const override {
      if (skew_rate == 1.0) return net->now_;
      return skew_anchor_seen +
             static_cast<Nanos>(static_cast<double>(net->now_ - skew_anchor_real) *
                                skew_rate);
    }
    void send(NodeId dst, const Message& m) override {
      Message out = m;
      out.src = id;
      out.dst = dst;
      if (id != dst) sent++;
      if (net->isolated_.count(id) != 0 || net->isolated_.count(dst) != 0) {
        ci::wire::release_body(out);  // send() consumed it; nobody delivers
        return;
      }
      net->queue_.push_back(out);
    }
    void deliver(Instance in, const Command& cmd) override { delivered.emplace_back(in, cmd); }

    FakeNet* net = nullptr;
    NodeId id = -1;
    Engine* engine = nullptr;
    std::uint64_t sent = 0;
    std::vector<std::pair<Instance, Command>> delivered;
    // Clock skew (stretch_clock): perceived = seen + (virtual - real) * rate.
    Nanos skew_anchor_real = 0;
    Nanos skew_anchor_seen = 0;
    double skew_rate = 1.0;
  };

  void deliver(const Message& m) {
    if (isolated_.count(m.dst) != 0) {
      ci::wire::release_body(m);
      return;
    }
    if (m.dst < 0 || m.dst >= static_cast<NodeId>(ctxs_.size())) {
      external_.push_back(m);  // custody parks here until clear/destruction
      return;
    }
    auto& c = ctxs_[static_cast<std::size_t>(m.dst)];
    c->engine->on_message(*c, m);
    ci::wire::release_body(m);
  }

  Nanos now_ = 0;
  std::deque<Message> queue_;
  std::vector<Message> external_;
  std::vector<std::unique_ptr<Ctx>> ctxs_;
  std::set<NodeId> isolated_;
};

// A 1Paxos learn of one command for one instance: a kOpxBatchLearn of one,
// or a catch-up kOpxLearnRun of one.
inline bool single_learn(const Message& m) {
  return (m.type == MsgType::kOpxBatchLearn && m.u.opx_batch_learn.count == 1) ||
         (m.type == MsgType::kOpxLearnRun && m.u.opx_learn_run.count == 1);
}

// Convenience builders.
inline Message client_request(NodeId client, NodeId dst, std::uint32_t seq,
                              consensus::Op op = consensus::Op::kWrite, std::uint64_t key = 1,
                              std::uint64_t value = 0) {
  Message m(MsgType::kClientRequest, consensus::ProtoId::kClient, client, dst);
  m.u.client_request.cmd.client = client;
  m.u.client_request.cmd.seq = seq;
  m.u.client_request.cmd.op = op;
  m.u.client_request.cmd.key = key;
  m.u.client_request.cmd.value = value;
  return m;
}

}  // namespace ci::test
