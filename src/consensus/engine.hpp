// Transport-agnostic protocol engines.
//
// Every protocol (2PC, Basic-/Multi-Paxos, 1Paxos, PaxosUtility, clients) is
// a deterministic state machine driven by on_message() and tick(). The same
// engine code runs under the discrete-event simulator (property tests,
// full-scale sweeps) and the real pinned-core runtime (latency benches) —
// only the Context implementation differs.
#pragma once

#include <cstdint>

#include "common/time.hpp"
#include "consensus/batch.hpp"
#include "consensus/message.hpp"
#include "consensus/state_machine.hpp"
#include "consensus/types.hpp"

namespace ci::consensus {

// Services a runtime provides to an engine. All calls are made from the
// engine's own node; engines never share state across nodes.
class Context {
 public:
  virtual ~Context() = default;

  virtual NodeId self() const = 0;
  virtual Nanos now() const = 0;

  // Queues a message. dst == self() is legal and delivered locally without
  // crossing a node boundary (collapsed-roles deployments rely on it).
  virtual void send(NodeId dst, const Message& m) = 0;

  // Reports a decided-and-executed log entry to the hosting runtime, in
  // instance order. Tests use this to check agreement invariants.
  virtual void deliver(Instance in, const Command& cmd) = 0;
};

struct EngineConfig {
  NodeId self = kNoNode;
  std::int32_t num_replicas = 3;

  // Timeouts. Defaults suit the many-core regime (microsecond latencies);
  // LAN-model simulations scale them up.
  Nanos retry_timeout = 200 * kMicrosecond;      // resend unacked protocol messages
  Nanos fd_timeout = 1 * kMillisecond;           // suspect leader after silence
  Nanos heartbeat_period = 200 * kMicrosecond;   // leader heartbeat interval

  // Max outstanding (proposed, not yet decided) instances per leader. Kept
  // at half kMaxProposalsPerMsg so one reconfiguration entry can carry the
  // union of two uncommitted windows.
  std::int32_t pipeline_window = kMaxProposalsPerMsg / 2;

  // Leader-side request batching (consensus/batch.hpp). The default
  // (max_commands == 1) decides one command per instance.
  BatchPolicy batch;

  // Leader leases (DESIGN.md §1f). lease_duration > 0 makes heartbeats
  // carry lease renewal rounds: each follower grants "I will not elect or
  // support another leader for lease_duration from my receive time", and a
  // leader holding unexpired grants from a majority answers Op::kRead /
  // Op::kReadVersioned from its applied state machine without a log entry.
  // The leader discounts every grant by lease_epsilon against its OWN send
  // time, so correctness needs only bounded relative clock-rate skew (the
  // follower's lease_duration must not elapse faster than the leader's
  // lease_duration - lease_epsilon). 0 = leases off: no grants, no fast
  // path, wire traffic bit-identical to the pre-lease system.
  Nanos lease_duration = 0;
  Nanos lease_epsilon = 0;

  // Applied state machine; may be null (agreement only).
  StateMachine* state_machine = nullptr;

  // Seed for engine-local randomization (timeout jitter); keyed per node by
  // runtimes so simulations stay deterministic.
  std::uint64_t seed = 1;
};

class Engine {
 public:
  virtual ~Engine() = default;

  // Called once before any message is delivered.
  virtual void start(Context&) {}

  virtual void on_message(Context& ctx, const Message& m) = 0;

  // Called periodically by the runtime (tick interval is a runtime choice);
  // drives timeouts and retries.
  virtual void tick(Context&) {}

  // The earliest instant, in the engine's clock (ctx.now()), at which
  // tick() has work: a flush, heartbeat, retry or detector expiry. A
  // runtime may sleep until then, or until a message arrives, whichever is
  // first; a message can move the deadline, so it asks again after each.
  // The contract has one rule: return a value <= now only while tick(now)
  // would consume it — send something or change state — so that right
  // after tick(t), next_deadline(t) > t. A deadline that tick leaves due
  // (say, a full batch behind a full pipeline window) makes a waking
  // runtime spin. A future deadline earlier than the true instant costs
  // one no-op tick; a later one is a missed timer. kNoDeadline, the
  // default, means no timer of this engine is armed and the runtime keeps
  // its own cap.
  virtual Nanos next_deadline(Nanos /*now*/) const { return kNoDeadline; }

  // Test/bench introspection: which node this engine currently believes
  // coordinates the protocol (leader / 2PC coordinator).
  virtual NodeId believed_leader() const { return kNoNode; }
};

// Convenience: all replica node ids are [0, num_replicas).
inline bool is_replica(const EngineConfig& cfg, NodeId n) {
  return n >= 0 && n < cfg.num_replicas;
}

inline std::int32_t majority(std::int32_t num_replicas) { return num_replicas / 2 + 1; }

}  // namespace ci::consensus
