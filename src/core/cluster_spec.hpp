// The backend-agnostic deployment specification.
//
// One ClusterSpec describes a full experiment — protocol, topology, engine
// knobs, client workload, fault schedule — and runs unchanged on either
// backend: the discrete-event simulator (sim) or the real pinned-thread
// runtime (rt). The per-backend structs at the bottom carry only what a
// spec cannot abstract over (the simulator's cost model, thread pinning).
//
// See DESIGN.md §1 for how SimCluster / ThreadedCluster consume
// this through core::Deployment.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "consensus/engine.hpp"
#include "core/latency_model.hpp"
#include "core/protocol.hpp"

namespace ci::core {

// Which runtime executes the spec. kSim is the deterministic many-core
// simulation of §3's cost model; kRt is QC-libtask message passing between
// pinned OS threads (§6-7); kNet is the TCP socket mesh (src/net) — the
// same wire::Codec frames over real sockets, the step from "consensus
// inside one machine" to a deployable replicated service.
enum class Backend { kSim, kRt, kNet };

inline const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kSim:
      return "sim";
    case Backend::kRt:
      return "rt";
    case Backend::kNet:
      return "net";
  }
  return "?";
}

// Closed-loop client workload (§7.1): send, wait for the commit ACK,
// optionally think, repeat.
struct WorkloadSpec {
  Nanos request_timeout = 2 * kMillisecond;
  Nanos think_time = 0;                  // §7.4 uses 2 ms between requests
  double read_fraction = 0.0;            // §7.5 read workloads
  std::uint64_t requests_per_client = 0; // 0 = run until deadline/stop
  // Commands per closed-loop round, shipped as one kClientCmdBatch frame;
  // 1 = one kClientRequest at a time (the classic loop).
  std::int32_t round_size = 1;
};

// A named, internally-consistent set of timer constants. The three profiles
// are the three regimes the paper runs in; they replace the divergent
// defaults that used to be restated across EngineConfig, ClusterOptions and
// RtClusterOptions.
struct TimeoutProfile {
  Nanos retry_timeout;
  Nanos fd_timeout;
  Nanos heartbeat_period;
  Nanos request_timeout;
  Nanos tick_period;  // sim event granularity; ignored by rt
  std::int32_t pipeline_window;
  // Leader leases (DESIGN.md §1f). All three stock profiles ship with
  // leases OFF (0): a lease changes the wire (heartbeats open renewal
  // rounds, followers answer with kLeaseGrant frames), so it is strictly
  // opt-in — `--lease-ms` on the harness, or set these two directly. When
  // opting in, lease must comfortably exceed heartbeat_period (renewals
  // ride heartbeats) and lease_epsilon is the clock-skew margin subtracted
  // from every grant; a lease below fd_timeout + epsilon buys nothing.
  Nanos lease = 0;
  Nanos lease_epsilon = 0;

  // Simulated many-core (microsecond message costs) — the EngineConfig
  // defaults.
  static TimeoutProfile many_core() {
    consensus::EngineConfig d;
    return TimeoutProfile{d.retry_timeout, d.fd_timeout, d.heartbeat_period,
                          2 * kMillisecond, 20 * kMicrosecond, d.pipeline_window};
  }

  // Simulated LAN (prop 135 µs needs millisecond timers, and a pipeline
  // deep enough for the bandwidth-delay product — the paper's LAN
  // deployments were not window-limited).
  static TimeoutProfile lan() {
    return TimeoutProfile{20 * kMillisecond, 200 * kMillisecond, 50 * kMillisecond,
                          500 * kMillisecond, 1 * kMillisecond, 128};
  }

  // Real threads. The failure detector is generous: container/VM scheduling
  // can stall a healthy thread for several milliseconds, and false
  // suspicion triggers gratuitous reconfiguration.
  static TimeoutProfile real_threads() {
    consensus::EngineConfig d;
    return TimeoutProfile{2 * kMillisecond, 25 * kMillisecond, 2 * kMillisecond,
                          10 * kMillisecond, 20 * kMicrosecond, d.pipeline_window};
  }
};

// One fault-injection event, interpreted by the backend:
//   * kSlowNode — the node's processing slows by `factor` during
//     [at, until). Sim scales the node's simulated CPU costs; rt stalls the
//     node thread per message (RtNode::set_slow_factor). The paper models
//     failures as slow cores (§1 fn. 3).
//   * kResetAcceptor — 1Paxos-only silent acceptor reboot at `at`
//     (DESIGN.md A3); deterministic state surgery, so sim-only.
//   * kStretchClock — from `at` on, the node's LOCAL clock runs at `factor`
//     times real (virtual or wall) time: Context::now() returns
//     at + (t - at) * factor. factor > 1 models a fast local clock.
//     Applied to a leader's FOLLOWERS it is the lease protocol's adversary:
//     their grants lapse early in true time, so they can depose the leader
//     while it still believes its lease — past the epsilon guard once
//     (factor - 1) * lease_duration > lease_epsilon. (A fast clock on the
//     leader itself is conservative: it only expires its belief sooner.)
//     Both backends apply it (sim via the NodeCtx clock, rt via RtNode).
// `node` is a deployment-local id. Under a sharded spec the plan is part of
// the per-group template like everything else in the ClusterSpec: each
// event applies to node `node` of EVERY group (a slow leader means every
// group's leader is slow), mapped to transport nodes by the placement.
struct FaultEvent {
  enum class Kind { kSlowNode, kResetAcceptor, kStretchClock };
  Kind kind = Kind::kSlowNode;
  consensus::NodeId node = 0;
  Nanos at = 0;     // relative to run start (virtual or wall)
  Nanos until = 0;  // end of a slow window
  double factor = 1.0;
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  FaultPlan& slow_node(consensus::NodeId node, Nanos at, Nanos until, double factor) {
    events.push_back({FaultEvent::Kind::kSlowNode, node, at, until, factor});
    return *this;
  }

  FaultPlan& reset_acceptor_at(consensus::NodeId node, Nanos at) {
    events.push_back({FaultEvent::Kind::kResetAcceptor, node, at, 0, 1.0});
    return *this;
  }

  // The node's local clock runs at `rate` x true time from `at` on (no end:
  // a skewed oscillator does not heal itself). rate > 1 = fast clock.
  FaultPlan& stretch_clock(consensus::NodeId node, Nanos at, double rate) {
    events.push_back({FaultEvent::Kind::kStretchClock, node, at, 0, rate});
    return *this;
  }
};

// The one slow-window rule: the slowdown `node` runs at `t` into the run is
// the largest factor among its kSlowNode windows [at, until) open at t, 1
// when none is. Overlapping windows compose by max, so healing one window
// cannot erase another. The simulator scales its costs by this factor as
// is; the threaded transports round it to a stall factor (slow_factor_at).
inline double slow_window_factor(const std::vector<FaultEvent>& events, consensus::NodeId node,
                                 Nanos t) {
  double factor = 1.0;
  for (const FaultEvent& e : events) {
    if (e.kind == FaultEvent::Kind::kSlowNode && e.node == node && t >= e.at && t < e.until) {
      factor = std::max(factor, e.factor);
    }
  }
  return factor;
}

// Simulator-only parameters.
struct SimParams {
  LatencyModel model = LatencyModel::many_core();
  Nanos tick_period = 20 * kMicrosecond;
};

// Real-thread-only parameters.
struct RtParams {
  bool pin = true;  // pin node threads to cores (wraps modulo the machine)
};

// Socket-mesh-only parameters (src/net). The defaults run a self-contained
// loopback deployment: an in-process registry on an ephemeral port, nodes
// listening on ephemeral ports, each node thread flushing its own sockets.
struct NetParams {
  // Node i listens on port_base + i; 0 = ephemeral ports (the registry map
  // is how peers learn them either way).
  std::uint16_t port_base = 0;
  // Where the registry binds, as "host:port" (`--net-registry`). Empty =
  // 127.0.0.1 with an ephemeral port.
  std::string registry;
  // Dedicated socket-flusher threads draining the per-connection send
  // rings; 0 = every node thread flushes its own rings in its poll loop.
  std::int32_t io_threads = 0;
};

struct ClusterSpec {
  Protocol protocol = Protocol::kOnePaxos;
  std::int32_t num_replicas = 3;
  std::int32_t num_clients = 1;
  bool joint = false;  // clients co-located with replicas (§7.4); then
                       // num_clients is ignored and every replica hosts one
  bool joint_local_reads = false;  // 2PC-Joint local read optimization (§7.5)
  std::uint64_t seed = 1;

  // Multi-Paxos acceptor-set ablation (DESIGN.md A2); -1 = all replicas.
  std::int32_t acceptor_count = -1;

  // The one copy of the engine knobs. Deployment stamps the per-node fields
  // (self, num_replicas, seed, state_machine) when wiring each engine; only
  // the timers and pipeline_window are read from here.
  consensus::EngineConfig engine;

  // Builds the applied state machine for replica `r` of each group. Null =
  // consensus::MapStateMachine (the repo's KV). This is what makes the
  // client layer (client::ServiceClient) serve ANY replicated service: the
  // deployment replicates whatever machine the spec supplies, and the
  // transaction hooks (StateMachine::txn_*) let it participate in
  // cross-shard 2PC if it implements them.
  std::function<std::unique_ptr<consensus::StateMachine>(consensus::NodeId r)>
      state_machine_factory;

  WorkloadSpec workload;
  FaultPlan faults;

  SimParams sim;
  RtParams rt;
  NetParams net;

  ClusterSpec& apply(const TimeoutProfile& p) {
    engine.retry_timeout = p.retry_timeout;
    engine.fd_timeout = p.fd_timeout;
    engine.heartbeat_period = p.heartbeat_period;
    engine.pipeline_window = p.pipeline_window;
    engine.lease_duration = p.lease;
    engine.lease_epsilon = p.lease_epsilon;
    workload.request_timeout = p.request_timeout;
    sim.tick_period = p.tick_period;
    return *this;
  }

  // Canonical profile for a backend: many-core simulation vs real threads.
  ClusterSpec& apply_backend_profile(Backend b) {
    return apply(b == Backend::kSim ? TimeoutProfile::many_core()
                                    : TimeoutProfile::real_threads());
  }

  std::int32_t client_count() const { return joint ? num_replicas : num_clients; }

  // Protocol nodes (excluding backend-private helpers such as the threaded
  // load manager): joint deployments fold each client into its replica's
  // node.
  std::int32_t node_count() const {
    return joint ? num_replicas : num_replicas + num_clients;
  }
};

// How a sharded deployment lays its groups' participants out over the
// transport's node ids (the simulated cores / pinned threads):
//   * kGroupMajor — group g owns the contiguous id block
//     [g*node_count, (g+1)*node_count): replicas cluster per group, like
//     giving each shard its own socket.
//   * kInterleaved — participant p of group g sits at p*groups + g:
//     same-role nodes of different groups are neighbors, spreading each
//     group across the machine.
//   * kCoLocated — every group's participant p shares transport node p:
//     one core hosts one replica of EVERY group (the paper's §2.1 end
//     state — many small groups partitioning one machine's state). Total
//     node count stays at one group's node_count.
enum class Placement { kGroupMajor, kInterleaved, kCoLocated };

const char* placement_name(Placement p);

// N independent consensus groups built from one ClusterSpec template.
// groups == 1 with kGroupMajor is exactly the single-group deployment.
// Each group gets its own engines, its own instance space, its own
// AgreementRecorder, and a derived seed (base.seed + g) so groups do not
// run in RNG lockstep (group 0 keeps the base seed).
struct ShardSpec {
  ClusterSpec base;
  std::int32_t groups = 1;
  Placement placement = Placement::kGroupMajor;

  ShardSpec() = default;
  explicit ShardSpec(ClusterSpec b, std::int32_t g = 1,
                     Placement p = Placement::kGroupMajor)
      : base(std::move(b)), groups(g), placement(p) {}

  std::int32_t nodes_per_group() const { return base.node_count(); }

  std::int32_t total_nodes() const {
    return placement == Placement::kCoLocated ? nodes_per_group()
                                              : groups * nodes_per_group();
  }

  // Transport node hosting participant `local` of group `g`.
  consensus::NodeId global_node(consensus::GroupId g, consensus::NodeId local) const {
    switch (placement) {
      case Placement::kGroupMajor:
        return g * nodes_per_group() + local;
      case Placement::kInterleaved:
        return local * groups + g;
      case Placement::kCoLocated:
        return local;
    }
    return consensus::kNoNode;
  }

  ClusterSpec group_spec(consensus::GroupId g) const {
    ClusterSpec s = base;
    s.seed = base.seed + static_cast<std::uint64_t>(g);
    return s;
  }
};

}  // namespace ci::core
