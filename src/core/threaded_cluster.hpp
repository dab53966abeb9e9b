// The threaded backends' one adapter: a core::ShardedDeployment driven by
// one OS thread per transport node, over either transport that runs real
// threads —
//   * kRt: QC-libtask message passing over shared-memory SPSC queues, node
//     threads pinned to cores (§6-7);
//   * kNet: a TCP socket mesh bootstrapped by an in-process registry
//     (src/net), the same wire::Codec frames behind a length prefix.
//
// Two layers:
//   * ThreadedMesh is the transport seam. It builds and owns the backing
//     (a qclt::Network, or a Registry + optional IoPool) and one node
//     thread per engine, and exposes the per-node controls. It is the only
//     place that tells rt from net; the per-message path (send, read,
//     wait, tick) is core::NodeLoop, which rt::RtNode and net::NetNode run
//     over their transport.
//     client::ServiceClient hosts its replicas and sessions on one mesh.
//   * ThreadedCluster puts a deployment on a mesh, plus a "load manager"
//     node that releases the clients with one kStart per (group, client
//     node) (§7.1). It holds the one copy of the FaultPlan poller, the
//     per-node delivery logs (written only by each node's own thread and
//     replayed into the per-group recorders at collect()), the run loop and
//     the live counters. rt::RtCluster and net::NetCluster are this class
//     under their backend's name.
//
// Constructing from a plain ClusterSpec runs the single-group layout; the
// single-group accessors below then address group 0.
//
// Thread placement on rt: node n is pinned to core n % online_cores() when
// spec.rt.pin and the platform allows pinning (oversubscription wraps, and
// the benches report it); the load manager runs on the last core (core 47
// in §7.1). Net node threads are never pinned.
#pragma once

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "core/cluster_spec.hpp"
#include "core/node_faults.hpp"
#include "core/run_result.hpp"
#include "core/sharded_deployment.hpp"
#include "net/net_node.hpp"
#include "net/registry.hpp"
#include "qclt/net.hpp"
#include "rt/rt_node.hpp"

namespace ci::core {

class ThreadedMesh {
 public:
  // Transport node n runs engines[n]; `manager`, if set, names the load
  // manager's node (pinned to the last core on rt).
  ThreadedMesh(Backend backend, const ClusterSpec& spec,
               const std::vector<consensus::Engine*>& engines,
               consensus::NodeId manager = consensus::kNoNode);
  ~ThreadedMesh();

  ThreadedMesh(const ThreadedMesh&) = delete;
  ThreadedMesh& operator=(const ThreadedMesh&) = delete;

  void start();
  // Requests every node to stop, then joins them all. Idempotent.
  void stop();

  void set_slow_factor(consensus::NodeId n, std::uint32_t factor);
  void stretch_clock(consensus::NodeId n, double rate);
  // Fail-stop: net only (every socket drops; peers see EOF). rt has no
  // fail-stop, so a kill there is a CI_CHECK failure.
  void kill(consensus::NodeId n);
  // Thread-safe: node n has work queued from another thread (a no-op on
  // rt, whose nodes spin).
  void wake(consensus::NodeId n);
  // What ended node n's waits so far (net only).
  net::WakeCounts wake_counts(consensus::NodeId n) const;

  // Boundary-crossing messages / encoded bytes sent so far, over all nodes.
  std::uint64_t messages_sent() const;
  std::uint64_t bytes_sent() const;

 private:
  // Applies f to every node, or to node n, of whichever transport backs the
  // mesh (the other node vector is empty).
  template <typename F>
  void each(F&& f) const {
    for (const auto& node : rt_nodes_) f(*node);
    for (const auto& node : net_nodes_) f(*node);
  }
  template <typename F>
  void at(consensus::NodeId n, F&& f) {
    const auto i = static_cast<std::size_t>(n);
    if (i < rt_nodes_.size()) {
      f(*rt_nodes_[i]);
    } else {
      CI_CHECK(i < net_nodes_.size());
      f(*net_nodes_[i]);
    }
  }

  // rt backing
  std::unique_ptr<qclt::Network> queues_;
  std::vector<std::unique_ptr<rt::RtNode>> rt_nodes_;
  // net backing: nodes are joined (stop) before the pool and registry go
  std::unique_ptr<net::Registry> registry_;
  std::unique_ptr<net::IoPool> io_pool_;
  std::vector<std::unique_ptr<net::NetNode>> net_nodes_;
};

class ThreadedCluster {
 public:
  ThreadedCluster(Backend backend, const ShardSpec& shard);
  ThreadedCluster(Backend backend, const ClusterSpec& spec)
      : ThreadedCluster(backend, ShardSpec(spec)) {}
  ~ThreadedCluster();

  ThreadedCluster(const ThreadedCluster&) = delete;
  ThreadedCluster& operator=(const ThreadedCluster&) = delete;

  // Starts node threads; the load manager's engine start releases the
  // clients (on net, once the manager's links are up).
  void start();

  // Blocks until all clients finished their quota or `max_wall` elapsed
  // (whichever first), applying the spec's FaultPlan along the way, then
  // stops all nodes.
  RunResult run_to_completion(Nanos max_wall = 30 * kSecond);

  // Manual control for time-series experiments (Fig. 11). For commit
  // timestamps, call client(i)->set_commit_series(...) before start().
  void stop();
  RunResult collect();
  RunResult collect_group(consensus::GroupId g);

  // Portable slow-core injection: multiplies the node's per-message cost
  // (see NodeFaults::set_slow_factor). factor 1 = healthy. `node` is a
  // transport id; under sharding, map through sharded().global_node.
  void throttle_node(consensus::NodeId node, std::uint32_t factor);

  // Fail-stop (net only): drops every socket of `node` and stops it. Its
  // peers see connection EOF; the failure detector takes over from there.
  void kill_node(consensus::NodeId node);

  // Applies any FaultPlan events whose wall-clock offset has been reached.
  // run_to_completion calls this itself; manual drivers (and the harness)
  // call it from their poll loops.
  void tick_faults() { apply_faults(now_nanos() - started_at_); }

  // The canonical poll loop: ticks faults until `wall_deadline` (absolute
  // now_nanos() time) or until every client finished its quota.
  void drive_until(Nanos wall_deadline);

  ShardedDeployment& sharded() { return dep_; }
  std::int32_t num_groups() const { return dep_.num_groups(); }
  Deployment& deployment() { return dep_.group(0); }
  client::ClosedLoopClient* client(std::int32_t i) { return dep_.group(0).client(i); }
  std::int32_t client_count() const { return dep_.group(0).client_count(); }
  bool clients_done() const { return dep_.clients_done(); }

  // Live counters (atomics only) for windowed measurement while running;
  // aggregated over every group.
  std::uint64_t live_committed() const { return dep_.total_committed(); }
  std::uint64_t live_issued() const { return dep_.total_issued(); }
  std::uint64_t live_local_reads() const { return dep_.total_local_reads(); }
  std::uint64_t live_messages() const { return mesh_->messages_sent(); }
  std::uint64_t live_bytes() const { return mesh_->bytes_sent(); }

 private:
  class LoadManagerEngine;

  void apply_faults(Nanos elapsed);
  void replay_delivery_logs();

  ShardedDeployment dep_;
  std::unique_ptr<consensus::Engine> load_manager_;
  // Per transport node: every (group, local id, instance, command) its
  // engines executed. Written only by that node's thread (outer vector
  // never resizes while running), read after join().
  std::vector<std::vector<std::tuple<consensus::GroupId, consensus::NodeId,
                                     consensus::Instance, consensus::Command>>>
      delivery_logs_;
  FaultPoller faults_;
  std::unique_ptr<ThreadedMesh> mesh_;
  Nanos started_at_ = 0;
  Nanos stopped_at_ = 0;
  bool started_ = false;
  bool stopped_ = false;
  bool collected_ = false;
};

}  // namespace ci::core
