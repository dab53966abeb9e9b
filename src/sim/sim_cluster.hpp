// The sim backend adapter: plugs a core::ShardedDeployment into the
// deterministic discrete-event SimNet and drives virtual time.
//
// All wiring (engines, state machines, clients, joint co-location, the
// group demux layer) and all agreement checking live in the shared
// deployment layers (core/deployment, core/sharded_deployment); this class
// only owns the transport, translates the FaultPlan into SimNet
// slow-windows/scheduled calls, and implements the run loop.
//
// Constructing from a plain ClusterSpec runs the single-group (groups=1)
// layout, which is bit-identical to the pre-sharding behavior; the
// single-group accessors below then address group 0.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/histogram.hpp"
#include "core/cluster_spec.hpp"
#include "core/sharded_deployment.hpp"
#include "core/run_result.hpp"
#include "sim/sim_net.hpp"

namespace ci::sim {

using consensus::GroupId;
using core::ClusterSpec;
using core::Protocol;
using core::protocol_name;
using core::ShardSpec;

class SimCluster {
 public:
  explicit SimCluster(const ClusterSpec& spec);
  explicit SimCluster(const ShardSpec& shard);
  ~SimCluster();

  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  SimNet& net() { return *net_; }
  core::ShardedDeployment& sharded() { return dep_; }
  std::int32_t num_groups() const { return dep_.num_groups(); }
  // Group 0's deployment — the whole deployment when unsharded.
  core::Deployment& deployment() { return dep_.group(0); }

  // Ad-hoc fault injection (tests schedule these relative to now; specs can
  // instead carry a FaultPlan, applied at construction). `node` is a
  // transport node id: under sharding, map through
  // sharded().global_node(g, local).
  void slow_node(consensus::NodeId node, Nanos from, Nanos to, double factor);
  // 1Paxos-only: silent acceptor reboot of group 0's replica `node` at t.
  void reset_acceptor_state_at(consensus::NodeId node, Nanos t);

  // Runs until `deadline` or until every client of every group finished its
  // request quota (checked at millisecond granularity), plus nothing further.
  void run(Nanos deadline);

  // Unified result over the whole run so far, merged across groups;
  // `duration` is the window the caller wants throughput computed over.
  core::RunResult result(Nanos duration) const;
  core::RunResult group_result(GroupId g, Nanos duration) const;

  // ---- Convenience forwards; aggregates span all groups, engine/client
  // accessors address group 0 (tests predating sharding use these) ----
  std::uint64_t total_committed() const { return dep_.total_committed(); }
  std::uint64_t total_issued() const { return dep_.total_issued(); }
  Histogram merged_latency() const { return dep_.merged_latency(); }
  double throughput_ops_per_sec(Nanos duration) const;
  client::ClosedLoopClient* client(std::int32_t i) { return dep_.group(0).client(i); }
  std::int32_t client_count() const { return dep_.group(0).client_count(); }

  bool consistent() const { return dep_.consistent(); }
  std::uint64_t total_deliveries() const { return dep_.deliveries(); }
  // Instance -> decided batch (one command per batch unless batching is on).
  const std::map<consensus::Instance, std::vector<consensus::Command>>& decided() const {
    return dep_.group(0).recorder().decided();
  }
  const std::vector<std::vector<consensus::Command>>& delivered_by_node() const {
    return dep_.group(0).recorder().delivered_by_node();
  }

  consensus::Engine* replica_engine(consensus::NodeId r) { return dep_.group(0).replica_engine(r); }
  core::OnePaxosEngine* one_paxos(consensus::NodeId r) { return dep_.group(0).one_paxos(r); }
  consensus::MultiPaxosEngine* multi_paxos(consensus::NodeId r) { return dep_.group(0).multi_paxos(r); }
  consensus::TwoPcEngine* two_pc(consensus::NodeId r) { return dep_.group(0).two_pc(r); }

 private:
  ShardSpec shard_;
  core::ShardedDeployment dep_;
  std::unique_ptr<SimNet> net_;
};

}  // namespace ci::sim
