// The sharded deployment builder: N independent consensus groups, one
// transport.
//
// A ShardedDeployment owns one core::Deployment per group (engines, state
// machines, clients, AgreementRecorder — all per group, so agreement is
// checked inside each group and never across groups), one GroupRouting
// table per group (local<->global node ids under the spec's placement
// policy), and one GroupDemuxEngine per transport node. Backends host the
// demuxes exactly the way they used to host raw engines; everything
// group-related happens behind them.
//
// groups == 1 under kGroupMajor is the identity layout: local ids equal
// global ids and every demux hosts exactly one engine, so a single-group
// ShardSpec reproduces the unsharded deployment.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "consensus/group.hpp"
#include "core/cluster_spec.hpp"
#include "core/deployment.hpp"
#include "core/run_result.hpp"

namespace ci::core {

using consensus::GroupId;

class ShardedDeployment {
 public:
  ShardedDeployment(const ShardSpec& shard, bool auto_start_clients);
  ~ShardedDeployment();

  ShardedDeployment(const ShardedDeployment&) = delete;
  ShardedDeployment& operator=(const ShardedDeployment&) = delete;

  const ShardSpec& shard() const { return shard_; }
  std::int32_t num_groups() const { return shard_.groups; }
  // Transport nodes the backends must host (excluding externals).
  std::int32_t num_nodes() const { return shard_.total_nodes(); }

  Deployment& group(GroupId g) {
    CI_CHECK(g >= 0 && g < num_groups());
    return *groups_[static_cast<std::size_t>(g)];
  }
  const Deployment& group(GroupId g) const {
    CI_CHECK(g >= 0 && g < num_groups());
    return *groups_[static_cast<std::size_t>(g)];
  }
  AgreementRecorder& recorder(GroupId g) { return group(g).recorder(); }

  consensus::NodeId global_node(GroupId g, consensus::NodeId local) const {
    return shard_.global_node(g, local);
  }

  // The engine a transport should host on node `id`: always a demux.
  consensus::GroupDemuxEngine* node_engine(consensus::NodeId id) {
    return demux_[static_cast<std::size_t>(id)].get();
  }

  // Every (group, transport node) pair hosting a client engine — the
  // targets of the load manager's per-group kStart. Under co-location one
  // node appears once per group.
  const std::vector<std::pair<GroupId, consensus::NodeId>>& client_targets() const {
    return client_targets_;
  }

  // One delivery sink for every demux; `global` is the transport node the
  // delivering engine runs on. Sim records live; rt logs per node thread
  // and replays after join.
  using DeliverHook =
      std::function<void(consensus::NodeId global, GroupId g, consensus::NodeId local,
                         consensus::Instance in, const consensus::Command& cmd)>;
  void set_deliver_hook(DeliverHook hook);

  // Registers an external participant (e.g. a client-layer session) that
  // talks inside EVERY group from one extra transport node past
  // num_nodes(): maps `local` to `global` in each group's routing table and
  // returns a demux hosting `per_group[g]` as group g's engine. Call before
  // the transport starts; the demux is owned by the caller, the routing by
  // this object.
  std::unique_ptr<consensus::GroupDemuxEngine> make_external_demux(
      consensus::NodeId global, consensus::NodeId local,
      const std::vector<consensus::Engine*>& per_group);

  // Id allocation for external sessions: the k-th session (k = sessions
  // registered so far) occupies transport node num_nodes()+k and group-local
  // participant id nodes_per_group()+k in every group. ServiceClient wires
  // its sessions through this so backends can size transports as
  // num_nodes() + external_count().
  struct ExternalSeat {
    consensus::NodeId global = consensus::kNoNode;
    consensus::NodeId local = consensus::kNoNode;
  };
  ExternalSeat next_external_seat() const {
    return ExternalSeat{num_nodes() + externals_, shard_.nodes_per_group() + externals_};
  }
  std::int32_t external_count() const { return externals_; }

  // ---- Aggregates over all groups (live-readable where Deployment's are) ----
  bool clients_done() const;
  std::uint64_t total_committed() const;
  std::uint64_t total_issued() const;
  std::uint64_t total_local_reads() const;
  Histogram merged_latency() const;
  bool consistent() const;
  std::uint64_t deliveries() const;

  // Merged result (committed/issued/latency summed over groups; consistent
  // = every group's recorder agreed). The backend fills duration and
  // total_messages.
  RunResult collect() const;
  // One group's view, for per-shard reporting.
  RunResult collect_group(GroupId g) const { return group(g).collect(); }

 private:
  ShardSpec shard_;
  std::vector<std::unique_ptr<Deployment>> groups_;
  std::vector<std::unique_ptr<consensus::GroupRouting>> routing_;  // per group
  std::vector<std::unique_ptr<consensus::GroupDemuxEngine>> demux_;  // per node
  std::vector<std::pair<GroupId, consensus::NodeId>> client_targets_;
  std::int32_t externals_ = 0;  // external sessions registered so far
};

}  // namespace ci::core
