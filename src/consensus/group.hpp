// Multi-group plumbing: many independent consensus groups over one
// transport.
//
// Engines are written for a single group — they address peers with dense
// local ids 0..R-1 (+ client ids after) and know nothing about sharding.
// A GroupDemuxEngine sits between the transport and one node's engines:
//   * outgoing sends are stamped with the group id and translated from the
//     group's local id space to transport (global) node ids;
//   * incoming messages are routed by Message::group to the hosted engine
//     and translated back to local ids before the engine sees them.
// One demux hosts one engine per group mapped to its node — one under
// group-major/interleaved placement, one per group when replicas of every
// group are co-located on the same node.
//
// Translation is a per-group GroupRouting table (local<->global), shared by
// every demux of the group and owned by whoever laid the groups out
// (core::ShardedDeployment).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "consensus/engine.hpp"

namespace ci::consensus {

// local<->global node id maps for one group. Built once during layout;
// read-only on the message path.
struct GroupRouting {
  std::vector<NodeId> local_to_global;
  std::vector<NodeId> global_to_local;

  void map(NodeId local, NodeId global);
  NodeId to_global(NodeId local) const {
    return local >= 0 && local < static_cast<NodeId>(local_to_global.size())
               ? local_to_global[static_cast<std::size_t>(local)]
               : kNoNode;
  }
  NodeId to_local(NodeId global) const {
    return global >= 0 && global < static_cast<NodeId>(global_to_local.size())
               ? global_to_local[static_cast<std::size_t>(global)]
               : kNoNode;
  }
};

class GroupDemuxEngine final : public Engine {
 public:
  // (group, local node id, instance, command) of one state-machine delivery
  // from a hosted engine. Runtimes route this to the group's agreement
  // recorder (sim: live; rt: via a per-node log read after join).
  using DeliverHook = std::function<void(GroupId g, NodeId local, Instance in,
                                         const Command& cmd)>;

  explicit GroupDemuxEngine(NodeId global_self) : global_self_(global_self) {}

  // Hosts `engine` as group `g`'s participant `local_self` on this node.
  // `routing` must outlive the demux and already map local_self to this
  // demux's global node id.
  void add_group(GroupId g, Engine* engine, NodeId local_self, const GroupRouting* routing);

  void set_deliver_hook(DeliverHook hook) { hook_ = std::move(hook); }

  NodeId global_self() const { return global_self_; }
  Engine* engine_for(GroupId g) const {
    const Port* p = find(g);
    return p ? p->engine : nullptr;
  }
  // Messages whose group has no engine on this node (routing bug or stray
  // traffic); dropped rather than delivered to the wrong group.
  std::uint64_t unroutable() const { return unroutable_; }

  // ---- Engine interface (the transport drives these) ----
  void start(Context& ctx) override;
  void on_message(Context& ctx, const Message& m) override;
  void tick(Context& ctx) override;
  // The earliest deadline over the hosted engines.
  Nanos next_deadline(Nanos now) const override;
  // The first hosted engine's view, as a LOCAL id (single-group nodes host
  // exactly one engine, so this matches the pre-sharding behavior).
  NodeId believed_leader() const override;

 private:
  struct Port {
    GroupId g = kGroup0;
    Engine* engine = nullptr;
    NodeId local_self = kNoNode;
    const GroupRouting* routing = nullptr;
  };

  class GroupContext;

  const Port* find(GroupId g) const {
    return g >= 0 && g < static_cast<GroupId>(by_group_.size()) &&
                   by_group_[static_cast<std::size_t>(g)] >= 0
               ? &ports_[static_cast<std::size_t>(by_group_[static_cast<std::size_t>(g)])]
               : nullptr;
  }

  NodeId global_self_;
  std::vector<Port> ports_;             // in add_group order
  std::vector<std::int32_t> by_group_;  // group id -> index into ports_ (-1 absent)
  DeliverHook hook_;
  std::uint64_t unroutable_ = 0;
};

}  // namespace ci::consensus
