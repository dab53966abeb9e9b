#include "consensus/group.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace ci::consensus {

void GroupRouting::map(NodeId local, NodeId global) {
  CI_CHECK(local >= 0 && global >= 0);
  if (local >= static_cast<NodeId>(local_to_global.size())) {
    local_to_global.resize(static_cast<std::size_t>(local) + 1, kNoNode);
  }
  if (global >= static_cast<NodeId>(global_to_local.size())) {
    global_to_local.resize(static_cast<std::size_t>(global) + 1, kNoNode);
  }
  CI_CHECK(local_to_global[static_cast<std::size_t>(local)] == kNoNode);
  CI_CHECK(global_to_local[static_cast<std::size_t>(global)] == kNoNode);
  local_to_global[static_cast<std::size_t>(local)] = global;
  global_to_local[static_cast<std::size_t>(global)] = local;
}

// The Context a hosted engine sees: group-local ids in, group-local ids
// out. Stack-allocated per call — it only borrows the transport context.
class GroupDemuxEngine::GroupContext final : public Context {
 public:
  GroupContext(Context& parent, const Port& port, GroupDemuxEngine* demux)
      : parent_(parent), port_(port), demux_(demux) {}

  NodeId self() const override { return port_.local_self; }
  Nanos now() const override { return parent_.now(); }

  void send(NodeId dst, const Message& m) override {
    const NodeId gdst = port_.routing->to_global(dst);
    CI_CHECK_MSG(gdst != kNoNode, "engine addressed a node outside its group");
    // Engines stamp src with their (local) self; transports re-stamp with
    // the sending node anyway, but keep the frame coherent for tests that
    // inspect it before it travels.
    const NodeId gsrc = port_.routing->to_global(m.src);
    const NodeId src = gsrc != kNoNode ? gsrc : m.src;
    if (gdst == m.dst && src == m.src && m.group == port_.g) {
      // Identity layout (the groups=1 common case): no rewrite, no copy —
      // the demux must not tax unsharded hot paths.
      parent_.send(gdst, m);
      return;
    }
    Message out = m;
    out.group = port_.g;
    out.src = src;
    out.dst = gdst;
    parent_.send(gdst, out);
  }

  void deliver(Instance in, const Command& cmd) override {
    if (demux_->hook_) demux_->hook_(port_.g, port_.local_self, in, cmd);
  }

 private:
  Context& parent_;
  const Port& port_;
  GroupDemuxEngine* demux_;
};

void GroupDemuxEngine::add_group(GroupId g, Engine* engine, NodeId local_self,
                                 const GroupRouting* routing) {
  CI_CHECK(g >= 0 && engine != nullptr && routing != nullptr);
  CI_CHECK(routing->to_global(local_self) == global_self_);
  CI_CHECK(find(g) == nullptr);
  if (g >= static_cast<GroupId>(by_group_.size())) {
    by_group_.resize(static_cast<std::size_t>(g) + 1, -1);
  }
  by_group_[static_cast<std::size_t>(g)] = static_cast<std::int32_t>(ports_.size());
  ports_.push_back(Port{g, engine, local_self, routing});
}

void GroupDemuxEngine::start(Context& ctx) {
  for (const Port& p : ports_) {
    GroupContext gctx(ctx, p, this);
    p.engine->start(gctx);
  }
}

void GroupDemuxEngine::on_message(Context& ctx, const Message& m) {
  const Port* p = find(m.group);
  if (p == nullptr) {
    unroutable_++;
    return;
  }
  GroupContext gctx(ctx, *p, this);
  // Out-of-group senders (e.g. the rt load manager's kStart) have no local
  // id; kNoNode is fine — engines never reply to control traffic.
  const NodeId lsrc = p->routing->to_local(m.src);
  if (m.type == MsgType::kClientCmdBatch) {
    // A client-side command run: decompose into ordinary kClientRequest
    // deliveries so the hosted engine — whichever protocol it speaks —
    // handles each command exactly as if it had arrived alone. Replies are
    // per-command through the usual path. The run is inline by construction
    // (kMaxClientBatchCommands <= kInlineBatchCommands), so no pool custody
    // changes hands here; the transport's post-delivery release is a no-op.
    const std::int32_t count = m.u.client_cmd_batch.count;
    const Command* cmds = m.u.client_cmd_batch.run.data(count);
    Message each(MsgType::kClientRequest, ProtoId::kClient,
                 lsrc != kNoNode ? lsrc : m.src, p->local_self);
    each.flags = m.flags;
    each.group = p->g;
    for (std::int32_t i = 0; i < count; ++i) {
      each.u.client_request.cmd = cmds[i];
      p->engine->on_message(gctx, each);
    }
    return;
  }
  if (lsrc == m.src && m.dst == p->local_self) {
    p->engine->on_message(gctx, m);  // identity layout: skip the copy
    return;
  }
  Message in = m;
  in.src = lsrc;
  in.dst = p->local_self;
  p->engine->on_message(gctx, in);
}

void GroupDemuxEngine::tick(Context& ctx) {
  for (const Port& p : ports_) {
    GroupContext gctx(ctx, p, this);
    p.engine->tick(gctx);
  }
}

Nanos GroupDemuxEngine::next_deadline(Nanos now) const {
  Nanos d = kNoDeadline;
  for (const Port& p : ports_) d = std::min(d, p.engine->next_deadline(now));
  return d;
}

NodeId GroupDemuxEngine::believed_leader() const {
  return ports_.empty() ? kNoNode : ports_.front().engine->believed_leader();
}

}  // namespace ci::consensus
