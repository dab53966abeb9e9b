#include "consensus/basic_paxos.hpp"

#include <algorithm>

namespace ci::consensus {

namespace {

std::uint64_t client_key(const Command& cmd) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cmd.client)) << 32) | cmd.seq;
}

}  // namespace

BasicPaxosEngine::BasicPaxosEngine(const EngineConfig& cfg)
    : cfg_(cfg), executor_(cfg.state_machine), rng_(cfg.seed + static_cast<std::uint64_t>(cfg.self)) {}

void BasicPaxosEngine::start(Context&) {}

ProposalNum BasicPaxosEngine::next_ballot() {
  ballot_counter_++;
  return ProposalNum{ballot_counter_, cfg_.self};
}

void BasicPaxosEngine::on_message(Context& ctx, const Message& m) {
  switch (m.type) {
    case MsgType::kClientRequest:
      pending_.push_back(m.u.client_request.cmd);
      propose_next(ctx);
      return;
    case MsgType::kPhase1Req:
      handle_phase1_req(ctx, m);
      return;
    case MsgType::kPhase1Resp:
      handle_phase1_resp(ctx, m);
      return;
    // Values here are single commands, sent as runs of one. A longer run
    // is no Basic-Paxos sender's and is ignored (a socket may carry any
    // count the wire admits).
    case MsgType::kPhase2BatchReq:
      if (m.u.phase2_batch_req.count == 1) handle_phase2_req(ctx, m);
      return;
    case MsgType::kPhase2BatchAcked:
      if (m.u.phase2_batch_acked.count == 1) handle_phase2_acked(ctx, m);
      return;
    case MsgType::kNack:
      handle_nack(ctx, m);
      return;
    default:
      return;
  }
}

void BasicPaxosEngine::tick(Context& ctx) {
  const Nanos now = ctx.now();
  for (auto& [in, p] : proposing_) {
    const Nanos budget = cfg_.retry_timeout * (1 + p.backoff_rounds);
    if (now - p.last_send < budget) continue;
    // Restart from phase 1 with a fresh ballot (covers lost messages and
    // lost contention alike).
    p.pn = next_ballot();
    p.promise_mask = 0;
    p.constrained = false;
    p.highest_accepted = ProposalNum{};
    p.value = p.own_value;
    p.phase = ProposerState::Phase::kPrepare;
    start_prepare(ctx, in, p);
  }
  propose_next(ctx);
}

void BasicPaxosEngine::propose_next(Context& ctx) {
  while (!pending_.empty() &&
         static_cast<std::int32_t>(proposing_.size()) < cfg_.pipeline_window) {
    Instance in = std::max(next_free_, log_.first_gap());
    while (log_.is_learned(in) || proposing_.count(in) != 0) in++;
    next_free_ = in;
    ProposerState p;
    p.own_value = pending_.front();
    pending_.pop_front();
    p.value = p.own_value;
    p.pn = next_ballot();
    if (p.own_value.client != kNoNode) advocated_[client_key(p.own_value)] = in;
    auto [it, inserted] = proposing_.emplace(in, p);
    start_prepare(ctx, in, it->second);
  }
}

void BasicPaxosEngine::start_prepare(Context& ctx, Instance in, ProposerState& p) {
  p.phase = ProposerState::Phase::kPrepare;
  p.last_send = ctx.now();
  for (NodeId r = 0; r < cfg_.num_replicas; ++r) {
    Message m(MsgType::kPhase1Req, ProtoId::kBasicPaxos, cfg_.self, r);
    m.u.phase1_req.pn = p.pn;
    m.u.phase1_req.from_instance = in;
    ctx.send(r, m);
  }
}

void BasicPaxosEngine::start_accept(Context& ctx, Instance in, ProposerState& p) {
  p.phase = ProposerState::Phase::kAccept;
  p.last_send = ctx.now();
  for (NodeId r = 0; r < cfg_.num_replicas; ++r) {
    Message m(MsgType::kPhase2BatchReq, ProtoId::kBasicPaxos, cfg_.self, r);
    m.u.phase2_batch_req.instance = in;
    m.u.phase2_batch_req.pn = p.pn;
    m.u.phase2_batch_req.count = 1;
    m.u.phase2_batch_req.run.assign(&p.value, 1);
    ctx.send(r, m);
  }
}

// One acceptance frame: a decided catch-up (kFlagDecided, no ballot) or a
// live acceptance at `pn`.
void BasicPaxosEngine::send_acked(Context& ctx, NodeId dst, Instance in, ProposalNum pn,
                                  const Command& value, bool decided) {
  Message acked(MsgType::kPhase2BatchAcked, ProtoId::kBasicPaxos, cfg_.self, dst);
  if (decided) acked.flags = kFlagDecided;
  acked.u.phase2_batch_acked.instance = in;
  acked.u.phase2_batch_acked.pn = pn;
  acked.u.phase2_batch_acked.count = 1;
  acked.u.phase2_batch_acked.run.assign(&value, 1);
  ctx.send(dst, acked);
}

void BasicPaxosEngine::handle_phase1_req(Context& ctx, const Message& m) {
  const Instance in = m.u.phase1_req.from_instance;
  const ProposalNum pn = m.u.phase1_req.pn;
  if (log_.is_learned(in)) {
    // Already decided: short-circuit with the chosen value so a lagging
    // proposer converges instead of fighting settled history.
    send_acked(ctx, m.src, in, ProposalNum{}, *log_.get(in), /*decided=*/true);
    return;
  }
  auto& cell = acceptors_[in];
  if (cell.phase1(pn)) {
    Message resp(MsgType::kPhase1Resp, ProtoId::kBasicPaxos, cfg_.self, m.src);
    resp.u.phase1_resp.pn = pn;
    if (cell.has_accepted) {
      resp.u.phase1_resp.num_proposals = 1;
      resp.u.phase1_resp.proposals[0] = Proposal{in, cell.accepted_pn, cell.accepted_value};
    }
    ctx.send(m.src, resp);
  } else {
    Message nack(MsgType::kNack, ProtoId::kBasicPaxos, cfg_.self, m.src);
    nack.u.nack.instance = in;
    nack.u.nack.higher_pn = cell.promised;
    ctx.send(m.src, nack);
  }
}

void BasicPaxosEngine::handle_phase1_resp(Context& ctx, const Message& m) {
  // Basic-Paxos phase-1 responses carry at most one proposal (this
  // instance's); the instance rides in proposals[0] when present, else we
  // match by ballot.
  const ProposalNum pn = m.u.phase1_resp.pn;
  for (auto& [in, p] : proposing_) {
    if (p.phase != ProposerState::Phase::kPrepare || !(p.pn == pn)) continue;
    p.promise_mask |= 1ULL << m.src;
    if (m.u.phase1_resp.num_proposals > 0) {
      const Proposal& prop = m.u.phase1_resp.proposals[0];
      if (prop.pn > p.highest_accepted) {
        p.highest_accepted = prop.pn;
        p.value = prop.value;
        p.constrained = true;
      }
    }
    if (__builtin_popcountll(p.promise_mask) >= majority(cfg_.num_replicas)) {
      start_accept(ctx, in, p);
    }
    return;
  }
}

void BasicPaxosEngine::handle_phase2_req(Context& ctx, const Message& m) {
  const Instance in = m.u.phase2_batch_req.instance;
  const ProposalNum pn = m.u.phase2_batch_req.pn;
  const Command& value = m.u.phase2_batch_req.run.inline_cmds[0];
  if (log_.is_learned(in)) {
    send_acked(ctx, m.src, in, ProposalNum{}, *log_.get(in), /*decided=*/true);
    return;
  }
  auto& cell = acceptors_[in];
  if (cell.phase2(pn, value)) {
    // Accepted: broadcast to all learners (every replica).
    for (NodeId r = 0; r < cfg_.num_replicas; ++r) {
      send_acked(ctx, r, in, pn, value, /*decided=*/false);
    }
  } else {
    Message nack(MsgType::kNack, ProtoId::kBasicPaxos, cfg_.self, m.src);
    nack.u.nack.instance = in;
    nack.u.nack.higher_pn = cell.promised;
    ctx.send(m.src, nack);
  }
}

void BasicPaxosEngine::handle_phase2_acked(Context& ctx, const Message& m) {
  const Instance in = m.u.phase2_batch_acked.instance;
  const Command& value = m.u.phase2_batch_acked.run.inline_cmds[0];
  if (log_.is_learned(in)) return;
  if ((m.flags & kFlagDecided) != 0) {
    // Decided-value catch-up (not an acceptance count).
    learn(ctx, in, value);
    return;
  }
  auto& learner = learners_[in];
  if (learner.record(m.u.phase2_batch_acked.pn, m.src, majority(cfg_.num_replicas))) {
    learn(ctx, in, value);
  }
}

void BasicPaxosEngine::handle_nack(Context& ctx, const Message& m) {
  const Instance in = m.u.nack.instance;
  auto it = proposing_.find(in);
  if (it == proposing_.end()) return;
  ProposerState& p = it->second;
  ballot_counter_ = std::max(ballot_counter_, m.u.nack.higher_pn.counter);
  // Randomized backoff (in retry-timeout units) to break livelock between
  // dueling proposers.
  p.backoff_rounds = static_cast<std::int64_t>(rng_.next_below(3));
  p.last_send = ctx.now();             // restart happens in tick()
  p.phase = ProposerState::Phase::kPrepare;
  p.promise_mask = 0;
}

void BasicPaxosEngine::learn(Context& ctx, Instance in, const Command& cmd) {
  log_.learn(in, cmd);
  acceptors_.erase(in);
  learners_.erase(in);
  auto it = proposing_.find(in);
  if (it != proposing_.end()) {
    if (!(cmd == it->second.own_value)) {
      // Lost the instance to a competing proposer: re-advocate our command
      // at a later instance.
      pending_.push_front(it->second.own_value);
    }
    proposing_.erase(it);
  }
  log_.drain([&](Instance din, const Command& dcmd) {
    const Executor::Applied applied = executor_.apply(dcmd);
    ctx.deliver(din, dcmd);
    auto adv = advocated_.find(client_key(dcmd));
    if (adv != advocated_.end()) {
      Message reply(MsgType::kClientReply, ProtoId::kClient, cfg_.self, dcmd.client);
      reply.u.client_reply.seq = dcmd.seq;
      reply.u.client_reply.ok = 1;
      reply.u.client_reply.instance = din;
      reply.u.client_reply.result = applied.result;
      reply.u.client_reply.leader_hint = cfg_.self;
      ctx.send(dcmd.client, reply);
      advocated_.erase(adv);
    }
  });
  propose_next(ctx);
}

}  // namespace ci::consensus
