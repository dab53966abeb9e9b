#include "consensus/paxos_utility.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace ci::consensus {

PaxosUtility::PaxosUtility(const EngineConfig& cfg, DecidedCb on_decided)
    : cfg_(cfg), on_decided_(std::move(on_decided)) {}

void PaxosUtility::bootstrap(NodeId initial_leader, NodeId initial_acceptor) {
  CI_CHECK(decided_.empty());
  UtilityEntry lc;
  lc.kind = UtilityEntry::Kind::kLeaderChange;
  lc.leader = initial_leader;
  lc.acceptor = initial_acceptor;
  UtilityEntry ac;
  ac.kind = UtilityEntry::Kind::kAcceptorChange;
  ac.leader = initial_leader;
  ac.acceptor = initial_acceptor;
  decided_.push_back(lc);
  decided_.push_back(ac);
  first_gap_ = 2;
}

const UtilityEntry* PaxosUtility::decided(Instance idx) const {
  if (idx < 0 || idx >= static_cast<Instance>(decided_.size())) return nullptr;
  const auto& slot = decided_[static_cast<std::size_t>(idx)];
  return slot.has_value() ? &*slot : nullptr;
}

NodeId PaxosUtility::last_leader(Instance* index) const {
  for (Instance i = static_cast<Instance>(first_gap_) - 1; i >= 0; --i) {
    const UtilityEntry* e = decided(i);
    if (e != nullptr && e->kind == UtilityEntry::Kind::kLeaderChange) {
      if (index != nullptr) *index = i;
      return e->leader;
    }
  }
  if (index != nullptr) *index = kNoInstance;
  return kNoNode;
}

PaxosUtility::AcceptorInfo PaxosUtility::last_active_acceptor() const {
  for (Instance i = static_cast<Instance>(first_gap_) - 1; i >= 0; --i) {
    const UtilityEntry* e = decided(i);
    if (e != nullptr && e->kind == UtilityEntry::Kind::kAcceptorChange) {
      return AcceptorInfo{e->acceptor, i, e};
    }
  }
  return AcceptorInfo{};
}

ProposalNum PaxosUtility::next_ballot() {
  ballot_counter_++;
  return ProposalNum{ballot_counter_, cfg_.self};
}

bool PaxosUtility::propose(Context& ctx, const UtilityEntry& entry, ProposeCb cb,
                           Instance at_instance) {
  if (proposal_.has_value()) return false;
  const Instance target =
      at_instance == kNoInstance ? static_cast<Instance>(first_gap_) : at_instance;
  if (target < static_cast<Instance>(first_gap_)) {
    // The log moved past the caller's snapshot: fail immediately so the
    // caller re-reads (the Fig. 12 retry).
    if (cb) cb(ctx, false);
    return true;
  }
  InFlight p;
  p.instance = target;
  p.pn = next_ballot();
  p.own = entry;
  p.value = entry;
  p.cb = std::move(cb);
  proposal_ = std::move(p);
  start_phase1(ctx);
  return true;
}

void PaxosUtility::start_phase1(Context& ctx) {
  proposal_->last_send = ctx.now();
  proposal_->promise_mask = 0;
  proposal_->constrained = false;
  proposal_->highest_accepted = ProposalNum{};
  proposal_->value = proposal_->own;
  for (NodeId r = 0; r < cfg_.num_replicas; ++r) {
    Message m(MsgType::kUtilPhase1Req, ProtoId::kUtility, cfg_.self, r);
    m.u.util_phase1_req.instance = proposal_->instance;
    m.u.util_phase1_req.pn = proposal_->pn;
    ctx.send(r, m);
  }
}

void PaxosUtility::start_phase2(Context& ctx) {
  proposal_->last_send = ctx.now();
  for (NodeId r = 0; r < cfg_.num_replicas; ++r) {
    Message m(MsgType::kUtilPhase2Req, ProtoId::kUtility, cfg_.self, r);
    m.u.util_phase2_req.instance = proposal_->instance;
    m.u.util_phase2_req.pn = proposal_->pn;
    m.u.util_phase2_req.entry = proposal_->value;
    ctx.send(r, m);
  }
}

void PaxosUtility::tick(Context& ctx) {
  if (!proposal_.has_value()) return;
  if (ctx.now() - proposal_->last_send < cfg_.retry_timeout * 2) return;
  // Restart from phase 1 with a fresh ballot.
  proposal_->pn = next_ballot();
  start_phase1(ctx);
}

void PaxosUtility::on_message(Context& ctx, const Message& m) {
  switch (m.type) {
    case MsgType::kUtilPhase1Req: {
      const Instance in = m.u.util_phase1_req.instance;
      const ProposalNum pn = m.u.util_phase1_req.pn;
      if (const UtilityEntry* e = decided(in); e != nullptr) {
        // Already decided: catch the proposer up.
        Message acc(MsgType::kUtilAccepted, ProtoId::kUtility, cfg_.self, m.src);
        acc.flags = kFlagDecided;
        acc.u.util_accepted.instance = in;
        acc.u.util_accepted.entry = *e;
        ctx.send(m.src, acc);
        return;
      }
      auto& cell = acceptors_[in];
      if (cell.phase1(pn)) {
        Message resp(MsgType::kUtilPhase1Resp, ProtoId::kUtility, cfg_.self, m.src);
        resp.u.util_phase1_resp.instance = in;
        resp.u.util_phase1_resp.pn = pn;
        resp.u.util_phase1_resp.has_accepted = cell.has_accepted ? 1 : 0;
        resp.u.util_phase1_resp.accepted_pn = cell.accepted_pn;
        if (cell.has_accepted) resp.u.util_phase1_resp.accepted = cell.accepted_value;
        ctx.send(m.src, resp);
      } else {
        Message nack(MsgType::kUtilNack, ProtoId::kUtility, cfg_.self, m.src);
        nack.u.util_nack.instance = in;
        nack.u.util_nack.higher_pn = cell.promised;
        ctx.send(m.src, nack);
      }
      return;
    }
    case MsgType::kUtilPhase1Resp: {
      if (!proposal_.has_value() || m.u.util_phase1_resp.instance != proposal_->instance ||
          !(m.u.util_phase1_resp.pn == proposal_->pn)) {
        return;
      }
      proposal_->promise_mask |= 1ULL << m.src;
      if (m.u.util_phase1_resp.has_accepted != 0 &&
          m.u.util_phase1_resp.accepted_pn > proposal_->highest_accepted) {
        proposal_->highest_accepted = m.u.util_phase1_resp.accepted_pn;
        proposal_->value = m.u.util_phase1_resp.accepted;
        proposal_->constrained = true;
      }
      if (__builtin_popcountll(proposal_->promise_mask) == majority(cfg_.num_replicas)) {
        start_phase2(ctx);
      }
      return;
    }
    case MsgType::kUtilPhase2Req: {
      const Instance in = m.u.util_phase2_req.instance;
      const ProposalNum pn = m.u.util_phase2_req.pn;
      if (const UtilityEntry* e = decided(in); e != nullptr) {
        Message acc(MsgType::kUtilAccepted, ProtoId::kUtility, cfg_.self, m.src);
        acc.flags = kFlagDecided;
        acc.u.util_accepted.instance = in;
        acc.u.util_accepted.entry = *e;
        ctx.send(m.src, acc);
        return;
      }
      auto& cell = acceptors_[in];
      if (cell.phase2(pn, m.u.util_phase2_req.entry)) {
        for (NodeId r = 0; r < cfg_.num_replicas; ++r) {
          Message acc(MsgType::kUtilAccepted, ProtoId::kUtility, cfg_.self, r);
          acc.u.util_accepted.instance = in;
          acc.u.util_accepted.pn = pn;
          acc.u.util_accepted.entry = m.u.util_phase2_req.entry;
          ctx.send(r, acc);
        }
      } else {
        Message nack(MsgType::kUtilNack, ProtoId::kUtility, cfg_.self, m.src);
        nack.u.util_nack.instance = in;
        nack.u.util_nack.higher_pn = cell.promised;
        ctx.send(m.src, nack);
      }
      return;
    }
    case MsgType::kUtilAccepted: {
      const Instance in = m.u.util_accepted.instance;
      if (decided(in) != nullptr) return;
      if ((m.flags & kFlagDecided) != 0) {
        learn(ctx, in, m.u.util_accepted.entry);
        return;
      }
      auto& learner = learners_[in];
      if (learner.record(m.u.util_accepted.pn, m.src, majority(cfg_.num_replicas))) {
        learn(ctx, in, m.u.util_accepted.entry);
      }
      return;
    }
    case MsgType::kUtilNack: {
      if (!proposal_.has_value() || m.u.util_nack.instance != proposal_->instance) return;
      ballot_counter_ = std::max(ballot_counter_, m.u.util_nack.higher_pn.counter);
      // Retried from tick() with a higher ballot; nothing else to do here.
      return;
    }
    default:
      return;
  }
}

void PaxosUtility::learn(Context& ctx, Instance in, const UtilityEntry& entry) {
  CI_CHECK(in >= 0);
  const auto idx = static_cast<std::size_t>(in);
  if (idx >= decided_.size()) decided_.resize(idx + 1);
  if (decided_[idx].has_value()) {
    CI_CHECK_MSG(*decided_[idx] == entry, "utility consensus decided two values");
    return;
  }
  decided_[idx] = entry;
  acceptors_.erase(in);
  learners_.erase(in);
  std::vector<Instance> newly_decided;
  while (first_gap_ < decided_.size() && decided_[first_gap_].has_value()) {
    newly_decided.push_back(static_cast<Instance>(first_gap_));
    first_gap_++;
  }
  // Resolve our own proposal before reporting: the callback may immediately
  // issue a follow-up propose().
  if (proposal_.has_value() && proposal_->instance == in) {
    const bool won = *decided_[idx] == proposal_->own;
    ProposeCb cb = std::move(proposal_->cb);
    proposal_.reset();
    if (cb) cb(ctx, won);
  }
  for (Instance i : newly_decided) {
    if (on_decided_) on_decided_(ctx, i, *decided_[static_cast<std::size_t>(i)]);
  }
}

}  // namespace ci::consensus
