#include "consensus/multi_paxos.hpp"

#include <algorithm>
#include <limits>

namespace ci::consensus {

namespace {

// The ballot a phase-1 report gives a value its acceptor has learned: above
// every real ballot, because a decided value is the only one any later
// ballot may choose at that instance.
constexpr ProposalNum kDecidedPn{std::numeric_limits<std::int64_t>::max(), kNoNode};

// Single-command values a phase-1 response carries inline: the default
// pipeline window, which an honest leader stays within. The rest ride
// sidecars, so the main frame always fits the paper's 7-slot rt queue (a
// full kMaxProposalsPerMsg array does not).
constexpr std::int32_t kInlineReports = kMaxProposalsPerMsg / 2;

std::uint64_t client_key(const Command& cmd) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cmd.client)) << 32) | cmd.seq;
}

}  // namespace

MultiPaxosEngine::MultiPaxosEngine(const MultiPaxosConfig& cfg)
    : cfg_(cfg),
      executor_(cfg.base.state_machine),
      rng_(cfg.base.seed + static_cast<std::uint64_t>(cfg.base.self) * 7919),
      pending_(cfg.base.batch) {
  if (cfg_.initial_leader != kNoNode) {
    // Pre-agreed leadership: every replica starts promised to ballot
    // {1, initial_leader}, so the leader proposes without a phase 1 — the
    // steady state the paper measures.
    promised_ = ProposalNum{1, cfg_.initial_leader};
    current_leader_ = cfg_.initial_leader;
    ballot_counter_ = 1;
    if (cfg_.base.self == cfg_.initial_leader) {
      leader_ = true;
      my_ballot_ = promised_;
    }
  }
  fd_jitter_ = static_cast<Nanos>(rng_.next_below(
      static_cast<std::uint64_t>(cfg_.base.fd_timeout / 4) + 1));
  lease_.configure(cfg_.base.lease_duration, cfg_.base.lease_epsilon);
}

std::int32_t MultiPaxosEngine::acceptor_count() const {
  return cfg_.acceptor_count > 0 ? std::min(cfg_.acceptor_count, cfg_.base.num_replicas)
                                 : cfg_.base.num_replicas;
}

ProposalNum MultiPaxosEngine::next_ballot() {
  ballot_counter_++;
  return ProposalNum{ballot_counter_, cfg_.base.self};
}

void MultiPaxosEngine::start(Context& ctx) { last_leader_contact_ = ctx.now(); }

void MultiPaxosEngine::on_message(Context& ctx, const Message& m) {
  if (m.src == current_leader_ && m.src != cfg_.base.self) last_leader_contact_ = ctx.now();
  switch (m.type) {
    case MsgType::kClientRequest:
      handle_client_request(ctx, m);
      return;
    case MsgType::kPhase1Req:
      handle_phase1_req(ctx, m);
      return;
    case MsgType::kPhase1Resp:
      handle_phase1_resp(ctx, m);
      return;
    case MsgType::kPhase1BatchResp:
      handle_phase1_batch_resp(ctx, m);
      return;
    case MsgType::kPhase2BatchReq: {
      const Phase2BatchReq& p = m.u.phase2_batch_req;
      handle_phase2_req(ctx, p.instance, p.pn, unpack_into(scratch_, p.run.data(p.count), p.count),
                        m.src);
      return;
    }
    case MsgType::kPhase2BatchAcked: {
      const Phase2BatchAcked& p = m.u.phase2_batch_acked;
      handle_phase2_acked(ctx, p.instance, p.pn,
                          unpack_into(scratch_, p.run.data(p.count), p.count), m.src,
                          (m.flags & kFlagDecided) != 0);
      return;
    }
    case MsgType::kNack:
      handle_nack(ctx, m);
      return;
    case MsgType::kHeartbeat:
      handle_heartbeat(ctx, m);
      return;
    case MsgType::kLeaseGrant:
      handle_lease_grant(m);
      return;
    default:
      return;
  }
}

void MultiPaxosEngine::tick(Context& ctx) {
  const Nanos now = ctx.now();
  if (leader_) {
    // Heartbeats keep follower failure detectors quiet.
    if (now - last_heartbeat_sent_ >= cfg_.base.heartbeat_period) {
      last_heartbeat_sent_ = now;
      // With leases on, every heartbeat round doubles as a renewal round:
      // followers echo lease_seq in kLeaseGrant and the ledger bounds each
      // grant by this send time (lease.hpp).
      const std::uint32_t lease_seq = lease_.enabled() ? lease_.open_round(now) : 0;
      for (NodeId r = 0; r < cfg_.base.num_replicas; ++r) {
        if (r == cfg_.base.self) continue;
        Message hb(MsgType::kHeartbeat, ProtoId::kMultiPaxos, cfg_.base.self, r);
        hb.u.heartbeat.leader = cfg_.base.self;
        hb.u.heartbeat.lease_seq = lease_seq;
        hb.u.heartbeat.committed = log_.first_gap();
        hb.u.heartbeat.ballot = my_ballot_;
        ctx.send(r, hb);
      }
    }
    // Retransmit stalled accept requests (acceptors are idempotent).
    for (auto& [in, o] : outstanding_) {
      if (now - o.last_send >= cfg_.base.retry_timeout) {
        o.last_send = now;
        send_accept(ctx, in, o.value);
      }
    }
    // Flush-timer path: a partial batch whose oldest command waited
    // flush_after goes out now. No-op in the unbatched regime (pending_
    // is non-empty only while the window is full).
    pump(ctx);
  } else {
    if (takeover_.has_value()) {
      if (now - takeover_->started >= cfg_.base.retry_timeout * 4) begin_takeover(ctx);
    } else if (!granted_.live(now) &&
               now - last_leader_contact_ >= cfg_.base.fd_timeout + fd_jitter_ &&
               (current_leader_ != cfg_.base.self)) {
      // Leader silent for too long: attempt to take over (paper §2.3 —
      // "other proposers can still try to become leaders when they suspect
      // that the last leader has failed").
      begin_takeover(ctx);
    } else {
      forward_pending(ctx);  // commands retained across a step-down
    }
  }
}

void MultiPaxosEngine::handle_client_request(Context& ctx, const Message& m) {
  const Command& cmd = m.u.client_request.cmd;
  if (leader_) {
    if (try_lease_read(ctx, cmd)) return;
    pending_.push(cmd, ctx.now());
    pump(ctx);
    return;
  }
  if (takeover_.has_value()) {
    pending_.push(cmd, ctx.now());  // will be proposed once takeover completes
    return;
  }
  const Nanos now = ctx.now();
  // A client that re-sent after a timeout is itself evidence the leader is
  // slow (§7.6) — trust it alongside our own failure detector. A live lease
  // grant overrides both: we promised not to move against the grantee.
  const bool suspect_leader = !granted_.live(now) &&
                              (current_leader_ == kNoNode ||
                               (m.flags & kFlagLeaderSuspect) != 0 ||
                               now - last_leader_contact_ >= cfg_.base.fd_timeout + fd_jitter_);
  if (suspect_leader) {
    pending_.push(cmd, now);
    begin_takeover(ctx);
  } else {
    Message fwd = m;
    fwd.dst = current_leader_;
    ctx.send(current_leader_, fwd);
  }
}

// The lease read fast path (DESIGN.md §1f): a leader holding a majority of
// unexpired grants answers reads from its applied state machine — no log
// entry, no acceptor round trip. Gated on read_floor_ so a fresh leader
// first applies everything the previous regime may have exposed to readers.
// Reads served here bypass the Executor's (client, seq) dedup cache — safe
// because reads are idempotent and the executor tolerates seq gaps.
bool MultiPaxosEngine::try_lease_read(Context& ctx, const Command& cmd) {
  if (cmd.op != Op::kRead && cmd.op != Op::kReadVersioned) return false;
  if (!lease_.held(ctx.now(), acceptor_count(), is_acceptor(cfg_.base.self))) return false;
  if (log_.first_gap() < read_floor_) return false;
  const StateMachine* sm = cfg_.base.state_machine;
  Message reply(MsgType::kClientReply, ProtoId::kClient, cfg_.base.self, cmd.client);
  reply.u.client_reply.seq = cmd.seq;
  reply.u.client_reply.ok = 1;
  reply.u.client_reply.instance = kNoInstance;  // no log entry backs this read
  reply.u.client_reply.result =
      sm == nullptr ? 0
      : cmd.op == Op::kRead ? sm->read(cmd.key)
                            : sm->versioned_read(cmd.key);
  reply.u.client_reply.leader_hint = cfg_.base.self;
  reply.u.client_reply.lease_epoch = write_epoch_;
  ctx.send(cmd.client, reply);
  ++lease_reads_;
  return true;
}

void MultiPaxosEngine::pump(Context& ctx) {
  while (pending_.ready(ctx.now(), outstanding_.size()) &&
         static_cast<std::int32_t>(outstanding_.size()) < cfg_.base.pipeline_window) {
    Instance in = std::max(next_instance_, log_.first_gap());
    while (log_.is_learned(in) || outstanding_.count(in) != 0) in++;
    next_instance_ = in + 1;
    const Batch value = pending_.take();
    for (const Command& cmd : value) {
      if (cmd.client != kNoNode) advocated_.insert(client_key(cmd));
    }
    outstanding_[in] = Outstanding{value, ctx.now()};
    send_accept(ctx, in, value);
  }
}

void MultiPaxosEngine::send_accept(Context& ctx, Instance in, const Batch& value) {
  for (NodeId a = 0; a < acceptor_count(); ++a) {
    Message m(MsgType::kPhase2BatchReq, ProtoId::kMultiPaxos, cfg_.base.self, a);
    m.u.phase2_batch_req.instance = in;
    m.u.phase2_batch_req.pn = my_ballot_;
    m.u.phase2_batch_req.count = m.u.phase2_batch_req.run.pack(value);
    ctx.send(a, m);
  }
}

// One acceptance frame for `value`: a decided catch-up (kFlagDecided) or a
// live acceptance.
void MultiPaxosEngine::send_acked(Context& ctx, NodeId dst, Instance in, ProposalNum pn,
                                  const Batch& value, bool decided) {
  Message acked(MsgType::kPhase2BatchAcked, ProtoId::kMultiPaxos, cfg_.base.self, dst);
  if (decided) acked.flags = kFlagDecided;
  acked.u.phase2_batch_acked.instance = in;
  acked.u.phase2_batch_acked.pn = pn;
  acked.u.phase2_batch_acked.count = acked.u.phase2_batch_acked.run.pack(value);
  ctx.send(dst, acked);
}

void MultiPaxosEngine::begin_takeover(Context& ctx) {
  Takeover t;
  t.pn = next_ballot();
  t.from_instance = log_.first_gap();
  t.started = ctx.now();
  takeover_ = t;
  for (NodeId a = 0; a < acceptor_count(); ++a) {
    Message m(MsgType::kPhase1Req, ProtoId::kMultiPaxos, cfg_.base.self, a);
    m.u.phase1_req.pn = t.pn;
    m.u.phase1_req.from_instance = t.from_instance;
    ctx.send(a, m);
  }
}

void MultiPaxosEngine::merge_recovered(Instance in, ProposalNum pn, const Batch& value) {
  auto it = takeover_->recovered.find(in);
  if (it == takeover_->recovered.end() || pn > it->second.pn) {
    takeover_->recovered[in] = AcceptedValue{pn, value};
  }
}

void MultiPaxosEngine::maybe_count_promise(Context& ctx, NodeId acceptor) {
  Takeover::Report& r = takeover_->reports[acceptor];
  if (!r.main || r.seen_batched < r.expect_batched) return;
  if ((takeover_->promise_mask & (1ULL << acceptor)) != 0) return;
  takeover_->promise_mask |= 1ULL << acceptor;
  if (__builtin_popcountll(takeover_->promise_mask) >= majority(acceptor_count())) {
    finish_takeover(ctx);
  }
}

void MultiPaxosEngine::finish_takeover(Context& ctx) {
  const Takeover t = *takeover_;
  takeover_.reset();
  leader_ = true;
  current_leader_ = cfg_.base.self;
  my_ballot_ = t.pn;
  lease_.reset();  // grants echo the new ballot's heartbeats from scratch
  // Re-propose every value some acceptor already accepted (the Paxos
  // constraint), and plug any holes below them with no-ops so the log
  // executes contiguously.
  Instance max_recovered = t.from_instance - 1;
  for (const auto& [in, rec] : t.recovered) max_recovered = std::max(max_recovered, in);
  // The previous leader may have lease-served reads of anything it applied,
  // i.e. anything decided — which phase 1 recovery bounds by max_recovered.
  // Serve no lease read here until our applied prefix covers all of it.
  read_floor_ = max_recovered + 1;
  for (Instance in = t.from_instance; in <= max_recovered; ++in) {
    if (log_.is_learned(in)) continue;
    Batch value = single_batch(Command{});  // no-op unless constrained
    auto it = t.recovered.find(in);
    if (it != t.recovered.end()) value = it->second.value;
    outstanding_[in] = Outstanding{value, ctx.now()};
    send_accept(ctx, in, value);
  }
  next_instance_ = std::max(log_.first_gap(), max_recovered + 1);
  pump(ctx);
}

void MultiPaxosEngine::step_down(Context& ctx, NodeId new_leader) {
  leader_ = false;
  takeover_.reset();
  lease_.reset();  // our grants supported the ballot we just lost
  if (new_leader != kNoNode && new_leader != cfg_.base.self) current_leader_ = new_leader;
  last_leader_contact_ = ctx.now();
  // Keep unfinished commands: they are forwarded below if we know the new
  // leader, otherwise they wait in pending_ until tick() learns one (the
  // executor's (client, seq) dedup makes double-proposal harmless).
  for (auto& [in, o] : outstanding_) {
    for (const Command& cmd : o.value) pending_.push(cmd, ctx.now());
  }
  outstanding_.clear();
  forward_pending(ctx);
}

void MultiPaxosEngine::forward_pending(Context& ctx) {
  if (current_leader_ == kNoNode || current_leader_ == cfg_.base.self || leader_) return;
  for (const Command& cmd : pending_.drain()) {
    if (cmd.client == kNoNode) continue;  // no-ops need no re-advocacy
    Message fwd(MsgType::kClientRequest, ProtoId::kMultiPaxos, cfg_.base.self, current_leader_);
    fwd.u.client_request.cmd = cmd;
    ctx.send(current_leader_, fwd);
  }
}

void MultiPaxosEngine::handle_phase1_req(Context& ctx, const Message& m) {
  const ProposalNum pn = m.u.phase1_req.pn;
  // A live grant is a promise not to support any OTHER candidate: refuse
  // without bumping promised_, so the candidate retries after the grant
  // lapses instead of deposing the leader the grant still protects.
  if (granted_.blocks(m.src, ctx.now())) {
    Message nack(MsgType::kNack, ProtoId::kMultiPaxos, cfg_.base.self, m.src);
    nack.u.nack.instance = kNoInstance;
    nack.u.nack.higher_pn = promised_;
    nack.u.nack.leader_hint = granted_.to;
    ctx.send(m.src, nack);
    return;
  }
  if (pn > promised_) {
    promised_ = pn;
    if (leader_ && !(pn == my_ballot_)) step_down(ctx, pn.node);
    Message resp(MsgType::kPhase1Resp, ProtoId::kMultiPaxos, cfg_.base.self, m.src);
    resp.u.phase1_resp.pn = pn;
    // Report every value this acceptor accepted at or past the candidate's
    // first gap, including the ones it has since learned (learn() drops
    // them from accepted_): a phase-1 quorum may meet a value's acceptance
    // quorum only at a learner. Learned values carry kDecidedPn, so they
    // outrank any other report for their instance. Nothing is left out:
    // what the inline array does not take rides sidecars, which the main
    // response counts.
    std::int32_t n = 0;
    std::int32_t nb = 0;
    const auto report = [&](Instance in, ProposalNum apn, const Batch& value) {
      if (value.size() == 1 && n < kInlineReports) {
        resp.u.phase1_resp.proposals[n++] = Proposal{in, apn, value.front()};
        return;
      }
      Message side(MsgType::kPhase1BatchResp, ProtoId::kMultiPaxos, cfg_.base.self, m.src);
      side.u.phase1_batch_resp.pn = pn;
      side.u.phase1_batch_resp.accepted_pn = apn;
      side.u.phase1_batch_resp.instance = in;
      side.u.phase1_batch_resp.count = side.u.phase1_batch_resp.run.pack(value);
      ctx.send(m.src, side);
      nb++;
    };
    for (Instance in = std::max<Instance>(m.u.phase1_req.from_instance, 0); in < log_.end();
         ++in) {
      if (const Batch* b = log_.get_batch(in)) report(in, kDecidedPn, *b);
    }
    for (const auto& [in, acc] : accepted_) {
      if (in >= m.u.phase1_req.from_instance) report(in, acc.pn, acc.value);
    }
    resp.u.phase1_resp.num_proposals = n;
    resp.u.phase1_resp.num_batched = nb;
    ctx.send(m.src, resp);
  } else {
    Message nack(MsgType::kNack, ProtoId::kMultiPaxos, cfg_.base.self, m.src);
    nack.u.nack.instance = kNoInstance;
    nack.u.nack.higher_pn = promised_;
    nack.u.nack.leader_hint = current_leader_;
    ctx.send(m.src, nack);
  }
}

void MultiPaxosEngine::handle_phase1_resp(Context& ctx, const Message& m) {
  if (!takeover_.has_value() || !(m.u.phase1_resp.pn == takeover_->pn)) return;
  if (!is_acceptor(m.src)) return;
  for (std::int32_t i = 0; i < m.u.phase1_resp.num_proposals; ++i) {
    const Proposal& p = m.u.phase1_resp.proposals[i];
    merge_recovered(p.instance, p.pn, single_batch(p.value));
  }
  Takeover::Report& r = takeover_->reports[m.src];
  r.main = true;
  r.expect_batched = m.u.phase1_resp.num_batched;
  maybe_count_promise(ctx, m.src);
}

void MultiPaxosEngine::handle_phase1_batch_resp(Context& ctx, const Message& m) {
  if (!takeover_.has_value() || !(m.u.phase1_batch_resp.pn == takeover_->pn)) return;
  if (!is_acceptor(m.src)) return;
  merge_recovered(m.u.phase1_batch_resp.instance, m.u.phase1_batch_resp.accepted_pn,
                  unpack_batch(m.u.phase1_batch_resp.run.data(m.u.phase1_batch_resp.count),
                               m.u.phase1_batch_resp.count));
  takeover_->reports[m.src].seen_batched++;
  maybe_count_promise(ctx, m.src);
}

void MultiPaxosEngine::handle_phase2_req(Context& ctx, Instance in, ProposalNum pn,
                                         const Batch& value, NodeId src) {
  if (log_.is_learned(in)) {
    // Already decided: remind only the retrying proposer (a decided
    // catch-up carries no ballot).
    send_acked(ctx, src, in, ProposalNum{}, *log_.get_batch(in), /*decided=*/true);
    return;
  }
  if (pn >= promised_) {
    promised_ = pn;
    if (leader_ && !(pn == my_ballot_)) step_down(ctx, pn.node);
    accepted_[in] = AcceptedValue{pn, value};
    // Acceptance broadcast to every replica (all are learners) — the
    // message pattern Fig. 3 counts. A whole batch rides one broadcast.
    for (NodeId r = 0; r < cfg_.base.num_replicas; ++r) {
      send_acked(ctx, r, in, pn, value, /*decided=*/false);
    }
  } else {
    Message nack(MsgType::kNack, ProtoId::kMultiPaxos, cfg_.base.self, src);
    nack.u.nack.instance = in;
    nack.u.nack.higher_pn = promised_;
    nack.u.nack.leader_hint = current_leader_;
    ctx.send(src, nack);
  }
}

void MultiPaxosEngine::handle_phase2_acked(Context& ctx, Instance in, ProposalNum pn,
                                           const Batch& value, NodeId src, bool decided) {
  if (log_.is_learned(in)) return;
  if (decided) {
    learn(ctx, in, value);
    return;
  }
  if (!is_acceptor(src)) return;
  auto& learner = learners_[in];
  if (learner.record(pn, src, majority(acceptor_count()))) {
    learn(ctx, in, value);
  }
}

void MultiPaxosEngine::handle_nack(Context& ctx, const Message& m) {
  ballot_counter_ = std::max(ballot_counter_, m.u.nack.higher_pn.counter);
  // The ballot owner is the best leader guess: it proved it reached this
  // acceptor more recently than any hint the acceptor might remember.
  const NodeId hint = m.u.nack.higher_pn.node;
  if (takeover_.has_value() && m.u.nack.higher_pn > takeover_->pn) {
    takeover_.reset();
    step_down(ctx, hint);
    return;
  }
  if (leader_ && m.u.nack.higher_pn > my_ballot_) step_down(ctx, hint);
}

void MultiPaxosEngine::handle_heartbeat(Context& ctx, const Message& m) {
  const NodeId hb_leader = m.u.heartbeat.leader;
  if (hb_leader == cfg_.base.self) return;
  if (leader_) {
    // Two believed leaders: the lower ballot yields (cold starts or
    // interleaved takeovers can leave several nodes believing they lead).
    if (m.u.heartbeat.ballot > my_ballot_) step_down(ctx, hb_leader);
    return;
  }
  current_leader_ = hb_leader;
  last_leader_contact_ = ctx.now();
  takeover_.reset();
  // Lease renewal: grant (or re-grant) to the sender, unless we already
  // promised a HIGHER ballot to someone else — supporting a deposed regime
  // would let two leaders hold "majorities" built from disjoint eras.
  if (cfg_.base.lease_duration > 0 && m.u.heartbeat.lease_seq != 0 &&
      !(promised_ > m.u.heartbeat.ballot)) {
    granted_.grant(hb_leader, ctx.now(), cfg_.base.lease_duration);
    Message g(MsgType::kLeaseGrant, ProtoId::kMultiPaxos, cfg_.base.self, hb_leader);
    g.u.lease_grant.grantor = cfg_.base.self;
    g.u.lease_grant.lease_seq = m.u.heartbeat.lease_seq;
    g.u.lease_grant.ballot = m.u.heartbeat.ballot;
    ctx.send(hb_leader, g);
  }
  forward_pending(ctx);
}

void MultiPaxosEngine::handle_lease_grant(const Message& m) {
  if (!leader_ || !(m.u.lease_grant.ballot == my_ballot_)) return;
  if (!is_acceptor(m.src)) return;  // only the electorate's grants count
  lease_.on_grant(m.src, m.u.lease_grant.lease_seq);
}

void MultiPaxosEngine::learn(Context& ctx, Instance in, const Batch& value) {
  log_.learn(in, value);
  accepted_.erase(in);
  learners_.erase(in);
  outstanding_.erase(in);
  log_.drain([&](Instance din, const Command& dcmd) {
    const Executor::Applied applied = executor_.apply(dcmd);
    // Advance the near-cache epoch on every applied mutation (txn ops lock
    // and stage, so they count too). Deterministic across replicas: it is a
    // pure function of the applied log prefix. Skips 0 on wrap (0 = "epoch
    // not reported" to clients).
    if (!applied.duplicate && !dcmd.is_noop() && dcmd.op != Op::kRead &&
        dcmd.op != Op::kReadVersioned) {
      if (++write_epoch_ == 0) ++write_epoch_;
    }
    ctx.deliver(din, dcmd);
    auto adv = advocated_.find(client_key(dcmd));
    if (adv != advocated_.end()) {
      Message reply(MsgType::kClientReply, ProtoId::kClient, cfg_.base.self, dcmd.client);
      reply.u.client_reply.seq = dcmd.seq;
      reply.u.client_reply.ok = 1;
      reply.u.client_reply.instance = din;
      reply.u.client_reply.result = applied.result;
      reply.u.client_reply.leader_hint = leader_ ? cfg_.base.self : current_leader_;
      reply.u.client_reply.lease_epoch = write_epoch_;
      ctx.send(dcmd.client, reply);
      advocated_.erase(adv);
    }
  });
  if (leader_) pump(ctx);
}

}  // namespace ci::consensus
