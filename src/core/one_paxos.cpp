#include "core/one_paxos.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace ci::core {

namespace {

std::uint64_t client_key(const Command& cmd) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cmd.client)) << 32) | cmd.seq;
}

}  // namespace

OnePaxosEngine::OnePaxosEngine(const OnePaxosConfig& cfg)
    : cfg_(cfg),
      executor_(cfg.base.state_machine),
      rng_(cfg.base.seed + static_cast<std::uint64_t>(cfg.base.self) * 6700417),
      utility_(cfg.base, [this](Context& ctx, Instance idx, const UtilityEntry& e) {
        on_utility_decided(ctx, idx, e);
      }),
      pending_(cfg.base.batch) {
  CI_CHECK(cfg_.initial_leader != cfg_.initial_acceptor);
  CI_CHECK(is_replica(cfg_.base, cfg_.initial_leader));
  CI_CHECK(is_replica(cfg_.base, cfg_.initial_acceptor));
  utility_.bootstrap(cfg_.initial_leader, cfg_.initial_acceptor);
  current_leader_ = cfg_.initial_leader;
  pn_counter_ = 1;
  if (cfg_.base.self == cfg_.initial_leader) {
    // Appendix B initialization: the initial leader starts already adopted
    // by the initial acceptor at ballot {1, leader}.
    i_am_leader_ = true;
    active_acceptor_ = cfg_.initial_acceptor;
    my_pn_ = ProposalNum{1, cfg_.initial_leader};
  }
  if (cfg_.base.self == cfg_.initial_acceptor) {
    i_am_fresh_ = false;
    hpn_ = ProposalNum{1, cfg_.initial_leader};
  }
  ever_acceptors_.insert(cfg_.initial_acceptor);
  fd_jitter_ = static_cast<Nanos>(
      rng_.next_below(static_cast<std::uint64_t>(cfg_.base.fd_timeout / 4) + 1));
  lease_.configure(cfg_.base.lease_duration, cfg_.base.lease_epsilon);
}

void OnePaxosEngine::start(Context& ctx) {
  last_leader_contact_ = ctx.now();
  last_acceptor_contact_ = ctx.now();
  leader_progress_at_ = ctx.now();
}

ProposalNum OnePaxosEngine::new_pn() {
  pn_counter_++;
  return ProposalNum{pn_counter_, cfg_.base.self};
}

bool OnePaxosEngine::suspect_leader(Nanos now) const {
  if (current_leader_ == cfg_.base.self) return !i_am_leader_;
  return now - last_leader_contact_ >= cfg_.base.fd_timeout + fd_jitter_;
}

void OnePaxosEngine::reset_acceptor_state() {
  hpn_ = ProposalNum{};
  ap_.clear();
  i_am_fresh_ = true;
}

// ---------------------------------------------------------------- messages

void OnePaxosEngine::on_message(Context& ctx, const Message& m) {
  if (m.src == current_leader_ && m.src != cfg_.base.self) last_leader_contact_ = ctx.now();
  if (m.proto == ProtoId::kUtility) {
    // A live lease grant is a promise not to support any OTHER node's
    // configuration proposals — the utility log IS this protocol's election.
    // Drop the ballot-carrying requests; the candidate retries after the
    // grant lapses. (The grantee's own proposals — acceptor rotations — and
    // all responses/learns pass through untouched.)
    if ((m.type == MsgType::kUtilPhase1Req || m.type == MsgType::kUtilPhase2Req) &&
        granted_.blocks(m.src, ctx.now())) {
      return;
    }
    utility_.on_message(ctx, m);
    return;
  }
  switch (m.type) {
    case MsgType::kClientRequest:
      handle_client_request(ctx, m);
      return;
    case MsgType::kOpxBatchAcceptReq: {
      const OpxBatchAcceptReq& p = m.u.opx_batch_accept_req;
      handle_accept_req(ctx, p.instance, p.pn, unpack_into(scratch_, p.run.data(p.count), p.count),
                        m.src);
      return;
    }
    case MsgType::kOpxBatchLearn: {
      if (m.src == active_acceptor_) last_acceptor_contact_ = ctx.now();
      const OpxBatchLearn& p = m.u.opx_batch_learn;
      learn(ctx, p.instance, unpack_into(scratch_, p.run.data(p.count), p.count));
      return;
    }
    case MsgType::kOpxLearnRun: {
      // A catch-up run: count consecutive instances, one command each.
      if (m.src == active_acceptor_) last_acceptor_contact_ = ctx.now();
      const OpxLearnRun& p = m.u.opx_learn_run;
      const Command* cmds = p.run.data(p.count);
      for (std::int32_t i = 0; i < p.count; ++i) {
        scratch_.assign(1, cmds[i]);
        learn(ctx, p.first_instance + i, scratch_);
      }
      return;
    }
    case MsgType::kOpxPrepareReq:
      handle_prepare_req(ctx, m);
      return;
    case MsgType::kOpxPrepareResp:
      if (m.src == active_acceptor_) last_acceptor_contact_ = ctx.now();
      handle_prepare_resp(ctx, m);
      return;
    case MsgType::kOpxPrepareBatchResp:
      if (m.src == active_acceptor_) last_acceptor_contact_ = ctx.now();
      handle_prepare_batch_resp(ctx, m);
      return;
    case MsgType::kOpxWindowBody:
      handle_window_body(ctx, m);
      return;
    case MsgType::kOpxWindowFetchReq:
      handle_window_fetch(ctx, m);
      return;
    case MsgType::kOpxAbandon:
      handle_abandon(ctx, m);
      return;
    case MsgType::kHeartbeat: {
      if (m.u.heartbeat.leader == cfg_.base.self) return;
      const Instance epoch = m.u.heartbeat.ballot.counter;
      if (epoch < current_leader_epoch_) return;  // deposed leader's echo
      if (i_am_leader_ && epoch > current_leader_epoch_) {
        // A LeaderChange newer than ours exists that we have not learned
        // yet; the heartbeat is authoritative evidence.
        relinquish(ctx, m.u.heartbeat.leader);
      }
      current_leader_ = m.u.heartbeat.leader;
      current_leader_epoch_ = epoch;
      last_leader_contact_ = ctx.now();
      // Track whether the leader's commit frontier moves: heartbeats alone
      // do not prove usefulness (a slow leader heartbeats while drowning).
      // A mid-recovery leader counts as progressing — its heartbeats say so.
      if (m.u.heartbeat.committed > leader_committed_seen_ ||
          (m.flags & kFlagEstablishing) != 0) {
        leader_committed_seen_ = std::max(leader_committed_seen_, m.u.heartbeat.committed);
        leader_progress_at_ = ctx.now();
      }
      // Lease renewal: grant to the sender unless we already follow a NEWER
      // view (guarded above: epoch >= current_leader_epoch_ here).
      if (cfg_.base.lease_duration > 0 && m.u.heartbeat.lease_seq != 0) {
        granted_.grant(m.u.heartbeat.leader, ctx.now(), cfg_.base.lease_duration);
        Message g(MsgType::kLeaseGrant, ProtoId::kOnePaxos, cfg_.base.self,
                  m.u.heartbeat.leader);
        g.u.lease_grant.grantor = cfg_.base.self;
        g.u.lease_grant.lease_seq = m.u.heartbeat.lease_seq;
        g.u.lease_grant.ballot = m.u.heartbeat.ballot;
        ctx.send(m.u.heartbeat.leader, g);
      }
      if (m.u.heartbeat.committed > log_.first_gap() &&
          ctx.now() - last_catchup_sent_ >= cfg_.base.retry_timeout) {
        // The leader has decided instances we miss (lost learns): ask for a
        // re-send so local execution can progress.
        last_catchup_sent_ = ctx.now();
        Message req(MsgType::kOpxCatchupReq, ProtoId::kOnePaxos, cfg_.base.self, m.src);
        req.u.opx_catchup_req.from_instance = log_.first_gap();
        ctx.send(m.src, req);
      }
      return;
    }
    case MsgType::kOpxCatchupReq: {
      // Any node re-sends the decided values it knows (bounded window).
      // Consecutive single-command instances coalesce into one
      // kOpxLearnRun frame; multi-command batches and undecided gaps
      // break the run, and a batch ships as its own learn frame.
      const Instance from = m.u.opx_catchup_req.from_instance;
      const Instance to = std::min(from + kMaxLearnRunCommands, log_.end());
      Batch run;  // one command per coalesced instance
      Instance run_start = kNoInstance;
      const auto flush_run = [&] {
        if (run.empty()) return;
        send_learn_run(ctx, m.src, run_start, run);
        run.clear();
      };
      for (Instance in = from; in < to; ++in) {
        const Batch* v = log_.get_batch(in);
        if (v == nullptr || v->size() != 1) {
          flush_run();
          if (v != nullptr) send_learn(ctx, m.src, in, *v);
          continue;
        }
        if (run.empty()) run_start = in;
        run.push_back(v->front());
      }
      flush_run();
      return;
    }
    case MsgType::kPing: {
      Message pong(MsgType::kPong, ProtoId::kOnePaxos, cfg_.base.self, m.src);
      pong.u.heartbeat.committed = log_.end();  // frontier evidence for recovery polls
      ctx.send(m.src, pong);
      return;
    }
    case MsgType::kLeaseGrant:
      handle_lease_grant(m);
      return;
    case MsgType::kPong:
      if (m.src == active_acceptor_) last_acceptor_contact_ = ctx.now();
      if (recovery_poll_) {
        alloc_frontier_ = std::max(alloc_frontier_, m.u.heartbeat.committed);
      }
      if (m.src == probe_acceptor_) {
        // The acceptor we want to adopt is alive: announce the takeover.
        probe_acceptor_ = kNoNode;
        begin_leader_change(ctx);
      }
      return;
    default:
      return;
  }
}

void OnePaxosEngine::handle_client_request(Context& ctx, const Message& m) {
  const Command& cmd = m.u.client_request.cmd;
  if (i_am_leader_) {
    if (try_lease_read(ctx, cmd)) return;
    pending_.push(cmd, ctx.now());
    pump(ctx);
    return;
  }
  if (switching_ != Switch::kNone || prepare_outstanding_ || utility_.propose_in_flight()) {
    pending_.push(cmd, ctx.now());  // takeover in progress; propose once adopted
    return;
  }
  const Nanos now = ctx.now();
  const bool fd_suspects = suspect_leader(now);
  if (fd_suspects || (m.flags & kFlagLeaderSuspect) != 0) {
    // The client came to us because the leader looks slow (§7.6). Act when
    // our own failure detector agrees, or when the leader demonstrably
    // makes no commit progress despite heartbeating (a drowning core).
    // A leader mid-recovery marks its heartbeats as establishing and gets
    // patience — deposing it would restart the recovery (the LeaderChange
    // ping-pong). Otherwise hold the command; tick() acts later.
    const bool no_progress = now - leader_progress_at_ >= cfg_.base.fd_timeout * 2;
    pending_.push(cmd, now);
    if (fd_suspects || no_progress) try_takeover(ctx);
    return;
  }
  Message fwd = m;
  fwd.dst = current_leader_;
  ctx.send(current_leader_, fwd);
}

// The lease read fast path (DESIGN.md §1f): a leader holding unexpired
// grants from a majority of replicas (itself included) answers reads from
// its applied state machine — no log entry, no acceptor round trip, which
// on 1Paxos's single-acceptor fast path removes BOTH remaining hops.
// Gated on read_floor_ so a fresh leader first applies everything the
// previous regime may have exposed to its own lease readers.
bool OnePaxosEngine::try_lease_read(Context& ctx, const Command& cmd) {
  if (cmd.op != Op::kRead && cmd.op != Op::kReadVersioned) return false;
  if (!lease_.held(ctx.now(), cfg_.base.num_replicas, /*self_votes=*/true)) return false;
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

// Grants echo the view version our heartbeats carry; anything else is from
// a regime we no longer run (reset() on relinquish also guarantees stale
// echoes find no recorded send time).
void OnePaxosEngine::handle_lease_grant(const Message& m) {
  if (m.u.lease_grant.ballot.node != cfg_.base.self ||
      m.u.lease_grant.ballot.counter != current_leader_epoch_) {
    return;
  }
  if (!is_replica(cfg_.base, m.src)) return;
  lease_.on_grant(m.src, m.u.lease_grant.lease_seq);
}

// Outstanding instances under batching: the uncommitted window — and the
// union of TWO windows after a handover — must fit one AcceptorChange
// entry's proposals/batched arrays (kMaxProposalsPerMsg entries each).
// Batch SIZE no longer constrains the depth: entries carry (instance,
// count, digest) refs and the command bodies travel out of line, so a
// batch-64 leader pipelines as deeply as an unbatched one (the old command
// pool clamped this to one instance at full batch).
std::int32_t OnePaxosEngine::effective_window() const {
  const BatchPolicy& p = cfg_.base.batch;
  if (!p.batching()) return cfg_.base.pipeline_window;
  return std::max(std::min(cfg_.base.pipeline_window, kMaxProposalsPerMsg / 2), 1);
}

void OnePaxosEngine::pump(Context& ctx) {
  while (pending_.ready(ctx.now(), proposed_.size()) &&
         static_cast<std::int32_t>(proposed_.size()) < effective_window()) {
    Instance in = std::max({next_instance_, log_.first_gap(), alloc_frontier_});
    while (log_.is_learned(in) || proposed_.count(in) != 0) in++;
    next_instance_ = in + 1;
    const Batch value = pending_.take();
    for (const Command& cmd : value) {
      if (cmd.client != kNoNode) advocated_.insert(client_key(cmd));
    }
    proposed_[in] = value;  // getAny: remember what we advocate for `in`
    send_accept(ctx, in);
  }
}

void OnePaxosEngine::send_accept(Context& ctx, Instance in) {
  auto& t = accept_times_[in];
  if (t.first_sent == 0) t.first_sent = ctx.now();
  t.last_sent = ctx.now();
  Message m(MsgType::kOpxBatchAcceptReq, ProtoId::kOnePaxos, cfg_.base.self, active_acceptor_);
  m.u.opx_batch_accept_req.instance = in;
  m.u.opx_batch_accept_req.pn = my_pn_;
  m.u.opx_batch_accept_req.count = m.u.opx_batch_accept_req.run.pack(proposed_.at(in));
  ctx.send(active_acceptor_, m);
}

void OnePaxosEngine::send_learn(Context& ctx, NodeId dst, Instance in, const Batch& value) {
  Message l(MsgType::kOpxBatchLearn, ProtoId::kOnePaxos, cfg_.base.self, dst);
  l.u.opx_batch_learn.instance = in;
  l.u.opx_batch_learn.count = l.u.opx_batch_learn.run.pack(value);
  ctx.send(dst, l);
}

// One frame for a run of consecutive single-command decided instances
// starting at `first` (cmds[i] decides first + i).
void OnePaxosEngine::send_learn_run(Context& ctx, NodeId dst, Instance first,
                                    const Batch& cmds) {
  CI_CHECK(cmds.size() <= static_cast<std::size_t>(kMaxLearnRunCommands));
  Message l(MsgType::kOpxLearnRun, ProtoId::kOnePaxos, cfg_.base.self, dst);
  l.u.opx_learn_run.first_instance = first;
  l.u.opx_learn_run.count = l.u.opx_learn_run.run.pack(cmds);
  ctx.send(dst, l);
}

void OnePaxosEngine::handle_accept_req(Context& ctx, Instance in, ProposalNum pn,
                                       const Batch& value, NodeId src) {
  if (!(pn == hpn_)) {
    Message ab(MsgType::kOpxAbandon, ProtoId::kOnePaxos, cfg_.base.self, src);
    ab.u.opx_abandon.higher_pn = hpn_;
    ctx.send(src, ab);
    return;
  }
  if (log_.is_learned(in)) {
    // Already decided and pruned from ap: remind only the retrying leader.
    send_learn(ctx, src, in, *log_.get_batch(in));
    return;
  }
  auto it = ap_.find(in);
  if (it == ap_.end()) {
    it = ap_.emplace(in, AcceptedValue{pn, value}).first;
#ifdef CI_OPX_TRACE
    if (in == CI_OPX_TRACE) {
      std::fprintf(stderr, "[t=%lld] node %d ACCEPTS in=%lld (c%d,s%u) pn={%lld,%d} from %d\n",
                   (long long)ctx.now(), cfg_.base.self, (long long)in,
                   it->second.value.front().client, it->second.value.front().seq,
                   (long long)pn.counter, pn.node, src);
    }
#endif
  }
  // Accepted (or a retry of an accepted proposal): multicast the learn
  // message to every learner — re-broadcasting covers lost learns, exactly
  // as in Fig. 12.
  for (NodeId r = 0; r < cfg_.base.num_replicas; ++r) {
    send_learn(ctx, r, in, it->second.value);
  }
}

void OnePaxosEngine::learn(Context& ctx, Instance in, const Batch& v) {
  if (log_.is_learned(in)) return;
  log_.learn(in, v);
  ap_.erase(in);
  accept_times_.erase(in);
  // Any published window body for this instance is superseded by the
  // decision; prune every digest keyed to it.
  window_bodies_.erase(
      window_bodies_.lower_bound({in, 0}),
      window_bodies_.upper_bound({in, std::numeric_limits<std::uint64_t>::max()}));
  auto it = proposed_.find(in);
  if (it != proposed_.end()) {
    if (!(it->second == v)) {
      // We advocated a different value for this instance (lost a race
      // around a reconfiguration): re-propose the commands of ours that
      // did not make it, ahead of new arrivals.
      for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
        if (std::find(v.begin(), v.end(), *rit) == v.end()) pending_.push_front(*rit);
      }
    }
    proposed_.erase(it);
  }
  log_.drain([&](Instance din, const Command& dcmd) {
    const Executor::Applied applied = executor_.apply(dcmd);
    // Advance the near-cache epoch on every applied mutation (deterministic
    // across replicas: a function of the applied log prefix; skips 0 on
    // wrap, 0 meaning "epoch not reported").
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
      reply.u.client_reply.leader_hint = i_am_leader_ ? cfg_.base.self : current_leader_;
      reply.u.client_reply.lease_epoch = write_epoch_;
      ctx.send(dcmd.client, reply);
      advocated_.erase(adv);
    }
  });
  if (i_am_leader_) pump(ctx);
}

// ------------------------------------------------------- adopt an acceptor

void OnePaxosEngine::send_prepare(Context& ctx, bool must_be_fresh) {
  CI_CHECK(active_acceptor_ != kNoNode);
  my_pn_ = new_pn();
  if (!prepare_outstanding_) prepare_first_sent_ = ctx.now();  // retries keep the first timestamp
  prepare_outstanding_ = true;
  prepare_fresh_flag_ = must_be_fresh;
  prepare_last_sent_ = ctx.now();
  // A fresh ballot obsoletes any partially-collected report.
  prepare_batched_.clear();
  prepare_main_held_ = false;
  Message m(MsgType::kOpxPrepareReq, ProtoId::kOnePaxos, cfg_.base.self, active_acceptor_);
  m.u.opx_prepare_req.pn = my_pn_;
  m.u.opx_prepare_req.you_must_be_fresh = must_be_fresh ? 1 : 0;
  ctx.send(active_acceptor_, m);
}

void OnePaxosEngine::handle_prepare_req(Context& ctx, const Message& m) {
  const ProposalNum pn = m.u.opx_prepare_req.pn;
  const bool must_be_fresh = m.u.opx_prepare_req.you_must_be_fresh != 0;
  if (pn > hpn_) {
    if (i_am_fresh_ != must_be_fresh) {
      // Freshness mismatch (Fig. 12 line 47): the proposer's view of this
      // acceptor is stale — e.g. we silently rebooted and lost hpn/ap.
      // Silently drop; the proposer times out and switches acceptor.
      return;
    }
    i_am_fresh_ = false;
    hpn_ = pn;
    Message resp(MsgType::kOpxPrepareResp, ProtoId::kOnePaxos, cfg_.base.self, m.src);
    resp.u.opx_prepare_resp.acceptor = cfg_.base.self;
    resp.u.opx_prepare_resp.pn = pn;
    // One past the highest instance this acceptor has seen: the adopter's
    // allocation lower bound.
    Instance frontier = std::max(log_.end(), alloc_frontier_);
    if (!ap_.empty()) frontier = std::max(frontier, ap_.rbegin()->first + 1);
    resp.u.opx_prepare_resp.frontier = frontier;
    std::int32_t n = 0;
    std::int32_t nb = 0;
    for (const auto& [in, acc] : ap_) {
      if (acc.value.size() == 1) {
        if (n >= kMaxProposalsPerMsg) break;
        resp.u.opx_prepare_resp.accepted[n++] = Proposal{in, acc.pn, acc.value.front()};
      } else {
        // Batched ap entries ride as sidecars ahead of the main response,
        // which counts them so the adopter knows when its copy of our
        // short-term memory is complete.
        if (nb >= kMaxProposalsPerMsg) break;
        Message side(MsgType::kOpxPrepareBatchResp, ProtoId::kOnePaxos, cfg_.base.self,
                     m.src);
        side.u.opx_prepare_batch_resp.acceptor = cfg_.base.self;
        side.u.opx_prepare_batch_resp.pn = pn;
        side.u.opx_prepare_batch_resp.instance = in;
        side.u.opx_prepare_batch_resp.count = side.u.opx_prepare_batch_resp.run.pack(acc.value);
        ctx.send(m.src, side);
        nb++;
      }
    }
    resp.u.opx_prepare_resp.num_accepted = n;
    resp.u.opx_prepare_resp.num_batched = nb;
    ctx.send(m.src, resp);
  } else {
    Message ab(MsgType::kOpxAbandon, ProtoId::kOnePaxos, cfg_.base.self, m.src);
    ab.u.opx_abandon.higher_pn = hpn_;
    ctx.send(m.src, ab);
  }
}

void OnePaxosEngine::handle_prepare_batch_resp(Context& ctx, const Message& m) {
  // Same staleness guards as the main response (Fig. 12).
  if (i_am_leader_ || m.u.opx_prepare_batch_resp.acceptor != active_acceptor_ ||
      !(m.u.opx_prepare_batch_resp.pn == my_pn_)) {
    return;
  }
  prepare_batched_[m.u.opx_prepare_batch_resp.instance] =
      unpack_batch(m.u.opx_prepare_batch_resp.run.data(m.u.opx_prepare_batch_resp.count),
                   m.u.opx_prepare_batch_resp.count);
  if (prepare_main_held_ &&
      static_cast<std::int32_t>(prepare_batched_.size()) >=
          prepare_held_main_.u.opx_prepare_resp.num_batched) {
    const Message main = prepare_held_main_;
    prepare_main_held_ = false;
    adopt(ctx, main);
  }
}

void OnePaxosEngine::handle_prepare_resp(Context& ctx, const Message& m) {
  // Fig. 12: "if (IamLeader || Ai != Aa) return".
  if (i_am_leader_ || m.u.opx_prepare_resp.acceptor != active_acceptor_ ||
      !(m.u.opx_prepare_resp.pn == my_pn_)) {
    return;
  }
  if (static_cast<std::int32_t>(prepare_batched_.size()) <
      m.u.opx_prepare_resp.num_batched) {
    // Sidecars still in flight (reordered): hold the adoption until they
    // land. A lost sidecar resolves through the retry path — the next
    // prepare uses a fresh ballot and the acceptor reports again.
    prepare_main_held_ = true;
    prepare_held_main_ = m;
    return;
  }
  adopt(ctx, m);
}

void OnePaxosEngine::adopt(Context& ctx, const Message& m) {
  prepare_outstanding_ = false;
  prepare_main_held_ = false;
  i_am_leader_ = true;
  stuck_gap_ = kNoInstance;  // a fresh reign restarts the gap patience clock
  current_leader_ = cfg_.base.self;
  alloc_frontier_ = std::max(alloc_frontier_, m.u.opx_prepare_resp.frontier);
  // The acceptor's frontier bounds every instance the previous regime could
  // have decided — and so every value its lease readers could have seen.
  // Serve no lease read until our applied prefix covers all of it.
  read_floor_ = std::max(read_floor_, alloc_frontier_);
  register_proposals(m.u.opx_prepare_resp.accepted, m.u.opx_prepare_resp.num_accepted);
  for (const auto& [in, value] : prepare_batched_) register_batched(in, value);
  prepare_batched_.clear();
  // Re-propose every uncommitted value we are responsible for, then take
  // new client commands.
  for (const auto& [in, value] : proposed_) {
    next_instance_ = std::max(next_instance_, in + 1);
    accept_times_.erase(in);
    send_accept(ctx, in);
  }
  pump(ctx);
}

void OnePaxosEngine::handle_abandon(Context& ctx, const Message& m) {
  if (m.src != active_acceptor_) return;  // stale abandon from an old acceptor
  const ProposalNum higher = m.u.opx_abandon.higher_pn;
  pn_counter_ = std::max(pn_counter_, higher.counter);
  if (prepare_outstanding_) {
    // Our adoption attempt was outbid. If the utility log still names us
    // Global leader, the competing ballot is a leftover from a previous
    // leadership stint (e.g. a reused backup's old hpn): escalate the
    // ballot and knock again. Otherwise a real successor exists.
    const NodeId global_leader = utility_.last_leader();
    if (global_leader == cfg_.base.self) {
      send_prepare(ctx, prepare_fresh_flag_);
    } else {
      relinquish(ctx, global_leader);
    }
    return;
  }
  if (!i_am_leader_) return;
  if (higher > my_pn_) {
    // Somebody holds a higher ballot at our acceptor: our leadership is
    // gone (they will have announced a LeaderChange; we learn the new
    // leader from the utility log / heartbeats).
    relinquish(ctx, kNoNode);
    return;
  }
  // The acceptor rejected a ballot it should be promised to: it lost its
  // volatile state (silent reboot). Only an established leader — whose
  // `proposed` map covers everything the old incarnation accepted — may
  // replace it with a fresh backup ("the last leader should switch the
  // rebooted acceptor", Appendix A prose).
  on_acceptor_failure(ctx);
}

void OnePaxosEngine::register_proposals(const Proposal* props, std::int32_t n) {
  for (std::int32_t i = 0; i < n; ++i) {
    const Proposal& p = props[i];
    if (log_.is_learned(p.instance)) continue;
    proposed_[p.instance] = single_batch(p.value);  // Fig. 13 registerProposals
    next_instance_ = std::max(next_instance_, p.instance + 1);
  }
  CI_CHECK_MSG(static_cast<std::int32_t>(proposed_.size()) <= kMaxProposalsPerMsg,
               "uncommitted window overflow");
}

void OnePaxosEngine::register_batched(Instance in, const Batch& value) {
  if (log_.is_learned(in)) return;
  proposed_[in] = value;
  next_instance_ = std::max(next_instance_, in + 1);
  CI_CHECK_MSG(static_cast<std::int32_t>(proposed_.size()) <= kMaxProposalsPerMsg,
               "uncommitted window overflow");
}

// Packs the uncommitted window into an AcceptorChange entry: single-command
// values in the legacy proposals array, batched values as (instance, count,
// digest) refs whose bodies publish_window_bodies() ships out of line.
// Overflow is a hard invariant violation — dropping an uncommitted value
// here could let a successor refill a partially-learned instance with a
// different value (Lemma 2a) — and effective_window() sizes the window so
// even the union of two handovers fits.
void OnePaxosEngine::fill_uncommitted(UtilityEntry* entry) const {
  std::int32_t np = 0;
  std::int32_t nb = 0;
  for (const auto& [in, value] : proposed_) {
    if (log_.is_learned(in)) continue;
    if (value.size() == 1) {
      CI_CHECK_MSG(np < kMaxProposalsPerMsg, "uncommitted window overflows one entry");
      entry->proposals[np++] = Proposal{in, my_pn_, value.front()};
    } else {
      CI_CHECK_MSG(nb < kMaxBatchedPerEntry, "uncommitted batches overflow one entry");
      BatchedProposalRef ref;
      ref.instance = in;
      ref.count = static_cast<std::int32_t>(value.size());
      ref.digest = batch_digest(value);
      entry->batched[nb++] = ref;
    }
  }
  entry->num_proposals = np;
  entry->num_batched = nb;
}

// Ships the bodies behind an AcceptorChange entry's batched refs to every
// replica (and into our own store): by the time the entry decides, anyone
// who may later adopt it holds the bodies its refs name. The refs were
// computed from proposed_ (fill_uncommitted), so walking proposed_ directly
// publishes exactly the ref'd bodies — which also makes this safely
// re-runnable from tick() for as long as this leadership is mid-switch
// (loss of a one-shot broadcast plus a publisher death must not strand the
// decided entry's refs; fetch-on-adopt covers the receivers that missed
// every round).
void OnePaxosEngine::publish_window_bodies(Context& ctx) {
  for (const auto& [in, value] : proposed_) {
    if (value.size() <= 1 || log_.is_learned(in)) continue;
    const std::uint64_t digest = batch_digest(value);
    store_window_body(in, digest, value);
    for (NodeId n = 0; n < cfg_.base.num_replicas; ++n) {
      if (n == cfg_.base.self) continue;
      Message body(MsgType::kOpxWindowBody, ProtoId::kOnePaxos, cfg_.base.self, n);
      body.u.opx_window_body.instance = in;
      body.u.opx_window_body.digest = digest;
      body.u.opx_window_body.count = body.u.opx_window_body.run.pack(value);
      ctx.send(n, body);
    }
  }
  last_body_publish_ = ctx.now();
}

void OnePaxosEngine::store_window_body(Instance in, std::uint64_t digest,
                                       const Batch& value) {
  if (log_.is_learned(in)) return;  // the decided value supersedes any body
  window_bodies_[{in, digest}] = value;
}

const Batch* OnePaxosEngine::find_window_body(Instance in, std::uint64_t digest) const {
  const auto it = window_bodies_.find({in, digest});
  if (it != window_bodies_.end()) return &it->second;
  // Our own advocacy and our acceptor-role memory can answer too: both hold
  // the very batch the ref describes if the digests agree.
  const auto pit = proposed_.find(in);
  if (pit != proposed_.end() && batch_digest(pit->second) == digest) return &pit->second;
  const auto ait = ap_.find(in);
  if (ait != ap_.end() && batch_digest(ait->second.value) == digest) {
    return &ait->second.value;
  }
  return nullptr;
}

void OnePaxosEngine::handle_window_body(Context& ctx, const Message& m) {
  (void)ctx;
  const OpxWindowBody& p = m.u.opx_window_body;
  Batch value = unpack_batch(p.run.data(p.count), p.count);
  // The digest binds the body to the decided entry; a mismatch means a
  // corrupt or stale frame — never store it under the claimed key.
  if (batch_digest(value) != p.digest) return;
  store_window_body(p.instance, p.digest, value);
}

void OnePaxosEngine::handle_window_fetch(Context& ctx, const Message& m) {
  const Instance in = m.u.opx_window_fetch_req.instance;
  const std::uint64_t digest = m.u.opx_window_fetch_req.digest;
  if (log_.is_learned(in)) {
    // Decided since: the learn supersedes the body (the fetcher will skip
    // the ref once it sees the instance decided).
    send_learn(ctx, m.src, in, *log_.get_batch(in));
    return;
  }
  const Batch* body = find_window_body(in, digest);
  if (body == nullptr) return;  // silence; the fetcher retries elsewhere
  Message reply(MsgType::kOpxWindowBody, ProtoId::kOnePaxos, cfg_.base.self, m.src);
  reply.u.opx_window_body.instance = in;
  reply.u.opx_window_body.digest = digest;
  reply.u.opx_window_body.count = reply.u.opx_window_body.run.pack(*body);
  ctx.send(m.src, reply);
}

// ------------------------------------------------------ failure handling

NodeId OnePaxosEngine::select_acceptor(NodeId failed) const {
  // Deterministic round-robin over the replicas, skipping ourselves (§5.4
  // placement: leader and acceptor on separate nodes) and the failed node.
  NodeId candidate = failed == kNoNode ? cfg_.base.self : failed;
  for (std::int32_t i = 0; i < cfg_.base.num_replicas; ++i) {
    candidate = (candidate + 1) % cfg_.base.num_replicas;
    if (candidate != cfg_.base.self && candidate != failed) return candidate;
  }
  return kNoNode;  // fewer than 2 usable replicas
}

void OnePaxosEngine::on_acceptor_failure(Context& ctx) {
  // Fig. 12 "Upon AcceptorFailure".
  if (switching_ != Switch::kNone || utility_.propose_in_flight()) return;
  Instance idx = kNoInstance;
  const NodeId global_leader = utility_.last_leader(&idx);
  if (global_leader != cfg_.base.self) {
    // Somebody thought I am dead.
    relinquish(ctx, global_leader);
    return;
  }
  const NodeId failed = active_acceptor_;
  const NodeId next = select_acceptor(failed);
  if (next == kNoNode) return;
  UtilityEntry entry;
  entry.kind = UtilityEntry::Kind::kAcceptorChange;
  entry.leader = cfg_.base.self;
  entry.acceptor = next;
  // Everything this leadership ever allocated lies below this frontier; the
  // next adopter must not re-fill instances whose learns were lost.
  entry.frontier = std::max({next_instance_, log_.end(), alloc_frontier_});
  fill_uncommitted(&entry);
  // Bodies first, entry second: replicas should hold the bodies before the
  // refs that name them decide (fetch-on-adopt covers lost bodies, and
  // tick() keeps republishing while the switch is in flight).
  publish_window_bodies(ctx);
  switching_ = Switch::kAcceptorChange;
  pending_acceptor_ = next;
  // A backup that never served as acceptor must be fresh; a reused one
  // legitimately holds an hpn from its previous stint.
  pending_must_be_fresh_ = ever_acceptors_.count(next) == 0;
  // Anchor to the snapshot this decision was computed from (Fig. 12 l.3/10):
  // a concurrent reconfiguration makes the proposal fail instead of
  // installing a stale view.
  const Instance snapshot = utility_.next_instance();
  const bool started = utility_.propose(ctx, entry, [this](Context& cctx, bool ok) {
    switching_ = Switch::kNone;
    if (!ok) {
      // Another entry won this utility instance; if it made someone else
      // the Global leader we must stand down, otherwise retry later.
      if (utility_.last_leader() != cfg_.base.self) relinquish(cctx, utility_.last_leader());
      return;
    }
    active_acceptor_ = pending_acceptor_;
    i_am_leader_ = false;  // must re-adopt the new acceptor (Fig. 12 l.13)
    prepare_outstanding_ = false;
    prepare_can_rotate_ = true;  // our proposed map is complete
    last_acceptor_contact_ = cctx.now();
    send_prepare(cctx, pending_must_be_fresh_);
  }, snapshot);
  if (!started) switching_ = Switch::kNone;
}

void OnePaxosEngine::try_takeover(Context& ctx) {
  // Fig. 12 "proc propose", non-leader path — stage 1: probe the acceptor.
  if (i_am_leader_ || switching_ != Switch::kNone || prepare_outstanding_ ||
      utility_.propose_in_flight()) {
    return;
  }
  // A live lease grant is a promise not to move against the grantee; the
  // takeover resumes once it lapses (a dead leader stops renewing).
  if (granted_.live(ctx.now())) return;
  const PaxosUtility::AcceptorInfo info = utility_.last_active_acceptor();
  CI_CHECK_MSG(info.acceptor != kNoNode, "no bootstrap AcceptorChange entry");
  if (info.acceptor == cfg_.base.self) {
    // We host the acceptor role; adopting ourselves would collapse the
    // leader/acceptor separation (§5.4). Let another proposer take over.
    return;
  }
  if (probe_acceptor_ != kNoNode) return;  // probe already in flight
  probe_acceptor_ = info.acceptor;
  probe_sent_ = ctx.now();
  Message ping(MsgType::kPing, ProtoId::kOnePaxos, cfg_.base.self, info.acceptor);
  ctx.send(info.acceptor, ping);
}

void OnePaxosEngine::begin_leader_change(Context& ctx) {
  // Stage 2, after the acceptor answered the probe.
  if (i_am_leader_ || switching_ != Switch::kNone || prepare_outstanding_ ||
      utility_.propose_in_flight()) {
    return;
  }
  const PaxosUtility::AcceptorInfo info = utility_.last_active_acceptor();
  if (info.acceptor == kNoNode || info.acceptor == cfg_.base.self) return;
  // Resolve the entry's batched refs to bodies BEFORE announcing anything:
  // an adopter must be able to re-propose every uncommitted value the entry
  // names (Lemma 2a). Missing bodies — the publish broadcast was lost, or
  // we joined late — are fetched from the other replicas and the takeover
  // resumes on a later tick once they land.
  std::vector<std::pair<Instance, Batch>> resolved;
  bool missing = false;
  for (std::int32_t i = 0; i < info.entry->num_batched; ++i) {
    const BatchedProposalRef& r = info.entry->batched[i];
    if (log_.is_learned(r.instance)) continue;  // decided: nothing to re-propose
    const Batch* body = find_window_body(r.instance, r.digest);
    if (body != nullptr) {
      resolved.emplace_back(r.instance, *body);
      continue;
    }
    missing = true;
    for (NodeId n = 0; n < cfg_.base.num_replicas; ++n) {
      if (n == cfg_.base.self) continue;
      Message fetch(MsgType::kOpxWindowFetchReq, ProtoId::kOnePaxos, cfg_.base.self, n);
      fetch.u.opx_window_fetch_req.instance = r.instance;
      fetch.u.opx_window_fetch_req.digest = r.digest;
      ctx.send(n, fetch);
    }
  }
  if (missing) return;  // fetch-on-adopt in flight; tick() retries the takeover
  UtilityEntry entry;
  entry.kind = UtilityEntry::Kind::kLeaderChange;
  entry.leader = cfg_.base.self;
  entry.acceptor = info.acceptor;
  pending_acceptor_ = info.acceptor;
  pending_register_.assign(info.entry->proposals,
                           info.entry->proposals + info.entry->num_proposals);
  pending_register_batched_ = std::move(resolved);
  switching_ = Switch::kLeaderChange;
  // Anchor to the snapshot the acceptor id was read from (Fig. 12 l.27/29):
  // if any entry lands in between — e.g. the old leader replacing the
  // acceptor — this proposal fails and we re-read instead of adopting a
  // stale acceptor.
  const Instance snapshot = utility_.next_instance();
  const bool started = utility_.propose(ctx, entry, [this](Context& cctx, bool ok) {
    switching_ = Switch::kNone;
    if (!ok) {
      active_acceptor_ = kNoNode;  // Fig. 12 l.31: retry later from scratch
      return;
    }
    active_acceptor_ = pending_acceptor_;
    current_leader_ = cfg_.base.self;
    last_acceptor_contact_ = cctx.now();
    prepare_outstanding_ = false;
    prepare_can_rotate_ = false;  // we need the old acceptor's memory
    for (const Proposal& p : pending_register_) register_proposals(&p, 1);
    for (const auto& [in, value] : pending_register_batched_) register_batched(in, value);
    // The previous leader already adopted this acceptor: expect it to be
    // non-fresh (see the fidelity note in the class comment).
    send_prepare(cctx, /*must_be_fresh=*/false);
  }, snapshot);
  if (!started) switching_ = Switch::kNone;
}

void OnePaxosEngine::relinquish(Context& ctx, NodeId new_leader) {
  const bool had_role = i_am_leader_ || prepare_outstanding_;
  i_am_leader_ = false;
  lease_.reset();  // our grants supported the reign we just lost
  prepare_outstanding_ = false;
  prepare_main_held_ = false;
  prepare_batched_.clear();
  active_acceptor_ = kNoNode;
  recovery_poll_ = false;
  probe_acceptor_ = kNoNode;
  if (new_leader != kNoNode && new_leader != cfg_.base.self) {
    current_leader_ = new_leader;
    last_leader_contact_ = ctx.now();
  }
  if (had_role) {
    // Hand unfinished commands to whoever leads now; executor dedup makes
    // double proposals harmless.
    for (const auto& [in, value] : proposed_) {
      for (const Command& cmd : value) {
        if (cmd.client != kNoNode) pending_.push(cmd, ctx.now());
      }
    }
    proposed_.clear();
    accept_times_.clear();
    forward_pending(ctx);
  }
}

void OnePaxosEngine::forward_pending(Context& ctx) {
  if (current_leader_ == kNoNode || current_leader_ == cfg_.base.self) return;
  for (const Command& cmd : pending_.drain()) {
    if (cmd.client == kNoNode) continue;
    Message fwd(MsgType::kClientRequest, ProtoId::kOnePaxos, cfg_.base.self, current_leader_);
    fwd.u.client_request.cmd = cmd;
    ctx.send(current_leader_, fwd);
  }
}

void OnePaxosEngine::on_utility_decided(Context& ctx, Instance idx, const UtilityEntry& e) {
  if (e.acceptor != kNoNode) ever_acceptors_.insert(e.acceptor);
  alloc_frontier_ = std::max(alloc_frontier_, e.frontier);
  if (e.kind == UtilityEntry::Kind::kLeaderChange) {
    current_leader_epoch_ = std::max(current_leader_epoch_, idx);
    if (e.leader != cfg_.base.self) {
      // "If the leader observes this announcement, it must consider its
      // position as relinquished" (§5.3).
      relinquish(ctx, e.leader);
    }
  } else if (e.kind == UtilityEntry::Kind::kAcceptorChange) {
    if (e.leader != cfg_.base.self && (i_am_leader_ || prepare_outstanding_)) {
      // Lemma 1: only the Global leader inserts AcceptorChange — seeing a
      // foreign one means our leadership is stale.
      relinquish(ctx, e.leader);
    }
  }
}

// ----------------------------------------------------------------- timers

// Whether on_acceptor_failure would act (relinquish, or start an
// AcceptorChange) rather than return at one of its guards.
bool OnePaxosEngine::acceptor_failure_acts() const {
  if (switching_ != Switch::kNone || utility_.propose_in_flight()) return false;
  return utility_.last_leader() != cfg_.base.self || select_acceptor(active_acceptor_) != kNoNode;
}

// The first instant >= t at which try_takeover, called from tick() with its
// role guards already passed, would probe: never while we host the
// acceptor ourselves, and not before a lease we granted lapses.
Nanos OnePaxosEngine::takeover_from(Nanos t) const {
  if (utility_.last_active_acceptor().acceptor == cfg_.base.self) return kNoDeadline;
  return granted_.live(t) ? granted_.until : t;
}

// tick() read branch for branch: each armed timer contributes the instant
// its condition turns true, and work tick would do right now contributes
// `now`. Guards that make tick a no-op (a full pipeline window, a
// reconfiguration in flight, a live lease grant) contribute nothing, so a
// waking runtime never spins on them.
Nanos OnePaxosEngine::next_deadline(Nanos now) const {
  const Nanos retry = cfg_.base.retry_timeout;
  const Nanos fd = cfg_.base.fd_timeout;
  Nanos d = utility_.next_deadline();
  if (switching_ == Switch::kAcceptorChange || (prepare_outstanding_ && prepare_can_rotate_)) {
    d = std::min(d, last_body_publish_ + retry);
  }
  const bool establishing = prepare_outstanding_ && utility_.last_leader() == cfg_.base.self;
  if (i_am_leader_ || establishing) {
    d = std::min(d, last_heartbeat_sent_ + cfg_.base.heartbeat_period);
  }

  if (i_am_leader_) {
    if (static_cast<std::int32_t>(proposed_.size()) < effective_window()) {
      d = std::min(d, pending_.flush_deadline(proposed_.size()));
    }
    Nanos suspect_at = kNoDeadline;
    for (const auto& [in, t] : accept_times_) {
      if (proposed_.count(in) == 0) continue;
      suspect_at = std::min(suspect_at, t.first_sent + fd);
      d = std::min(d, t.last_sent + retry);
    }
    if (accept_times_.empty()) {
      d = std::min(d, last_ping_sent_ + cfg_.base.heartbeat_period);
      suspect_at = std::min(suspect_at, last_acceptor_contact_ + fd);
    }
    if (suspect_at < d && acceptor_failure_acts()) d = suspect_at;
    if (log_.first_gap() < alloc_frontier_) {
      const Instance gap = log_.first_gap();
      if (gap != stuck_gap_) return std::min(d, now);  // tick notes when the stall began
      d = std::min(d, last_catchup_sent_ + retry);
      if (proposed_.count(gap) == 0) d = std::min(d, stuck_gap_since_ + fd * 4);
    } else if (stuck_gap_ != kNoInstance) {
      return std::min(d, now);  // tick clears the stall mark
    }
    return d;
  }

  if (prepare_outstanding_) {
    if (prepare_can_rotate_) {
      return std::min({d, prepare_first_sent_ + fd, prepare_last_sent_ + retry});
    }
    const Nanos recovery_at = prepare_first_sent_ + fd * 3;
    if (now < recovery_at) return std::min({d, recovery_at, prepare_last_sent_ + retry});
    if (utility_.last_leader() != cfg_.base.self || !recovery_poll_) return std::min(d, now);
    return std::min(d, recovery_poll_started_ + fd);
  }

  // An unanswered takeover probe holds the takeover path until it expires.
  if (probe_acceptor_ != kNoNode) return std::min(d, std::max(now, probe_sent_ + fd));
  if (switching_ != Switch::kNone || utility_.propose_in_flight()) return d;
  if (current_leader_ == cfg_.base.self) {
    // Named leader but not (yet) leading: suspect_leader holds.
    return pending_.empty() ? d : std::min(d, takeover_from(now));
  }
  const Nanos suspect_at = last_leader_contact_ + fd + fd_jitter_;
  if (now >= suspect_at) return std::min(d, takeover_from(now));
  if (!pending_.empty() && current_leader_ != kNoNode &&
      now - last_leader_contact_ <= fd / 2) {
    return std::min(d, now);  // tick forwards the held commands
  }
  return std::min(d, takeover_from(suspect_at));
}

void OnePaxosEngine::tick(Context& ctx) {
  utility_.tick(ctx);
  const Nanos now = ctx.now();

  // While our AcceptorChange (or the adoption that follows it — the phase
  // where a decided entry's refs exist but the window has not re-decided)
  // is in flight, keep the out-of-line window bodies flowing on the retry
  // cadence: the utility proposal retries to a decision on its own, and a
  // decided entry whose bodies were all lost would otherwise leave any
  // future adopter with nothing to fetch.
  if ((switching_ == Switch::kAcceptorChange ||
       (prepare_outstanding_ && prepare_can_rotate_)) &&
      now - last_body_publish_ >= cfg_.base.retry_timeout) {
    publish_window_bodies(ctx);
  }

  // A global leader still establishing itself (prepare in flight after a
  // LeaderChange/AcceptorChange) also heartbeats: follower detectors must
  // stay quiet or they depose it mid-recovery and restart the dance.
  const bool establishing =
      prepare_outstanding_ && utility_.last_leader() == cfg_.base.self;
  if ((i_am_leader_ || establishing) &&
      now - last_heartbeat_sent_ >= cfg_.base.heartbeat_period) {
    last_heartbeat_sent_ = now;
    // With leases on, each heartbeat round is also a renewal round (an
    // establishing leader renews too — grants shield its recovery from
    // impatient takeovers just as they shield its reads later).
    const std::uint32_t lease_seq = lease_.enabled() ? lease_.open_round(now) : 0;
    for (NodeId r = 0; r < cfg_.base.num_replicas; ++r) {
      if (r == cfg_.base.self) continue;
      Message hb(MsgType::kHeartbeat, ProtoId::kOnePaxos, cfg_.base.self, r);
      if (establishing) hb.flags = kFlagEstablishing;  // buys recovery patience
      hb.u.heartbeat.leader = cfg_.base.self;
      hb.u.heartbeat.lease_seq = lease_seq;
      hb.u.heartbeat.committed = log_.first_gap();
      hb.u.heartbeat.ballot.counter = current_leader_epoch_;  // view version
      hb.u.heartbeat.ballot.node = cfg_.base.self;
      ctx.send(r, hb);
    }
  }

  if (i_am_leader_) {
    // Flush-timer path: a partial batch whose oldest command waited
    // flush_after goes out now (no-op in the unbatched regime: pending_ is
    // non-empty only while the window is full).
    pump(ctx);
    // Retry outstanding accepts; detect a silent acceptor.
    bool acceptor_suspect = false;
    for (auto& [in, t] : accept_times_) {
      if (proposed_.count(in) == 0) continue;
      if (now - t.first_sent >= cfg_.base.fd_timeout) acceptor_suspect = true;
      if (now - t.last_sent >= cfg_.base.retry_timeout) send_accept(ctx, in);
    }
    if (accept_times_.empty()) {
      // Idle: keep probing the acceptor so its failure is noticed before
      // the next client request stalls on it.
      if (now - last_ping_sent_ >= cfg_.base.heartbeat_period) {
        last_ping_sent_ = now;
        Message ping(MsgType::kPing, ProtoId::kOnePaxos, cfg_.base.self, active_acceptor_);
        ctx.send(active_acceptor_, ping);
      }
      if (now - last_acceptor_contact_ >= cfg_.base.fd_timeout) acceptor_suspect = true;
    }
    if (acceptor_suspect) on_acceptor_failure(ctx);
    // A leader whose own log has holes below the allocation frontier (lost
    // learns from a previous reign) cannot execute or reply past them; pull
    // the values from the other replicas.
    if (log_.first_gap() < alloc_frontier_) {
      const Instance gap = log_.first_gap();
      if (gap != stuck_gap_) {
        stuck_gap_ = gap;
        stuck_gap_since_ = now;
      }
      if (now - last_catchup_sent_ >= cfg_.base.retry_timeout) {
        last_catchup_sent_ = now;
        for (NodeId r = 0; r < cfg_.base.num_replicas; ++r) {
          if (r == cfg_.base.self) continue;
          Message req(MsgType::kOpxCatchupReq, ProtoId::kOnePaxos, cfg_.base.self, r);
          req.u.opx_catchup_req.from_instance = gap;
          ctx.send(r, req);
        }
      }
      // Many catch-up rounds later the gap is still unanswered: no replica
      // has the instance learned, so its accept died before any acceptor
      // recorded it (a proposer relinquished mid-flight and higher
      // instances moved the frontier past the hole). The paper lets
      // proposers "safely restart the Paxos instance" (§4.3): re-run it
      // with a noop through the current acceptor. A decided-but-unlearned
      // value, were one still in flight somewhere, beats the noop —
      // learn() keeps the first decision and drops our advocacy (noops are
      // never re-pended).
      if (proposed_.count(gap) == 0 &&
          now - stuck_gap_since_ >= cfg_.base.fd_timeout * 4) {
        proposed_[gap] = single_batch(Command{});
        send_accept(ctx, gap);
      }
    } else {
      stuck_gap_ = kNoInstance;
    }
    return;
  }

  if (prepare_outstanding_) {
    if (prepare_can_rotate_ && now - prepare_first_sent_ >= cfg_.base.fd_timeout) {
      // We are the Global leader adopting a backup after our own
      // AcceptorChange, so our `proposed` map is complete. A silent target
      // may be dead — or a reused backup that rebooted and now fails the
      // freshness check. Try the flipped expectation once (safe for an
      // established leader), then pick another backup
      // (on_acceptor_failure re-verifies global leadership).
      if (!prepare_fresh_flag_ && !prepare_flip_tried_) {
        prepare_flip_tried_ = true;
        prepare_outstanding_ = false;
        send_prepare(ctx, /*must_be_fresh=*/true);
        return;
      }
      prepare_flip_tried_ = false;
      prepare_outstanding_ = false;
      on_acceptor_failure(ctx);
    } else if (!prepare_can_rotate_ &&
               now - prepare_first_sent_ >= cfg_.base.fd_timeout * 3) {
      // Takeover adoption has gone unanswered for a long time: the acceptor
      // is dead or silently rebooted, and its short-term memory is
      // unrecoverable — but we ARE the Global leader (the LeaderChange
      // decided). Under the paper's reliable links, every fully-broadcast
      // learn reached its learners, so a frontier poll over the reachable
      // replicas bounds every allocation; above it we may safely restart
      // with a different acceptor ("the proposers can safely restart the
      // Paxos instance", §4.3). Poll, wait one detector period, switch.
      if (utility_.last_leader() != cfg_.base.self) {
        relinquish(ctx, utility_.last_leader());
      } else if (!recovery_poll_) {
        recovery_poll_ = true;
        recovery_poll_started_ = now;
        alloc_frontier_ = std::max(alloc_frontier_, log_.end());
        for (NodeId r = 0; r < cfg_.base.num_replicas; ++r) {
          if (r == cfg_.base.self) continue;
          Message ping(MsgType::kPing, ProtoId::kOnePaxos, cfg_.base.self, r);
          ctx.send(r, ping);
        }
      } else if (now - recovery_poll_started_ >= cfg_.base.fd_timeout) {
        recovery_poll_ = false;
        prepare_outstanding_ = false;
        on_acceptor_failure(ctx);  // AcceptorChange with the polled frontier
      }
    } else if (now - prepare_last_sent_ >= cfg_.base.retry_timeout) {
      // Keep knocking. A takeover proposer (fresh flag false) must NOT
      // hastily replace the acceptor: it does not know the acceptor's
      // short-term memory, and losing it can violate consistency. This is
      // the §5.4 trade-off — wait for the acceptor (or the recovery poll
      // above, once the silence is long enough to mean reboot/death).
      // Retries use a fresh ballot so a response to an older ballot cannot
      // be confused with the current attempt.
      send_prepare(ctx, prepare_fresh_flag_);
    }
    return;
  }

  if (probe_acceptor_ != kNoNode && now - probe_sent_ >= cfg_.base.fd_timeout) {
    // The acceptor never answered the takeover probe: with the leader also
    // suspected this is the §5.4 blocked configuration; retry later.
    probe_acceptor_ = kNoNode;
  }
  if (switching_ == Switch::kNone && !utility_.propose_in_flight() &&
      probe_acceptor_ == kNoNode) {
    if (suspect_leader(now) && (current_leader_ != cfg_.base.self || !pending_.empty())) {
      try_takeover(ctx);
    } else if (!pending_.empty() && current_leader_ != kNoNode &&
               current_leader_ != cfg_.base.self &&
               now - last_leader_contact_ <= cfg_.base.fd_timeout / 2) {
      // Forward held commands only on recent positive evidence the leader
      // is alive — a command queued on client suspicion must not be lobbed
      // at a silent leader just because our own detector has not fired yet.
      forward_pending(ctx);
    }
  }
}

}  // namespace ci::core
