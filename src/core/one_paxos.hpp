// 1Paxos — the paper's contribution (§4–5, Appendix A).
//
// A Paxos-family protocol whose acceptor role is played by a *single* node
// at a time, with availability provided by idle backup acceptors instead of
// acceptor replication. The fast path per command is:
//
//     client -> leader: request
//     leader -> active acceptor: accept_request(in, pn, v)
//     acceptor -> all learners: learn(in, v)
//     leader -> client: reply
//
// — half the boundary-crossing messages of collapsed Multi-Paxos on three
// nodes (Fig. 3), which is the whole point on a many-core where transmission
// delay dominates (§3).
//
// Reconfiguration goes through PaxosUtility (§5.2–5.4):
//   * AcceptorFailure: only the Global leader may replace the acceptor; the
//     AcceptorChange entry carries the uncommitted proposals so the next
//     adopter re-proposes identical values (Lemma 2a).
//   * LeaderFailure: any proposer announces LeaderChange(me, A) for the
//     *current* acceptor, then adopts it with a prepare request; the
//     prepare response returns the acceptor's short-term memory (Lemma 2b).
//   * The IamFresh / YouMustBeFresh handshake rejects adopt attempts whose
//     freshness expectation mismatches the acceptor's, catching silent
//     acceptor reboots. NOTE: the published pseudo-code (Fig. 12 line 34)
//     sets YouMustBeFresh = true on the leader-takeover path, which would
//     make every takeover hit this check; per the prose we send false there
//     (see DESIGN.md "Pseudo-code fidelity note").
//
// Placement follows §5.4: the initial leader and initial active acceptor are
// distinct nodes, so a single slow core can always be routed around.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "consensus/engine.hpp"
#include "consensus/lease.hpp"
#include "consensus/log.hpp"
#include "consensus/paxos_utility.hpp"
#include "consensus/state_machine.hpp"

namespace ci::core {

using namespace ci::consensus;

struct OnePaxosConfig {
  EngineConfig base;
  NodeId initial_leader = 0;
  NodeId initial_acceptor = 1;
};

class OnePaxosEngine final : public Engine {
 public:
  explicit OnePaxosEngine(const OnePaxosConfig& cfg);

  void start(Context& ctx) override;
  void on_message(Context& ctx, const Message& m) override;
  void tick(Context& ctx) override;
  Nanos next_deadline(Nanos now) const override;
  NodeId believed_leader() const override { return current_leader_; }

  bool is_leader() const { return i_am_leader_; }
  // The acceptor this node (as leader) currently works with; kNoNode on
  // followers.
  NodeId active_acceptor() const { return active_acceptor_; }
  bool is_fresh_acceptor() const { return i_am_fresh_; }
  const ReplicatedLog& log() const { return log_; }
  const PaxosUtility& utility() const { return utility_; }

  // Test hook: models the paper's "acceptor silently reboots" scenario by
  // dropping all volatile acceptor-role state (hpn, ap, freshness).
  void reset_acceptor_state();

  // Lease introspection (tests/reads): does this node hold the read fast
  // path at `now`, and its current near-cache epoch.
  bool holds_lease(Nanos now) const {
    return i_am_leader_ && lease_.held(now, cfg_.base.num_replicas, /*self_votes=*/true) &&
           log_.first_gap() >= read_floor_;
  }
  std::uint32_t write_epoch() const { return write_epoch_; }
  std::uint64_t lease_reads() const { return lease_reads_; }

 private:
  struct AcceptTimes {
    Nanos first_sent = 0;
    Nanos last_sent = 0;
  };
  enum class Switch : std::uint8_t { kNone, kAcceptorChange, kLeaderChange };

  // An accepted-but-undecided value in the acceptor's short-term memory.
  struct AcceptedValue {
    ProposalNum pn;
    Batch value;
  };

  // Fast path.
  void handle_client_request(Context& ctx, const Message& m);
  bool try_lease_read(Context& ctx, const Command& cmd);
  void handle_lease_grant(const Message& m);
  void pump(Context& ctx);
  std::int32_t effective_window() const;
  void send_accept(Context& ctx, Instance in);
  void send_learn(Context& ctx, NodeId dst, Instance in, const Batch& value);
  void send_learn_run(Context& ctx, NodeId dst, Instance first, const Batch& cmds);
  void handle_accept_req(Context& ctx, Instance in, ProposalNum pn, const Batch& value,
                         NodeId src);
  void learn(Context& ctx, Instance in, const Batch& v);

  // Adoption / reconfiguration.
  void send_prepare(Context& ctx, bool must_be_fresh);
  void handle_prepare_req(Context& ctx, const Message& m);
  void handle_prepare_resp(Context& ctx, const Message& m);
  void handle_prepare_batch_resp(Context& ctx, const Message& m);
  void adopt(Context& ctx, const Message& m);
  void handle_abandon(Context& ctx, const Message& m);
  void on_acceptor_failure(Context& ctx);
  void try_takeover(Context& ctx);
  void begin_leader_change(Context& ctx);
  void on_utility_decided(Context& ctx, Instance idx, const UtilityEntry& e);
  void relinquish(Context& ctx, NodeId new_leader);
  NodeId select_acceptor(NodeId failed) const;
  void register_proposals(const Proposal* props, std::int32_t n);
  void register_batched(Instance in, const Batch& value);
  void fill_uncommitted(UtilityEntry* entry) const;
  // Out-of-line window bodies (AcceptorChange batched refs; DESIGN.md §1c).
  void publish_window_bodies(Context& ctx);
  void store_window_body(Instance in, std::uint64_t digest, const Batch& value);
  const Batch* find_window_body(Instance in, std::uint64_t digest) const;
  void handle_window_body(Context& ctx, const Message& m);
  void handle_window_fetch(Context& ctx, const Message& m);
  ProposalNum new_pn();
  bool suspect_leader(Nanos now) const;
  bool acceptor_failure_acts() const;
  Nanos takeover_from(Nanos t) const;
  void forward_pending(Context& ctx);

  OnePaxosConfig cfg_;
  ReplicatedLog log_;
  Executor executor_;
  Rng rng_;
  PaxosUtility utility_;

  // Proposer / leader state (Fig. 12/13 variables).
  bool i_am_leader_ = false;              // IamLeader
  NodeId active_acceptor_ = kNoNode;      // Aa (kNoNode == null)
  ProposalNum my_pn_;                     // pn
  std::int64_t pn_counter_ = 0;
  std::map<Instance, Batch> proposed_;    // proposed[], uncommitted only
  std::map<Instance, AcceptTimes> accept_times_;
  Batcher pending_;
  std::unordered_set<std::uint64_t> advocated_;
  Instance next_instance_ = 0;
  // Every received accept or learn run decodes into this batch, whose
  // capacity persists across messages, so decoding a run builds no new
  // vector. Handlers read it as `const Batch&` and copy what they keep;
  // no Context delivers a send re-entrantly.
  Batch scratch_;
  // Lower bound below which no new command may ever be allocated: the max
  // of every AcceptorChange frontier observed and every adopted acceptor's
  // frontier. Protects already-decided instances whose learn this node
  // missed (message loss) from being re-filled.
  Instance alloc_frontier_ = 0;

  // Outstanding prepare request.
  bool prepare_outstanding_ = false;
  bool prepare_fresh_flag_ = false;
  // True when this adoption follows our own AcceptorChange: our `proposed`
  // map is complete, so a dead target may be rotated away from. False after
  // a LeaderChange takeover: the old acceptor's memory is irreplaceable and
  // we must wait for it (§5.4).
  bool prepare_can_rotate_ = false;
  // One freshness-expectation flip per adoption: a reused backup that
  // silently rebooted looks fresh when we expect non-fresh. An established
  // leader (complete proposed map) may safely adopt it as fresh; a takeover
  // proposer must NOT (the mismatch there signals unrecoverable data loss).
  bool prepare_flip_tried_ = false;
  Nanos prepare_first_sent_ = 0;
  Nanos prepare_last_sent_ = 0;
  // Batched ap entries arrive as kOpxPrepareBatchResp sidecars ahead of the
  // main response, which counts them; the main response is held here until
  // the count is complete (reordering), and retries with a fresh ballot
  // cover loss. Both keyed to my_pn_ — send_prepare clears them.
  std::map<Instance, Batch> prepare_batched_;
  bool prepare_main_held_ = false;
  Message prepare_held_main_;

  // Reconfiguration in flight.
  Switch switching_ = Switch::kNone;
  NodeId pending_acceptor_ = kNoNode;
  bool pending_must_be_fresh_ = true;
  std::vector<Proposal> pending_register_;
  std::vector<std::pair<Instance, Batch>> pending_register_batched_;

  // Bodies of batched uncommitted values named by AcceptorChange refs,
  // keyed (instance, digest): filled by kOpxWindowBody broadcasts (and by
  // our own publishes), consulted when adopting an entry, answered back out
  // on kOpxWindowFetchReq, pruned as instances decide. Bounded by the
  // uncommitted window the refs describe.
  std::map<std::pair<Instance, std::uint64_t>, Batch> window_bodies_;
  // Last publish_window_bodies broadcast; tick() republishes on the retry
  // cadence while an AcceptorChange (or the adoption that follows it) is
  // in flight, so a lost broadcast doesn't depend on fetch alone.
  Nanos last_body_publish_ = 0;

  // Takeover probe: §5.3 allows a proposer to take the leadership "given
  // that the active acceptor is still running" — so the acceptor is pinged
  // first, and the LeaderChange is announced only after it answers.
  // Announcing toward a dead acceptor would depose the one node that holds
  // the knowledge needed to replace it (see the races test).
  NodeId probe_acceptor_ = kNoNode;
  Nanos probe_sent_ = 0;

  // Frontier recovery poll: run by a Global leader whose takeover adoption
  // went unanswered long enough to mean the acceptor rebooted or died (its
  // short-term memory is gone either way). Pongs carry each replica's log
  // end; their max bounds every allocation that could have been partially
  // learned, making a fresh AcceptorChange safe.
  bool recovery_poll_ = false;
  Nanos recovery_poll_started_ = 0;

  // Every node that has ever been the active acceptor (from the utility
  // log). A reused backup is adopted with you_must_be_fresh=false: it still
  // holds an hpn from its previous stint, which is not a reboot.
  std::set<NodeId> ever_acceptors_;

  // Acceptor role state.
  ProposalNum hpn_;                       // hpn
  bool i_am_fresh_ = true;                // IamFresh
  std::map<Instance, AcceptedValue> ap_;  // ap

  // Views / failure detection. The leader view is versioned by the utility
  // index of the LeaderChange that installed it, so stale heartbeats from a
  // slow deposed leader cannot roll the view back.
  NodeId current_leader_ = kNoNode;
  Instance current_leader_epoch_ = 0;  // bootstrap LeaderChange index
  Nanos last_leader_contact_ = 0;
  Instance leader_committed_seen_ = 0;  // commit frontier from heartbeats
  Nanos leader_progress_at_ = 0;        // last time that frontier moved
  Nanos last_acceptor_contact_ = 0;
  Nanos last_heartbeat_sent_ = 0;
  Nanos last_ping_sent_ = 0;
  Nanos last_catchup_sent_ = 0;
  // Leader-side gap-restart bookkeeping (§4.3): the first unlearned
  // instance we are stuck behind and since when. When catch-up rounds to
  // every replica leave the same gap unanswered for several detector
  // periods, no reachable replica learned the instance — its accept was
  // lost before any acceptor saw it — and the leader re-runs the instance
  // with a noop through the current acceptor (ordinary Paxos, so a racing
  // late learn still wins via the is_learned guard).
  Instance stuck_gap_ = kNoInstance;
  Nanos stuck_gap_since_ = 0;
  Nanos fd_jitter_ = 0;

  // Leader leases (DESIGN.md §1f; off unless cfg_.base.lease_duration > 0).
  // 1Paxos elects through the utility log, so the follower-side promise
  // gates kUtilPhase1Req/kUtilPhase2Req from non-grantees and try_takeover,
  // rather than a Paxos phase 1. Grants echo the heartbeat's view version
  // ({current_leader_epoch_, leader}), and the electorate is all replicas.
  LeaseLedger lease_;      // leader side: grants followers gave us
  FollowerLease granted_;  // follower side: our outstanding promise
  // No lease read below this applied frontier: set from the adopted
  // acceptor's frontier, which bounds every instance the previous regime
  // could have decided (and so could have exposed to its own lease readers).
  Instance read_floor_ = 0;
  // Applied-mutation counter, stamped into ClientReply::lease_epoch as the
  // session near-cache epoch. Deterministic across replicas (a function of
  // the applied log prefix); starts at 1 (0 = "not reported"), skips 0 on
  // u32 wrap.
  std::uint32_t write_epoch_ = 1;
  std::uint64_t lease_reads_ = 0;  // fast-path reads served (introspection)
};

}  // namespace ci::core

