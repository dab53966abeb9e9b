// Multi-Paxos (paper §2.3): collapsed roles with a stable leader that skips
// phase 1 for successive instances. The baseline the paper calls "the most
// efficient consensus protocol to date" in IP settings — and the protocol
// 1Paxos halves the message count of (Fig. 3).
//
// Acceptors broadcast their acceptance to every replica; a value is learned
// once a majority of acceptors accepted it. Followers detect a silent
// leader via heartbeat timeouts and take over with a higher ballot, running
// phase 1 from their first unlearned instance: acceptors report what they
// accepted and what they learned from there on.
//
// `acceptor_count` (default: all replicas) shrinks the acceptor set for the
// acceptor-replication ablation (DESIGN.md A2): with k acceptors a value
// needs majority-of-k acceptances, trading message load for the fault
// tolerance the paper discusses in §4.3.
//
// With a batching policy (EngineConfig::batch) the leader packs pending
// client commands into multi-command instances: one accept / one acceptance
// broadcast decides a whole run, and the execution path fans it back out
// with one ack per command. Takeovers recover batched values through
// kPhase1BatchResp sidecars counted by the main response.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.hpp"
#include "consensus/engine.hpp"
#include "consensus/lease.hpp"
#include "consensus/log.hpp"
#include "consensus/state_machine.hpp"
#include "consensus/synod.hpp"

namespace ci::consensus {

struct MultiPaxosConfig {
  EngineConfig base;
  // Node that starts as the established leader (ballot pre-agreed across
  // replicas, matching the paper's steady-state measurements). kNoNode
  // forces a cold-start election.
  NodeId initial_leader = 0;
  // Size of the acceptor set (replicas [0, acceptor_count)); -1 = all.
  std::int32_t acceptor_count = -1;
};

class MultiPaxosEngine final : public Engine {
 public:
  explicit MultiPaxosEngine(const MultiPaxosConfig& cfg);

  void start(Context& ctx) override;
  void on_message(Context& ctx, const Message& m) override;
  void tick(Context& ctx) override;
  NodeId believed_leader() const override { return current_leader_; }

  bool is_leader() const { return leader_; }
  const ReplicatedLog& log() const { return log_; }

  // Lease introspection (tests/reads): does this node hold the read fast
  // path at `now`, and its current cache epoch (count of applied mutations).
  bool holds_lease(Nanos now) const {
    return leader_ && lease_.held(now, acceptor_count(), is_acceptor(cfg_.base.self)) &&
           log_.first_gap() >= read_floor_;
  }
  std::uint32_t write_epoch() const { return write_epoch_; }
  std::uint64_t lease_reads() const { return lease_reads_; }

 private:
  struct Outstanding {
    Batch value;
    Nanos last_send = 0;
  };

  // An accepted-but-undecided value (what phase 1 must recover).
  struct AcceptedValue {
    ProposalNum pn;
    Batch value;
  };

  struct Takeover {
    ProposalNum pn;
    Instance from_instance = 0;
    std::uint64_t promise_mask = 0;
    std::map<Instance, AcceptedValue> recovered;  // highest-ballot accepted values
    // Per-acceptor report progress: the main Phase1Resp announces how many
    // batched sidecars it was preceded by; the acceptor only counts toward
    // the majority once all of them arrived (they may be reordered or lost
    // — a retry with a fresh ballot re-requests everything).
    struct Report {
      bool main = false;
      std::int32_t expect_batched = 0;
      std::int32_t seen_batched = 0;
    };
    std::map<NodeId, Report> reports;
    Nanos started = 0;
  };

  std::int32_t acceptor_count() const;
  bool is_acceptor(NodeId n) const { return n >= 0 && n < acceptor_count(); }
  ProposalNum next_ballot();
  void pump(Context& ctx);
  void send_accept(Context& ctx, Instance in, const Batch& value);
  void send_acked(Context& ctx, NodeId dst, Instance in, ProposalNum pn, const Batch& value,
                  bool decided);
  void begin_takeover(Context& ctx);
  void merge_recovered(Instance in, ProposalNum pn, const Batch& value);
  void maybe_count_promise(Context& ctx, NodeId acceptor);
  void finish_takeover(Context& ctx);
  void step_down(Context& ctx, NodeId new_leader);
  void forward_pending(Context& ctx);
  void handle_client_request(Context& ctx, const Message& m);
  void handle_phase1_req(Context& ctx, const Message& m);
  void handle_phase1_resp(Context& ctx, const Message& m);
  void handle_phase1_batch_resp(Context& ctx, const Message& m);
  void handle_phase2_req(Context& ctx, Instance in, ProposalNum pn, const Batch& value,
                         NodeId src);
  void handle_phase2_acked(Context& ctx, Instance in, ProposalNum pn, const Batch& value,
                           NodeId src, bool decided);
  void handle_nack(Context& ctx, const Message& m);
  void handle_heartbeat(Context& ctx, const Message& m);
  void handle_lease_grant(const Message& m);
  bool try_lease_read(Context& ctx, const Command& cmd);
  void learn(Context& ctx, Instance in, const Batch& value);

  MultiPaxosConfig cfg_;
  ReplicatedLog log_;
  Executor executor_;
  Rng rng_;

  // Leadership.
  bool leader_ = false;
  NodeId current_leader_ = kNoNode;
  ProposalNum my_ballot_;
  std::int64_t ballot_counter_ = 0;
  std::optional<Takeover> takeover_;

  // Acceptor.
  ProposalNum promised_;
  std::map<Instance, AcceptedValue> accepted_;  // un-decided accepted values

  // Learner.
  std::unordered_map<Instance, SynodLearner> learners_;

  // Proposer.
  Batcher pending_;
  std::map<Instance, Outstanding> outstanding_;
  Instance next_instance_ = 0;
  std::unordered_set<std::uint64_t> advocated_;

  // Every received accept or acceptance run decodes into this batch, whose
  // capacity persists across messages, so decoding a run builds no new
  // vector. Handlers read it as `const Batch&` and copy what they keep;
  // only on_message writes it, and no Context delivers a send re-entrantly.
  Batch scratch_;

  // Failure detection.
  Nanos last_leader_contact_ = 0;
  Nanos last_heartbeat_sent_ = 0;
  Nanos fd_jitter_ = 0;

  // Leader leases (DESIGN.md §1f; off unless cfg_.base.lease_duration > 0).
  LeaseLedger lease_;      // leader side: grants followers gave us
  FollowerLease granted_;  // follower side: our outstanding promise
  // Reads are only served from local state once every instance the previous
  // regime may have decided is applied here: set to max_recovered + 1 at
  // takeover (0 for a pre-agreed initial leader — nothing precedes it).
  Instance read_floor_ = 0;
  // Counts applied state-mutating commands; stamped into every ClientReply
  // as the near-cache epoch. Deterministic across replicas (derived from the
  // applied log prefix). Starts at 1 — epoch 0 means "not reported". On u32
  // wrap it skips 0; a client whose cached entry survives a full 4B-write
  // wrap could see a false hit, which at any realistic rate needs a session
  // idle for hours against a saturated group (documented, accepted).
  std::uint32_t write_epoch_ = 1;
  std::uint64_t lease_reads_ = 0;  // fast-path reads served (introspection)
};

}  // namespace ci::consensus
