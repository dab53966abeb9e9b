// PaxosUtility — the small configuration consensus 1Paxos falls back to for
// replacing its leader or its single active acceptor (paper §5.2–5.4).
//
// It is an ordinary Basic-Paxos over a sequence of UtilityEntry values
// (LeaderChange / AcceptorChange), run among the same replica nodes: "running
// PaxosUtility does not require any extra nodes". Entries are rare (only on
// failures), so no stable-leader optimization is needed — every proposal
// runs both phases.
//
// This is a component embedded in OnePaxosEngine rather than a standalone
// Engine: the owner routes ProtoId::kUtility messages here and receives
// decided entries through a callback.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "consensus/engine.hpp"
#include "consensus/synod.hpp"

namespace ci::consensus {

class PaxosUtility {
 public:
  // on_decided(ctx, index, entry) fires exactly once per decided index, in
  // index order over the contiguous prefix (the owner reacts to
  // LeaderChange/AcceptorChange relevant to it).
  using DecidedCb = std::function<void(Context&, Instance, const UtilityEntry&)>;
  // Proposal outcome: success == our entry was chosen at the instance we
  // targeted. On failure the caller re-reads the log and retries.
  using ProposeCb = std::function<void(Context&, bool)>;

  PaxosUtility(const EngineConfig& cfg, DecidedCb on_decided);

  // Installs the initial configuration as already-decided entries on every
  // node (Appendix B's initialization step, done deterministically instead
  // of with startup messages).
  void bootstrap(NodeId initial_leader, NodeId initial_acceptor);

  // Starts consensus for `entry`. `at_instance` anchors the proposal to the
  // caller's snapshot of the log (Fig. 12 lines 3/27: lastLeader /
  // lastActiveAcceptor return the index to propose at): if the log moved in
  // the meantime — someone else inserted an entry — the proposal FAILS and
  // the caller re-reads, which is what makes snapshot+propose atomic.
  // kNoInstance means "next locally-unknown index".
  // Returns false if a proposal is already in flight (callers retry from
  // tick()). The callback may fire synchronously when the outcome is
  // already known.
  bool propose(Context& ctx, const UtilityEntry& entry, ProposeCb cb,
               Instance at_instance = kNoInstance);

  // The caller's snapshot anchor: the next undecided index in this node's
  // view of the utility log.
  Instance next_instance() const { return static_cast<Instance>(first_gap_); }

  bool propose_in_flight() const { return proposal_.has_value(); }

  // The node that inserted the last decided LeaderChange (the Global leader
  // of Appendix B). Returns kNoNode if none.
  NodeId last_leader(Instance* index = nullptr) const;

  // The last decided AcceptorChange: the Global acceptor, plus the
  // uncommitted proposals attached to it (for registerProposals).
  struct AcceptorInfo {
    NodeId acceptor = kNoNode;
    Instance index = kNoInstance;
    const UtilityEntry* entry = nullptr;  // owned by the utility log
  };
  AcceptorInfo last_active_acceptor() const;

  void on_message(Context& ctx, const Message& m);
  void tick(Context& ctx);
  // When tick() restarts the in-flight proposal (Engine::next_deadline's
  // contract); kNoDeadline with none in flight.
  Nanos next_deadline() const {
    return proposal_.has_value() ? proposal_->last_send + cfg_.retry_timeout * 2 : kNoDeadline;
  }

  Instance decided_count() const { return static_cast<Instance>(first_gap_); }
  const UtilityEntry* decided(Instance idx) const;

 private:
  struct InFlight {
    Instance instance = kNoInstance;
    ProposalNum pn;
    UtilityEntry own;    // what the owner wants decided
    UtilityEntry value;  // what we actually propose (may be adopted)
    bool constrained = false;
    ProposalNum highest_accepted;
    std::uint64_t promise_mask = 0;
    Nanos last_send = 0;
    ProposeCb cb;
  };

  void start_phase1(Context& ctx);
  void start_phase2(Context& ctx);
  void learn(Context& ctx, Instance in, const UtilityEntry& entry);
  ProposalNum next_ballot();

  EngineConfig cfg_;
  DecidedCb on_decided_;

  std::vector<std::optional<UtilityEntry>> decided_;
  std::size_t first_gap_ = 0;

  std::map<Instance, SynodAcceptor<UtilityEntry>> acceptors_;
  std::map<Instance, SynodLearner> learners_;
  std::optional<InFlight> proposal_;
  std::int64_t ballot_counter_ = 0;
};

}  // namespace ci::consensus
