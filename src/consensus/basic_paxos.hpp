// Basic-Paxos (the original Synod protocol, paper §2.3) with collapsed
// roles: every replica is proposer, acceptor and learner.
//
// Any replica proposes client commands for the next free instance; ballots
// resolve contention between concurrent proposers. Both phases run for every
// command (no stable-leader optimization — that is Multi-Paxos). Used
// standalone in tests and as the reference the paper's §2.3 describes.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>

#include "common/rng.hpp"
#include "consensus/engine.hpp"
#include "consensus/log.hpp"
#include "consensus/state_machine.hpp"
#include "consensus/synod.hpp"

namespace ci::consensus {

class BasicPaxosEngine final : public Engine {
 public:
  explicit BasicPaxosEngine(const EngineConfig& cfg);

  void start(Context& ctx) override;
  void on_message(Context& ctx, const Message& m) override;
  void tick(Context& ctx) override;

  const ReplicatedLog& log() const { return log_; }

 private:
  struct ProposerState {
    enum class Phase : std::uint8_t { kPrepare, kAccept, kDone };
    Phase phase = Phase::kPrepare;
    ProposalNum pn;
    Command own_value;            // what we advocate
    Command value;                // what we actually propose (may be adopted)
    std::uint64_t promise_mask = 0;
    ProposalNum highest_accepted;  // constraint from phase-1 responses
    bool constrained = false;
    Nanos last_send = 0;
    std::int64_t backoff_rounds = 0;
  };

  void propose_next(Context& ctx);
  void start_prepare(Context& ctx, Instance in, ProposerState& p);
  void start_accept(Context& ctx, Instance in, ProposerState& p);
  void send_acked(Context& ctx, NodeId dst, Instance in, ProposalNum pn, const Command& value,
                  bool decided);
  void handle_phase1_req(Context& ctx, const Message& m);
  void handle_phase1_resp(Context& ctx, const Message& m);
  void handle_phase2_req(Context& ctx, const Message& m);
  void handle_phase2_acked(Context& ctx, const Message& m);
  void handle_nack(Context& ctx, const Message& m);
  void learn(Context& ctx, Instance in, const Command& cmd);
  ProposalNum next_ballot();

  EngineConfig cfg_;
  ReplicatedLog log_;
  Executor executor_;
  Rng rng_;

  std::deque<Command> pending_;
  std::map<Instance, ProposerState> proposing_;
  // Acceptor cells are per instance in Basic-Paxos; decided cells pruned.
  std::unordered_map<Instance, SynodAcceptor<Command>> acceptors_;
  std::unordered_map<Instance, SynodLearner> learners_;
  std::unordered_map<Instance, Command> learned_values_;  // acked values per instance
  std::int64_t ballot_counter_ = 0;
  Instance next_free_ = 0;
  std::unordered_map<std::uint64_t, Instance> advocated_;  // (client,seq) -> instance
};

}  // namespace ci::consensus
