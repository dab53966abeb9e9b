// Faults landing mid-batch. Batching changes the unit of agreement, so the
// danger cases are a leader or acceptor failing while multi-command
// instances are accepted but not decided: recovery must re-propose every
// batched value intact (no acked command lost, none decided twice with a
// different value). Two layers:
//   * simulator FaultPlan sweeps (slow-core leader, both protocols) with
//     the agreement recorder checking every acked command survived;
//   * hand-stepped FakeNet scripts (the one_paxos_races_test pattern,
//     extended to batched instances) driving the exact recovery paths:
//     Multi-Paxos phase-1 batch sidecars, the 1Paxos AcceptorChange entry
//     pool, the 1Paxos prepare batch sidecar, and the reordered
//     main-before-sidecar adoption hold.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "consensus/multi_paxos.hpp"
#include "core/one_paxos.hpp"
#include "sim/sim_cluster.hpp"
#include "support/fake_net.hpp"

namespace ci::core {
namespace {

using consensus::Batch;
using consensus::Command;
using consensus::MultiPaxosConfig;
using consensus::MultiPaxosEngine;
using test::FakeNet;

// ---- Simulator FaultPlan sweeps ----

class BatchedSlowLeader : public ::testing::TestWithParam<Protocol> {};

TEST_P(BatchedSlowLeader, NoAckedCommandLostAcrossTheTakeover) {
  ClusterSpec o;
  o.apply_backend_profile(core::Backend::kSim);
  o.protocol = GetParam();
  o.num_replicas = 3;
  o.num_clients = 4;
  o.seed = 13;
  o.engine.batch.max_commands = 8;
  // The initial leader turns into a drowning core mid-run, while batches
  // are in flight, and never heals.
  o.faults.slow_node(0, 50 * kMillisecond, 10 * kSecond, 1000);

  sim::SimCluster c(o);
  c.run(600 * kMillisecond);

  EXPECT_TRUE(c.consistent());
  // Commits continued past the fault: a takeover happened.
  EXPECT_GT(c.total_committed(), 100u);
  EXPECT_NE(c.replica_engine(1)->believed_leader(), 0);

  // Every acked command survived: a closed-loop client with `k` commits was
  // acked for seqs 1..k, and an ack is only sent after the command decided
  // — so each of those (client, seq) pairs must appear in the decided log.
  // (Duplicates across instances are legal — a retry can straddle the
  // takeover — and the executor's (client, seq) dedup applies them once.)
  std::set<std::pair<consensus::NodeId, std::uint32_t>> decided;
  for (const Command& cmd : c.deployment().recorder().decided_sequence()) {
    if (cmd.client != consensus::kNoNode) decided.emplace(cmd.client, cmd.seq);
  }
  for (std::int32_t i = 0; i < c.client_count(); ++i) {
    const consensus::NodeId client_node = o.num_replicas + i;
    const std::uint64_t committed = c.client(i)->committed();
    EXPECT_GT(committed, 0u);
    for (std::uint32_t s = 1; s <= committed; ++s) {
      EXPECT_TRUE(decided.count({client_node, s}))
          << "client " << client_node << " was acked for seq " << s
          << " but the command is not in the decided log";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, BatchedSlowLeader,
                         ::testing::Values(Protocol::kMultiPaxos, Protocol::kOnePaxos),
                         [](const ::testing::TestParamInfo<Protocol>& info) {
                           return std::string(info.param == Protocol::kMultiPaxos
                                                  ? "MultiPaxos"
                                                  : "OnePaxos");
                         });

// ---- FakeNet scripting helpers ----

// A frame of kind `t` that carries a multi-command batch: the frames these
// scripts wedge. (A lone command travels as a run of one of the same kind.)
bool carries_batch(const Message& m, MsgType t) {
  if (m.type != t) return false;
  const consensus::WireRow& row = *consensus::wire_row(t);
  return row.tail != consensus::Tail::kRun || row.count(m) >= 2;
}

bool queue_has(const FakeNet& net, MsgType t) {
  for (std::size_t j = 0; j < net.pending(); ++j) {
    if (carries_batch(net.peek(j), t)) return true;
  }
  return false;
}

// Delivers messages (no time advance) until one of type `t` carrying a
// batch is in flight.
[[nodiscard]] bool step_until_queued(FakeNet& net, MsgType t, int limit = 2000) {
  for (int i = 0; i < limit; ++i) {
    if (queue_has(net, t)) return true;
    if (!net.step()) return false;
  }
  return false;
}

// Delivers messages until no message of type `t` carrying a batch remains
// in flight.
void step_while_queued(FakeNet& net, MsgType t, int limit = 2000) {
  for (int i = 0; i < limit && queue_has(net, t); ++i) net.step();
}

Batch expected_batch(std::uint32_t first_seq, std::uint32_t last_seq) {
  Batch b;
  for (std::uint32_t s = first_seq; s <= last_seq; ++s) {
    Command c;
    c.client = 7;
    c.seq = s;
    c.op = consensus::Op::kWrite;
    c.key = 1;
    b.push_back(c);
  }
  return b;
}

// Exactly-once occurrence count for client 7's seqs [1, last] in a log.
template <typename EngineT>
void expect_exactly_once(EngineT& engine, std::uint32_t last) {
  for (std::uint32_t s = 1; s <= last; ++s) {
    int occurrences = 0;
    for (consensus::Instance in = 0; in < engine.log().end(); ++in) {
      const Batch* b = engine.log().get_batch(in);
      if (b == nullptr) continue;
      for (const Command& cmd : *b) {
        if (cmd.client == 7 && cmd.seq == s) occurrences++;
      }
    }
    EXPECT_EQ(occurrences, 1) << "seq " << s;
  }
}

// ---- Hand-stepped Multi-Paxos: batched phase-1 recovery ----

struct MpxHarness {
  explicit MpxHarness(std::int32_t batch, std::int32_t replicas = 3) {
    for (NodeId r = 0; r < replicas; ++r) {
      MultiPaxosConfig cfg;
      cfg.base.self = r;
      cfg.base.num_replicas = replicas;
      cfg.base.seed = 13;
      cfg.base.fd_timeout = 3 * kMillisecond;
      cfg.base.batch.max_commands = batch;
      cfg.initial_leader = 0;
      engines.push_back(std::make_unique<MultiPaxosEngine>(cfg));
      net.add(engines.back().get());
    }
    net.start_all();
  }

  MultiPaxosEngine& at(NodeId r) { return *engines[static_cast<std::size_t>(r)]; }

  void settle(int rounds = 12, Nanos step = 1 * kMillisecond) {
    for (int i = 0; i < rounds; ++i) {
      net.advance(step);
      net.run();
    }
  }

  int leader_count() {
    int n = 0;
    for (auto& e : engines) n += e->is_leader() ? 1 : 0;
    return n;
  }

  FakeNet net;
  std::vector<std::unique_ptr<MultiPaxosEngine>> engines;
};

TEST(MultiPaxosBatchedRaces, TakeoverRecoversAnAcceptedUndecidedBatch) {
  MpxHarness h(/*batch=*/4);
  // Group commit: seq 1 decides alone; seq 2 (first of the burst) goes out
  // alone too, and 3..5 queue behind it and leave as one 3-command batch.
  h.net.inject(test::client_request(7, 0, 1));
  h.net.run();
  for (std::uint32_t s = 2; s <= 5; ++s) h.net.inject(test::client_request(7, 0, s));
  ASSERT_TRUE(step_until_queued(h.net, MsgType::kPhase2BatchReq));
  step_while_queued(h.net, MsgType::kPhase2BatchReq);  // all three acceptors accept
  // Every acceptance broadcast for the batch is lost: the batch is accepted
  // on all three acceptors yet decided nowhere.
  ASSERT_EQ(h.net.drop_if(
                [](const Message& m) { return carries_batch(m, MsgType::kPhase2BatchAcked); }),
            9);
  const Instance wedged = h.at(0).log().first_gap();
  ASSERT_FALSE(h.at(0).log().is_learned(wedged));
  h.net.isolate(0);  // the leader dies mid-batch

  // A suspicious client prods node 1 into a takeover; phase 1 must carry
  // the batched accepted value through the kPhase1BatchResp sidecar.
  Message m = test::client_request(9, 1, 1);
  m.flags = consensus::kFlagLeaderSuspect;
  h.net.inject(m);
  h.settle(15);

  // The isolated old leader cannot know it was deposed; among live nodes
  // exactly one leads. (Healing it here would make it forward its orphaned
  // window for a legitimate — executor-deduped — second decision, which
  // the exactly-once-in-log check below deliberately excludes.)
  ASSERT_TRUE(h.at(1).is_leader());
  EXPECT_FALSE(h.at(2).is_leader());
  const Batch want = expected_batch(3, 5);
  for (NodeId r : {1, 2}) {
    SCOPED_TRACE("replica " + std::to_string(r));
    ASSERT_TRUE(h.at(r).log().is_learned(wedged));
    EXPECT_TRUE(*h.at(r).log().get_batch(wedged) == want);  // original values, intact
  }
  expect_exactly_once(h.at(1), 5);
  // The prodding client's command committed after the recovered window.
  EXPECT_GE(h.at(1).log().first_gap(), wedged + 2);
}

// ---- Hand-stepped 1Paxos: batched reconfiguration ----

struct OpxBatchHarness {
  explicit OpxBatchHarness(std::int32_t batch, std::int32_t replicas = 3) {
    for (NodeId r = 0; r < replicas; ++r) {
      OnePaxosConfig cfg;
      cfg.base.self = r;
      cfg.base.num_replicas = replicas;
      cfg.base.seed = 13;
      cfg.base.fd_timeout = 3 * kMillisecond;
      cfg.base.batch.max_commands = batch;
      cfg.initial_leader = 0;
      cfg.initial_acceptor = 1;
      engines.push_back(std::make_unique<OnePaxosEngine>(cfg));
      net.add(engines.back().get());
    }
    net.start_all();
  }

  OnePaxosEngine& at(NodeId r) { return *engines[static_cast<std::size_t>(r)]; }

  void settle(int rounds = 12, Nanos step = 1 * kMillisecond) {
    for (int i = 0; i < rounds; ++i) {
      net.advance(step);
      net.run();
    }
  }

  // Drives the cluster to the canonical mid-batch danger state: instances
  // 0 and 1 ([1], then [2] — the first of the burst flushes alone) decided
  // everywhere; instance 2 = [3,4,5,6] accepted by the active acceptor but
  // learned NOWHERE (every batch learn dropped); seqs 7..8 still queued in
  // the leader's batcher.
  void wedge_batch_at_acceptor() {
    net.inject(test::client_request(7, 0, 1));
    net.run();
    for (std::uint32_t s = 2; s <= 8; ++s) net.inject(test::client_request(7, 0, s));
    ASSERT_TRUE(step_until_queued(net, MsgType::kOpxBatchAcceptReq));
    step_while_queued(net, MsgType::kOpxBatchAcceptReq);  // the acceptor accepts
    ASSERT_EQ(
        net.drop_if([](const Message& m) { return carries_batch(m, MsgType::kOpxBatchLearn); }),
        static_cast<int>(engines.size()));  // one learn per learner
    ASSERT_FALSE(at(0).log().is_learned(2));
  }

  FakeNet net;
  std::vector<std::unique_ptr<OnePaxosEngine>> engines;
};

// The wedged batch decided with its original values on `replicas`.
void expect_wedged_batch_decided(OpxBatchHarness& h, std::initializer_list<NodeId> replicas) {
  const Batch mid = expected_batch(3, 6);
  for (NodeId r : replicas) {
    SCOPED_TRACE("replica " + std::to_string(r));
    ASSERT_TRUE(h.at(r).log().is_learned(2));
    EXPECT_TRUE(*h.at(r).log().get_batch(2) == mid);
  }
}

TEST(OnePaxosBatchedRaces, AcceptorChangeCarriesTheBatchedWindow) {
  // The acceptor dies holding an accepted-undecided batch. The leader's
  // AcceptorChange entry must carry the batch through the utility log's
  // command pool, and the re-proposal to the fresh backup must decide the
  // original values (Lemma 2a at batch granularity).
  OpxBatchHarness h(/*batch=*/4);
  h.wedge_batch_at_acceptor();
  h.net.isolate(1);
  h.settle(25);

  ASSERT_TRUE(h.at(0).is_leader());
  EXPECT_EQ(h.at(0).active_acceptor(), 2);
  expect_wedged_batch_decided(h, {0, 2});
  // The leader survived, so its queued tail [7,8] followed as a batch.
  ASSERT_GE(h.at(0).log().first_gap(), 4);
  EXPECT_TRUE(*h.at(0).log().get_batch(3) == expected_batch(7, 8));
  expect_exactly_once(h.at(2), 8);
}

TEST(OnePaxosBatchedRaces, TakeoverFetchesWindowBodiesItNeverReceived) {
  // The decoupled AcceptorChange entry names its batched window by
  // (instance, count, digest); the bodies are broadcast out of line when
  // the change is proposed, and an adopter that MISSED that broadcast must
  // fetch them before taking over (fetch-on-adopt, DESIGN.md §1c).
  //
  // Script: on 5 replicas, the acceptor (1) dies holding an accepted,
  // undecided batch. Leader 0 inserts AcceptorChange(->2) — but the window
  // bodies to nodes 3 and 4 are lost, so only node 2 holds them. Leader 0
  // then dies before re-proposing the batch. Node 3 takes over: it reads
  // the decided entry, finds the ref's body missing locally, fetches it
  // from node 2, and only then completes the takeover and re-proposes the
  // original commands (Lemma 2a, sustained through two failures and a lossy
  // body broadcast).
  OpxBatchHarness h(/*batch=*/4, /*replicas=*/5);
  h.wedge_batch_at_acceptor();
  h.net.isolate(1);

  // Let leader 0 notice the silent acceptor and publish the window bodies;
  // lose the copies addressed to 3 and 4.
  for (int i = 0; i < 500 && !queue_has(h.net, MsgType::kOpxWindowBody); ++i) {
    if (!h.net.step()) h.net.advance(1 * kMillisecond);
  }
  ASSERT_TRUE(queue_has(h.net, MsgType::kOpxWindowBody));
  ASSERT_EQ(h.net.drop_if([](const Message& m) {
              return m.type == MsgType::kOpxWindowBody && (m.dst == 3 || m.dst == 4);
            }),
            2);

  // Drive the AcceptorChange to a decision and 0's adoption of the fresh
  // backup 2 — but drop every re-proposal so the wedged instance stays
  // undecided, and keep losing the (retried — the publisher re-broadcasts
  // on the retry cadence while switching) bodies toward 3 and 4, then kill
  // 0. (The drops model 0 dying mid-recovery behind a lossy fabric;
  // FakeNet has no partial-isolation primitive for a single direction.)
  bool adopted = false;
  for (int i = 0; i < 500 && !adopted; ++i) {
    h.net.drop_if([](const Message& m) {
      if (m.type == MsgType::kOpxWindowBody && (m.dst == 3 || m.dst == 4)) return true;
      return m.type == MsgType::kOpxBatchAcceptReq && m.src == 0;
    });
    if (!h.net.step()) h.net.advance(1 * kMillisecond);
    adopted = h.at(0).is_leader() && h.at(0).active_acceptor() == 2;
  }
  ASSERT_TRUE(adopted);
  ASSERT_FALSE(h.at(2).log().is_learned(2));
  h.net.isolate(0);

  // Node 3 — which never received the body — is prodded into the takeover.
  // Node 4's failure detector may race it; both missed the broadcast, so
  // WHICHEVER proposer wins must first fetch the body from node 2.
  Message m = test::client_request(9, 3, 1);
  m.flags = consensus::kFlagLeaderSuspect;
  h.net.inject(m);
  h.settle(60);

  const NodeId winner = h.at(3).is_leader() ? 3 : 4;
  ASSERT_TRUE(h.at(winner).is_leader()) << "no live proposer completed the takeover";
  EXPECT_EQ(h.at(winner).active_acceptor(), 2);
  const Batch mid = expected_batch(3, 6);
  for (NodeId r : {2, 3, 4}) {
    SCOPED_TRACE("replica " + std::to_string(r));
    ASSERT_TRUE(h.at(r).log().is_learned(2));
    EXPECT_TRUE(*h.at(r).log().get_batch(2) == mid);  // original values, intact
  }
  expect_exactly_once(h.at(winner), 6);
}

TEST(OnePaxosBatchedRaces, LeaderChangeAdoptionRecoversBatchedShortTermMemory) {
  // The LEADER dies mid-batch instead. The takeover proposer adopts the
  // surviving acceptor, whose short-term memory holds the batch; it must
  // arrive through the kOpxPrepareBatchResp sidecar and be re-proposed
  // unchanged. (Seqs 7..8 sat in the dead leader's batcher, never accepted
  // and never acked — a real client would retry them.)
  OpxBatchHarness h(/*batch=*/4);
  h.wedge_batch_at_acceptor();
  h.net.isolate(0);

  Message m = test::client_request(9, 2, 1);
  m.flags = consensus::kFlagLeaderSuspect;
  h.net.inject(m);
  h.settle(25);

  ASSERT_TRUE(h.at(2).is_leader());
  expect_wedged_batch_decided(h, {2, 1});
  expect_exactly_once(h.at(2), 6);
  // The prodding client's command committed after the recovered window.
  EXPECT_GE(h.at(2).log().first_gap(), 4);
}

TEST(OnePaxosBatchedRaces, AdoptionWaitsForAReorderedBatchSidecar) {
  // Adversarial delivery: the main prepare response arrives BEFORE the
  // sidecar carrying the batch (jittered links reorder; a lost sidecar
  // resolves through a fresh-ballot retry). The adopter must hold the
  // adoption until its copy of the acceptor's memory is complete —
  // adopting early would re-propose a half-known window.
  OpxBatchHarness h(/*batch=*/4);
  h.wedge_batch_at_acceptor();
  h.net.isolate(0);

  Message m = test::client_request(9, 2, 1);
  m.flags = consensus::kFlagLeaderSuspect;
  h.net.inject(m);

  // Advance time only while the network is quiet (the failure detector has
  // to fire before the takeover starts); from the probe onward everything
  // to the prepare response is message-driven, so no tick can slip a
  // fresh-ballot retry between the sidecar and the main response.
  for (int i = 0; i < 500 && !queue_has(h.net, MsgType::kOpxPrepareBatchResp); ++i) {
    if (!h.net.step()) h.net.advance(1 * kMillisecond);
  }
  ASSERT_TRUE(queue_has(h.net, MsgType::kOpxPrepareBatchResp));
  Message sidecar;
  for (std::size_t j = 0; j < h.net.pending(); ++j) {
    if (h.net.peek(j).type == MsgType::kOpxPrepareBatchResp) sidecar = h.net.peek(j);
  }
  ASSERT_EQ(h.net.drop_if([](const Message& msg) {
              return msg.type == MsgType::kOpxPrepareBatchResp;
            }),
            1);
  h.net.run();  // the main response (num_batched = 1) lands without it
  EXPECT_FALSE(h.at(2).is_leader()) << "adopted with an incomplete report";

  h.net.inject(sidecar);  // the straggler arrives
  h.net.run();
  EXPECT_TRUE(h.at(2).is_leader());
  h.settle(10);
  expect_wedged_batch_decided(h, {2, 1});
  expect_exactly_once(h.at(2), 6);
}

}  // namespace
}  // namespace ci::core
