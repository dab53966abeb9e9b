// Hand-stepped 1Paxos semantics against Appendix A:
//   * fast path: accept_request -> single-acceptor learn multicast;
//   * message counts (Fig. 3): 5 boundary crossings per commit on 3 nodes;
//   * acceptor switch (AcceptorChange + fresh adoption, uncommitted
//     proposal handover);
//   * leader switch (LeaderChange + non-fresh adoption, ap registration);
//   * freshness handshake (silent reboot detection);
//   * the §5.4 blocking case (leader+acceptor both unresponsive).
#include "core/one_paxos.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "support/fake_net.hpp"

namespace ci::core {
namespace {

using test::FakeNet;

struct OpxHarness {
  explicit OpxHarness(std::int32_t replicas = 3) {
    for (NodeId r = 0; r < replicas; ++r) {
      OnePaxosConfig cfg;
      cfg.base.self = r;
      cfg.base.num_replicas = replicas;
      cfg.base.seed = 3;
      // settle() advances in 1 ms jumps; the failure detector needs head
      // room above that so an answered ping still counts as "alive".
      cfg.base.fd_timeout = 3 * kMillisecond;
      cfg.initial_leader = 0;
      cfg.initial_acceptor = 1;
      engines.push_back(std::make_unique<OnePaxosEngine>(cfg));
      net.add(engines.back().get());
    }
    net.start_all();
  }

  OnePaxosEngine& at(NodeId r) { return *engines[static_cast<std::size_t>(r)]; }

  // Advance time + deliver until quiet, `rounds` times.
  void settle(int rounds = 10, Nanos step = 1 * kMillisecond) {
    for (int i = 0; i < rounds; ++i) {
      net.advance(step);
      net.run();
    }
  }

  FakeNet net;
  std::vector<std::unique_ptr<OnePaxosEngine>> engines;
};

TEST(OnePaxos, BootstrapPlacesRoles) {
  OpxHarness h;
  EXPECT_TRUE(h.at(0).is_leader());
  EXPECT_EQ(h.at(0).active_acceptor(), 1);
  EXPECT_FALSE(h.at(1).is_leader());
  EXPECT_FALSE(h.at(1).is_fresh_acceptor());  // pre-adopted by the leader
  EXPECT_TRUE(h.at(2).is_fresh_acceptor());   // backup acceptors stay fresh
  for (NodeId r = 0; r < 3; ++r) EXPECT_EQ(h.at(r).believed_leader(), 0);
}

TEST(OnePaxos, FastPathMessageSequence) {
  OpxHarness h;
  h.net.inject(test::client_request(3, 0, 1));
  // Leader -> acceptor.
  ASSERT_TRUE(h.net.step());
  ASSERT_EQ(h.net.pending(), 1u);
  EXPECT_EQ(h.net.peek(0).type, MsgType::kOpxBatchAcceptReq);
  EXPECT_EQ(h.net.peek(0).u.opx_batch_accept_req.count, 1);
  EXPECT_EQ(h.net.peek(0).dst, 1);
  // Acceptor -> learn multicast to all three replicas.
  ASSERT_TRUE(h.net.step());
  ASSERT_EQ(h.net.pending(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_TRUE(test::single_learn(h.net.peek(i)));
  h.net.run();
  EXPECT_TRUE(h.at(0).log().is_learned(0));
  EXPECT_TRUE(h.at(2).log().is_learned(0));
}

TEST(OnePaxos, FigureThreeMessageCount) {
  // Fig. 3 on three nodes: request + accept + 2 remote learns + reply = 5
  // boundary-crossing messages per commit (the acceptor's self-learn is
  // local).
  OpxHarness h;
  const auto total_before = h.net.sent_count(0) + h.net.sent_count(1) + h.net.sent_count(2);
  h.net.inject(test::client_request(3, 0, 1));
  h.net.run();
  const auto total_after = h.net.sent_count(0) + h.net.sent_count(1) + h.net.sent_count(2);
  // The injected client request is external; replicas send: accept(1) +
  // learns(2) + reply(1) = 4.
  EXPECT_EQ(total_after - total_before, 4u);
}

TEST(OnePaxos, PipelinedCommitsKeepOrder) {
  OpxHarness h;
  for (std::uint32_t s = 1; s <= 8; ++s) h.net.inject(test::client_request(3, 0, s));
  h.net.run();
  for (Instance in = 0; in < 8; ++in) {
    ASSERT_TRUE(h.at(2).log().is_learned(in));
    EXPECT_EQ(h.at(2).log().get(in)->seq, static_cast<std::uint32_t>(in + 1));
  }
}

TEST(OnePaxos, AcceptorSwitchOnSilence) {
  OpxHarness h;
  h.net.isolate(1);  // active acceptor goes dark
  h.net.inject(test::client_request(3, 0, 1));
  h.settle();
  // Leader re-established itself with the other backup (node 2).
  EXPECT_TRUE(h.at(0).is_leader());
  EXPECT_EQ(h.at(0).active_acceptor(), 2);
  EXPECT_FALSE(h.at(2).is_fresh_acceptor());
  // And the command committed through the new acceptor.
  EXPECT_TRUE(h.at(0).log().is_learned(0));
  EXPECT_EQ(h.at(0).log().get(0)->client, 3);
}

TEST(OnePaxos, AcceptorSwitchHandsOverUncommittedProposals) {
  OpxHarness h;
  // Send the accept but lose every learn: the acceptor accepted, nobody
  // learned. Then the acceptor dies. The AcceptorChange entry must carry the
  // proposal so the same value lands at instance 0 (Lemma 2a).
  h.net.inject(test::client_request(3, 0, 1));
  h.net.step();  // request -> leader (accept_req queued)
  h.net.step();  // accept_req -> acceptor (learns queued)
  h.net.drop_if(test::single_learn);
  h.net.isolate(1);
  h.settle();
  EXPECT_TRUE(h.at(0).is_leader());
  EXPECT_EQ(h.at(0).active_acceptor(), 2);
  ASSERT_TRUE(h.at(0).log().is_learned(0));
  EXPECT_EQ(h.at(0).log().get(0)->client, 3);
  EXPECT_EQ(h.at(0).log().get(0)->seq, 1u);
}

TEST(OnePaxos, LeaderSwitchViaClientSuspicion) {
  OpxHarness h;
  h.net.isolate(0);
  // A client re-sent its request to node 2 with the suspect flag (§7.6).
  Message m = test::client_request(3, 2, 1);
  m.flags = consensus::kFlagLeaderSuspect;
  h.net.inject(m);
  h.settle();
  EXPECT_TRUE(h.at(2).is_leader());
  EXPECT_EQ(h.at(2).active_acceptor(), 1);  // same acceptor, new leader (§5.3)
  EXPECT_TRUE(h.at(2).log().is_learned(0));
  EXPECT_EQ(h.at(1).believed_leader(), 2);
}

TEST(OnePaxos, LeaderSwitchRegistersAcceptorMemory) {
  // The acceptor holds an accepted-but-unlearned value; the new leader must
  // learn it from the prepare response and re-propose it (Lemma 2b).
  OpxHarness h;
  h.net.inject(test::client_request(3, 0, 1));
  h.net.step();  // request at leader
  h.net.step();  // accept at acceptor; learns queued
  h.net.drop_if(test::single_learn);
  h.net.isolate(0);  // old leader gone; acceptor holds ap[0]
  Message m = test::client_request(4, 2, 1);
  m.flags = consensus::kFlagLeaderSuspect;
  h.net.inject(m);
  h.settle();
  ASSERT_TRUE(h.at(2).is_leader());
  // Instance 0 must hold client 3's original command, NOT client 4's.
  ASSERT_TRUE(h.at(2).log().is_learned(0));
  EXPECT_EQ(h.at(2).log().get(0)->client, 3);
  // Client 4's command follows at the next instance.
  ASSERT_TRUE(h.at(2).log().is_learned(1));
  EXPECT_EQ(h.at(2).log().get(1)->client, 4);
}

TEST(OnePaxos, FreshnessMismatchDropsPrepare) {
  // Adopting a rebooted acceptor with you_must_be_fresh=false must be
  // silently ignored (Fig. 12 l.47).
  OpxHarness h;
  h.at(1).reset_acceptor_state();
  ASSERT_TRUE(h.at(1).is_fresh_acceptor());
  Message prep(MsgType::kOpxPrepareReq, consensus::ProtoId::kOnePaxos, 2, 1);
  prep.u.opx_prepare_req.pn = consensus::ProposalNum{99, 2};
  prep.u.opx_prepare_req.you_must_be_fresh = 0;
  h.net.inject(prep);
  ASSERT_TRUE(h.net.step());
  EXPECT_EQ(h.net.pending(), 0u);  // no response at all
  EXPECT_TRUE(h.at(1).is_fresh_acceptor());
}

TEST(OnePaxos, RebootedAcceptorReplacedByEstablishedLeader) {
  OpxHarness h;
  h.net.inject(test::client_request(3, 0, 1));
  h.net.run();
  // The acceptor silently reboots, losing hpn/ap.
  h.at(1).reset_acceptor_state();
  // Next command: the leader's accept hits a fresh acceptor -> abandon with
  // a stale ballot -> the leader (whose proposed map is complete) switches
  // to a fresh backup.
  h.net.inject(test::client_request(3, 0, 2));
  h.settle();
  EXPECT_TRUE(h.at(0).is_leader());
  EXPECT_EQ(h.at(0).active_acceptor(), 2);
  ASSERT_TRUE(h.at(0).log().is_learned(1));
  EXPECT_EQ(h.at(0).log().get(1)->seq, 2u);
}

TEST(OnePaxos, BothLeaderAndAcceptorDownBlocksThreeNodes) {
  // §5.4: N=3 with leader and acceptor dead = 2 of 3 down; the remaining
  // node must NOT fabricate progress (utility majority unreachable).
  OpxHarness h;
  h.net.isolate(0);
  h.net.isolate(1);
  Message m = test::client_request(3, 2, 1);
  m.flags = consensus::kFlagLeaderSuspect;
  h.net.inject(m);
  h.settle(30);
  EXPECT_FALSE(h.at(2).is_leader());
  EXPECT_FALSE(h.at(2).log().is_learned(0));
  // One of them heals: progress resumes.
  h.net.heal(1);
  h.settle(30);
  EXPECT_TRUE(h.at(2).is_leader());
  EXPECT_TRUE(h.at(2).log().is_learned(0));
}

TEST(OnePaxos, FiveNodesBlockWhileLeaderAndAcceptorDown) {
  // §5.4 trade-off: with N=5, losing exactly {leader, acceptor} stalls
  // 1Paxos even though a majority (3 of 5) is alive — a takeover proposer
  // must not replace an acceptor whose memory it cannot recover.
  OpxHarness h(5);
  h.net.isolate(0);
  h.net.isolate(1);
  Message m = test::client_request(7, 2, 1);
  m.flags = consensus::kFlagLeaderSuspect;
  h.net.inject(m);
  h.settle(30);
  // LeaderChange may succeed (utility majority alive), but adoption cannot.
  EXPECT_FALSE(h.at(2).log().is_learned(0));
  EXPECT_FALSE(h.at(3).log().is_learned(0));
  // The moment the acceptor responds again, the system recovers.
  h.net.heal(1);
  h.settle(30);
  EXPECT_TRUE(h.at(2).log().is_learned(0) || h.at(3).log().is_learned(0) ||
              h.at(4).log().is_learned(0));
  // Safety held throughout (logs agree wherever learned).
}

TEST(OnePaxos, AcceptorHostRefusesTakeover) {
  // §5.4 placement: the node hosting the active acceptor does not also
  // claim leadership.
  OpxHarness h;
  h.net.isolate(0);
  Message m = test::client_request(3, 1, 1);
  m.flags = consensus::kFlagLeaderSuspect;
  h.net.inject(m);
  h.settle(5);
  EXPECT_FALSE(h.at(1).is_leader());
}

TEST(OnePaxos, OldLeaderRelinquishesOnObservingLeaderChange) {
  OpxHarness h;
  // Node 0 goes silent long enough for node 2 to take over; when node 0
  // returns it must learn the LeaderChange (utility log / epoch-stamped
  // heartbeats) and stand down (§5.3).
  h.net.isolate(0);
  Message m = test::client_request(3, 2, 1);
  m.flags = consensus::kFlagLeaderSuspect;
  h.net.inject(m);
  h.settle();
  ASSERT_TRUE(h.at(2).is_leader());
  h.net.heal(0);
  h.settle();
  EXPECT_TRUE(h.at(2).is_leader());
  EXPECT_FALSE(h.at(0).is_leader());
  EXPECT_EQ(h.at(0).believed_leader(), 2);
}

TEST(OnePaxos, HealthyLeaderNotDeposedBySpuriousClientFlag) {
  // The §7.6 trigger is for genuinely slow leaders: a single suspect-flag
  // request against a leader that demonstrably heartbeats and commits must
  // not cause a takeover — the command is simply forwarded and committed.
  OpxHarness h;
  h.net.inject(test::client_request(3, 0, 1));  // normal traffic commits
  h.net.run();
  ASSERT_TRUE(h.at(0).log().is_learned(0));
  Message m = test::client_request(4, 2, 1);
  m.flags = consensus::kFlagLeaderSuspect;  // spurious suspicion
  h.net.inject(m);
  h.settle(3);
  EXPECT_TRUE(h.at(0).is_leader());
  EXPECT_FALSE(h.at(2).is_leader());
  EXPECT_TRUE(h.at(0).log().is_learned(1));  // forwarded and committed
}

TEST(OnePaxos, DuplicateAcceptRequestRebroadcastsLearn) {
  OpxHarness h;
  h.net.inject(test::client_request(3, 0, 1));
  h.net.step();  // leader -> accept_req
  // Capture and duplicate the accept request before delivering it.
  ASSERT_EQ(h.net.pending(), 1u);
  const Message accept = h.net.peek(0);
  h.net.run();
  ASSERT_TRUE(h.at(0).log().is_learned(0));
  h.net.inject(accept);  // duplicate (e.g. a retry racing the learn)
  ASSERT_TRUE(h.net.step());
  // Acceptor answers with a learn (to the leader at least), not a fresh
  // acceptance.
  ASSERT_GE(h.net.pending(), 1u);
  EXPECT_TRUE(test::single_learn(h.net.peek(0)));
  h.net.run();
  EXPECT_TRUE(h.at(0).log().is_learned(0));  // value unchanged
}

TEST(OnePaxos, StaleBallotAcceptAbandoned) {
  OpxHarness h;
  // A forged accept with a stale ballot must be rejected with abandon.
  Message stale(MsgType::kOpxBatchAcceptReq, consensus::ProtoId::kOnePaxos, 2, 1);
  stale.u.opx_batch_accept_req.instance = 0;
  stale.u.opx_batch_accept_req.pn = consensus::ProposalNum{0, 2};  // below hpn {1,0}
  stale.u.opx_batch_accept_req.count = 1;
  stale.u.opx_batch_accept_req.run.inline_cmds[0] = Command{};
  h.net.inject(stale);
  ASSERT_TRUE(h.net.step());
  ASSERT_EQ(h.net.pending(), 1u);
  EXPECT_EQ(h.net.peek(0).type, MsgType::kOpxAbandon);
  EXPECT_EQ(h.net.peek(0).dst, 2);
}

TEST(OnePaxos, ClientReadGetsWrittenValue) {
  OpxHarness h3;
  // Write then read through consensus; the read reply must surface the map
  // value via the executor.
  h3.net.inject(test::client_request(3, 0, 1, Op::kWrite, /*key=*/5, /*value=*/77));
  h3.net.run();
  h3.net.inject(test::client_request(3, 0, 2, Op::kRead, /*key=*/5));
  bool saw_reply = false;
  while (h3.net.pending() > 0) {
    if (h3.net.peek(0).type == MsgType::kClientReply &&
        h3.net.peek(0).u.client_reply.seq == 2) {
      saw_reply = true;
      EXPECT_EQ(h3.net.peek(0).u.client_reply.result, 0u);  // NullStateMachine default
    }
    h3.net.step();
  }
  EXPECT_TRUE(saw_reply);
}

TEST(OnePaxos, LearnsAreIdempotentAcrossDuplicates) {
  OpxHarness h;
  h.net.inject(test::client_request(3, 0, 1));
  h.net.step();  // accept_req queued
  h.net.step();  // learns queued (3)
  // Duplicate one learn message.
  ASSERT_GE(h.net.pending(), 3u);
  const Message learn = h.net.peek(0);
  h.net.inject(learn);
  h.net.run();
  EXPECT_TRUE(h.at(learn.dst).log().is_learned(0));
  EXPECT_EQ(h.at(learn.dst).log().first_gap(), 1);
}

TEST(OnePaxos, SurvivesBackToBackReconfigurations) {
  OpxHarness h(5);
  // Acceptor dies -> switch; then new acceptor dies -> switch again.
  h.net.isolate(1);
  h.net.inject(test::client_request(7, 0, 1));
  h.settle();
  ASSERT_TRUE(h.at(0).is_leader());
  const NodeId a2 = h.at(0).active_acceptor();
  ASSERT_NE(a2, 1);
  h.net.isolate(a2);
  h.net.inject(test::client_request(7, 0, 2));
  h.settle();
  EXPECT_TRUE(h.at(0).is_leader());
  const NodeId a3 = h.at(0).active_acceptor();
  EXPECT_NE(a3, 1);
  EXPECT_NE(a3, a2);
  EXPECT_TRUE(h.at(0).log().is_learned(0));
  EXPECT_TRUE(h.at(0).log().is_learned(1));
}

}  // namespace
}  // namespace ci::core
