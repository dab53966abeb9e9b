// Hand-stepped Multi-Paxos semantics: stable-leader phase-1 skip, majority
// learning, leader takeover with value recovery, ballot conflicts, and the
// acceptor-set ablation knob.
#include "consensus/multi_paxos.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "qclt/connection.hpp"
#include "support/fake_net.hpp"

namespace ci::consensus {
namespace {

using test::FakeNet;

struct MpHarness {
  explicit MpHarness(std::int32_t replicas = 3, NodeId initial_leader = 0,
                     std::int32_t acceptors = -1) {
    for (NodeId r = 0; r < replicas; ++r) {
      MultiPaxosConfig cfg;
      cfg.base.self = r;
      cfg.base.num_replicas = replicas;
      cfg.base.seed = 7;
      cfg.initial_leader = initial_leader;
      cfg.acceptor_count = acceptors;
      engines.push_back(std::make_unique<MultiPaxosEngine>(cfg));
      net.add(engines.back().get());
    }
    net.start_all();
  }

  MultiPaxosEngine& at(NodeId r) { return *engines[static_cast<std::size_t>(r)]; }

  FakeNet net;
  std::vector<std::unique_ptr<MultiPaxosEngine>> engines;
};

TEST(MultiPaxos, StableLeaderSkipsPhase1) {
  MpHarness h;
  h.net.inject(test::client_request(3, 0, 1));
  ASSERT_TRUE(h.net.step());
  // The established leader goes straight to phase 2 — no Phase1Req on the
  // wire (the Multi-Paxos optimization, §2.3).
  for (std::size_t i = 0; i < h.net.pending(); ++i) {
    EXPECT_NE(h.net.peek(i).type, MsgType::kPhase1Req);
  }
  h.net.run();
  EXPECT_EQ(h.at(0).log().first_gap(), 1);
  EXPECT_EQ(h.at(1).log().first_gap(), 1);
}

TEST(MultiPaxos, LearnsOnMajorityNotAll) {
  MpHarness h;
  h.net.isolate(2);  // one acceptor down; majority = 2 of 3
  h.net.inject(test::client_request(3, 0, 1));
  h.net.run();
  EXPECT_TRUE(h.at(0).log().is_learned(0));
  EXPECT_TRUE(h.at(1).log().is_learned(0));
  EXPECT_FALSE(h.at(2).log().is_learned(0));  // isolated
}

TEST(MultiPaxos, ClientReplyCarriesLeaderHint) {
  MpHarness h;
  h.net.inject(test::client_request(3, 1, 1));  // sent to a follower
  bool saw_reply = false;
  while (h.net.step()) {
    for (std::size_t i = 0; i < h.net.pending(); ++i) {
      if (h.net.peek(i).type == MsgType::kClientReply) {
        saw_reply = true;
        EXPECT_EQ(h.net.peek(i).u.client_reply.leader_hint, 0);
      }
    }
  }
  EXPECT_TRUE(saw_reply);
}

TEST(MultiPaxos, TakeoverAfterLeaderSilence) {
  MpHarness h;
  h.net.isolate(0);
  // FD timeout passes; a follower should start phase 1.
  for (int i = 0; i < 10; ++i) {
    h.net.advance(1 * kMillisecond);
    h.net.run();
  }
  EXPECT_TRUE(h.at(1).is_leader() || h.at(2).is_leader());
  // New leader commits commands without node 0.
  const NodeId leader = h.at(1).is_leader() ? 1 : 2;
  h.net.inject(test::client_request(3, leader, 1));
  h.net.run();
  EXPECT_TRUE(h.at(leader).log().is_learned(0) || h.at(leader).log().first_gap() > 0);
}

TEST(MultiPaxos, TakeoverRecoversAcceptedValue) {
  MpHarness h;
  // Leader proposes; acceptors accept; but all acceptances to the LEADER are
  // lost, so nothing is learned at node 0 while acceptors hold the value.
  h.net.inject(test::client_request(3, 0, 1));
  h.net.step();  // leader -> accept x3 (incl. self)
  // Acceptors process the accept and broadcast; drop every acceptance.
  h.net.run(6);
  h.net.drop_if([](const Message& m) { return m.type == MsgType::kPhase2BatchAcked; });
  h.net.run();
  ASSERT_FALSE(h.at(1).log().is_learned(0));
  // Old leader goes silent; node 1 takes over and must re-propose the
  // accepted value at instance 0 (Paxos phase-1 constraint).
  h.net.isolate(0);
  for (int i = 0; i < 10; ++i) {
    h.net.advance(1 * kMillisecond);
    h.net.run();
  }
  ASSERT_TRUE(h.at(1).is_leader() || h.at(2).is_leader());
  EXPECT_TRUE(h.at(1).log().is_learned(0));
  EXPECT_EQ(h.at(1).log().get(0)->client, 3);
  EXPECT_EQ(h.at(1).log().get(0)->seq, 1u);
}

// Every instance two replicas both learned holds the same value there.
void expect_logs_agree(MpHarness& h, std::int32_t replicas = 3) {
  for (NodeId a = 0; a < replicas; ++a) {
    for (NodeId b = a + 1; b < replicas; ++b) {
      const ReplicatedLog& la = h.at(a).log();
      const ReplicatedLog& lb = h.at(b).log();
      for (Instance in = 0; in < std::min(la.end(), lb.end()); ++in) {
        if (!la.is_learned(in) || !lb.is_learned(in)) continue;
        EXPECT_EQ(*la.get_batch(in), *lb.get_batch(in))
            << "replicas " << a << " and " << b << " disagree at instance " << in;
      }
    }
  }
}

// Delivers messages until quiet, first dropping every in-flight message
// `lost` matches (re-checked before each step, so replies sent on the way
// are filtered too).
void run_dropping(MpHarness& h, const std::function<bool(const Message&)>& lost) {
  do {
    h.net.drop_if(lost);
  } while (h.net.step());
}

// Node 2 asks for leadership with phase 1 reaching only `quorum_peer` and
// itself, then everything is delivered. Returns the largest phase-1
// response frame sent, in bytes.
std::size_t takeover_by_2_via(MpHarness& h, NodeId quorum_peer) {
  Message suspect = test::client_request(4, 2, 1);
  suspect.flags = kFlagLeaderSuspect;  // node 2 starts phase 1 at once
  h.net.inject(suspect);
  const NodeId excluded = 1 - quorum_peer;  // the acceptor phase 1 misses
  std::size_t widest = 0;
  run_dropping(h, [excluded, &widest](const Message& m) {
    if (m.type == MsgType::kPhase1Resp) widest = std::max(widest, ci::wire::frame_size(m));
    return m.type == MsgType::kPhase1Req && m.dst == excluded;
  });
  h.net.run();
  return widest;
}

TEST(MultiPaxos, TakeoverRecoversValueOnlyALearnerStillHolds) {
  MpHarness h;
  // Leader 0 and acceptor 1 accept V at instance 0, but only node 0 hears
  // both acceptances: node 0 learns V, node 1 still holds it as accepted,
  // node 2 never saw it.
  h.net.inject(test::client_request(3, 0, 1));
  run_dropping(h, [](const Message& m) {
    return m.dst == 2 || (m.type == MsgType::kPhase2BatchAcked && m.dst == 1);
  });
  ASSERT_TRUE(h.at(0).log().is_learned(0));
  ASSERT_FALSE(h.at(1).log().is_learned(0));
  // Phase 1 of node 2 reaches {0, 2}: the quorum meets V's acceptance
  // quorum {0, 1} only at node 0, which has learned V. Unless node 0
  // reports it, node 2 proposes its own command at instance 0 and node 1
  // (which accepts the higher ballot) learns a second value there.
  takeover_by_2_via(h, /*quorum_peer=*/0);
  ASSERT_TRUE(h.at(2).is_leader());
  expect_logs_agree(h);
  EXPECT_EQ(h.at(1).log().get(0)->client, 3);
}

TEST(MultiPaxos, TakeoverRecoversMoreAcceptedValuesThanOneResponseHolds) {
  MpHarness h;
  // 20 values: node 0 learns each, acceptor 1 accepts each but learns none,
  // node 2 sees nothing.
  constexpr std::uint32_t kValues = kMaxProposalsPerMsg + 4;
  for (std::uint32_t seq = 1; seq <= kValues; ++seq) {
    h.net.inject(test::client_request(3, 0, seq));
    run_dropping(h, [](const Message& m) {
      return m.dst == 2 || (m.type == MsgType::kPhase2BatchAcked && m.dst == 1);
    });
  }
  ASSERT_EQ(h.at(0).log().first_gap(), static_cast<Instance>(kValues));
  ASSERT_EQ(h.at(1).log().first_gap(), 0);
  // Phase 1 of node 2 reaches {1, 2}: acceptor 1 must report all 20
  // accepted values, not the first kMaxProposalsPerMsg of them, and its
  // main response must still fit the paper's 7-slot rt queue.
  const std::size_t widest = takeover_by_2_via(h, /*quorum_peer=*/1);
  EXPECT_LE(qclt::wire::fragments_for(static_cast<std::uint32_t>(widest)), qclt::kDefaultSlots);
  ASSERT_TRUE(h.at(2).is_leader());
  expect_logs_agree(h);
  for (Instance in = 0; in < static_cast<Instance>(kValues); ++in) {
    ASSERT_TRUE(h.at(1).log().is_learned(in)) << "instance " << in;
    EXPECT_EQ(h.at(1).log().get(in)->client, 3) << "instance " << in;
  }
}

TEST(MultiPaxos, OldLeaderStepsDownOnNack) {
  MpHarness h;
  h.net.isolate(0);
  for (int i = 0; i < 10; ++i) {
    h.net.advance(1 * kMillisecond);
    h.net.run();
  }
  const NodeId new_leader = h.at(1).is_leader() ? 1 : 2;
  ASSERT_TRUE(h.at(new_leader).is_leader());
  // Node 0 heals and tries to propose with its stale ballot.
  h.net.heal(0);
  h.net.inject(test::client_request(4, 0, 1));
  h.net.run();
  h.net.advance(1 * kMillisecond);
  h.net.run();
  EXPECT_FALSE(h.at(0).is_leader());
  EXPECT_EQ(h.at(0).believed_leader(), new_leader);
}

TEST(MultiPaxos, ColdStartElectsSomeLeader) {
  MpHarness h(3, /*initial_leader=*/kNoNode);
  for (int i = 0; i < 20; ++i) {
    h.net.advance(1 * kMillisecond);
    h.net.run();
  }
  int leaders = 0;
  for (NodeId r = 0; r < 3; ++r) leaders += h.at(r).is_leader() ? 1 : 0;
  EXPECT_EQ(leaders, 1);
}

TEST(MultiPaxos, SingleAcceptorModeStillCommits) {
  // acceptor_count=1 turns Multi-Paxos into a no-backup single-acceptor
  // variant (ablation A2): fewer messages, fragile acceptor.
  MpHarness h(3, 0, /*acceptors=*/1);
  h.net.inject(test::client_request(3, 0, 1));
  const std::uint64_t before = h.net.sent_count(0);
  h.net.run();
  EXPECT_TRUE(h.at(0).log().is_learned(0));
  EXPECT_TRUE(h.at(2).log().is_learned(0));
  // Leader sends only: 1 accept to the single acceptor (node 0 = itself is
  // the acceptor: zero boundary crossings for accept) + reply.
  EXPECT_LE(h.net.sent_count(0) - before, 3u);
}

TEST(MultiPaxos, WindowCapsOutstandingProposals) {
  MpHarness h;
  h.net.isolate(1);
  h.net.isolate(2);  // nothing can be learned
  for (std::uint32_t s = 1; s <= 30; ++s) h.net.inject(test::client_request(3, 0, s));
  h.net.run();
  // At most pipeline_window accepts can be outstanding; the rest queue.
  EXPECT_LT(h.at(0).log().first_gap(), 1);  // nothing learned
  h.net.heal(1);
  h.net.heal(2);
  for (int i = 0; i < 10; ++i) {
    h.net.advance(1 * kMillisecond);
    h.net.run();
  }
  EXPECT_EQ(h.at(0).log().first_gap(), 30);  // everything eventually commits
}

TEST(MultiPaxos, DuplicateClientCommandExecutesOnce) {
  MpHarness h;
  h.net.inject(test::client_request(3, 0, 1, Op::kWrite, /*key=*/9, /*value=*/1));
  h.net.run();
  // The same (client, seq) again — e.g. a client retry that raced a reply.
  h.net.inject(test::client_request(3, 0, 1, Op::kWrite, 9, 1));
  h.net.run();
  // Two instances may exist, but the delivery record shows the duplicate.
  EXPECT_GE(h.net.delivered(0).size(), 1u);
}

}  // namespace
}  // namespace ci::consensus
