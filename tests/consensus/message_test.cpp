#include "consensus/message.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "consensus/batch.hpp"
#include "consensus/wire_codec.hpp"

namespace ci::consensus {
namespace {

TEST(Wire, HeaderOnlyMessagesAreTiny) {
  Message m(MsgType::kPing, ProtoId::kControl, 0, 1);
  EXPECT_EQ(wire_size(m), kMessageHeaderBytes);
  EXPECT_LE(wire_size(m), 16u);
}

TEST(Wire, FastPathMessagesFitOneSlot) {
  // §6.1: the fast path must fit one 128-byte slot (minus the 8-byte
  // fragment header of the framing layer).
  // An unbatched instance's accept and learn frames carry runs of one.
  constexpr std::size_t kSlotPayload = 120;
  Message accept(MsgType::kOpxBatchAcceptReq, ProtoId::kOnePaxos, 0, 1);
  accept.u.opx_batch_accept_req.count = 1;
  EXPECT_LE(wire_size(accept), kSlotPayload);
  Message learn(MsgType::kOpxBatchLearn, ProtoId::kOnePaxos, 1, 2);
  learn.u.opx_batch_learn.count = 1;
  EXPECT_LE(wire_size(learn), kSlotPayload);
  Message req(MsgType::kClientRequest, ProtoId::kClient, 3, 0);
  EXPECT_LE(wire_size(req), kSlotPayload);
  Message reply(MsgType::kClientReply, ProtoId::kClient, 0, 3);
  EXPECT_LE(wire_size(reply), kSlotPayload);
  Message p2(MsgType::kPhase2BatchReq, ProtoId::kMultiPaxos, 0, 1);
  p2.u.phase2_batch_req.count = 1;
  EXPECT_LE(wire_size(p2), kSlotPayload);
  Message acked(MsgType::kPhase2BatchAcked, ProtoId::kMultiPaxos, 1, 2);
  acked.u.phase2_batch_acked.count = 1;
  EXPECT_LE(wire_size(acked), kSlotPayload);
  Message prep(MsgType::kTwoPcPrepare, ProtoId::kTwoPc, 0, 1);
  EXPECT_LE(wire_size(prep), kSlotPayload);
}

TEST(Wire, VariableSizeTruncatesToUsedProposals) {
  Message m(MsgType::kPhase1Resp, ProtoId::kMultiPaxos, 0, 1);
  m.u.phase1_resp.num_proposals = 0;
  const std::size_t empty = wire_size(m);
  m.u.phase1_resp.num_proposals = 3;
  EXPECT_EQ(wire_size(m), empty + 3 * sizeof(Proposal));
  m.u.phase1_resp.num_proposals = kMaxProposalsPerMsg;
  EXPECT_EQ(wire_size(m), empty + kMaxProposalsPerMsg * sizeof(Proposal));
}

TEST(Wire, UtilityEntrySizeDependsOnProposals) {
  Message m(MsgType::kUtilPhase2Req, ProtoId::kUtility, 0, 1);
  m.u.util_phase2_req.entry.kind = UtilityEntry::Kind::kAcceptorChange;
  m.u.util_phase2_req.entry.num_proposals = 0;
  const std::size_t empty = wire_size(m);
  m.u.util_phase2_req.entry.num_proposals = 5;
  EXPECT_EQ(wire_size(m), empty + 5 * sizeof(Proposal));
}

TEST(Wire, RoundTripPreservesContent) {
  Message m(MsgType::kOpxBatchAcceptReq, ProtoId::kOnePaxos, 2, 1);
  m.u.opx_batch_accept_req.instance = 42;
  m.u.opx_batch_accept_req.pn = ProposalNum{7, 2};
  m.u.opx_batch_accept_req.count = 1;
  Command& value = m.u.opx_batch_accept_req.run.inline_cmds[0];
  value.client = 9;
  value.seq = 3;
  value.key = 0xdeadbeef;

  unsigned char buf[1024];
  const std::size_t n = ci::wire::encode(m, buf);
  EXPECT_EQ(n, wire_size(m));
  Message out;
  ASSERT_TRUE(ci::wire::try_decode(buf, n, &out));
  ASSERT_TRUE(wire_validate(out, n));
  EXPECT_EQ(out.type, MsgType::kOpxBatchAcceptReq);
  EXPECT_EQ(out.u.opx_batch_accept_req.instance, 42);
  EXPECT_EQ(out.u.opx_batch_accept_req.pn, (ProposalNum{7, 2}));
  EXPECT_EQ(out.u.opx_batch_accept_req.count, 1);
  EXPECT_EQ(out.u.opx_batch_accept_req.run.inline_cmds[0].key, 0xdeadbeefu);
}

TEST(Wire, ValidateRejectsShortBuffers) {
  Message m(MsgType::kOpxBatchAcceptReq, ProtoId::kOnePaxos, 0, 1);
  m.u.opx_batch_accept_req.count = 1;
  EXPECT_FALSE(wire_validate(m, kMessageHeaderBytes));  // payload missing
  EXPECT_FALSE(wire_validate(m, 2));
  EXPECT_TRUE(wire_validate(m, wire_size(m)));
}

TEST(Wire, ValidateRejectsBogusProposalCounts) {
  Message m(MsgType::kPhase1Resp, ProtoId::kMultiPaxos, 0, 1);
  m.u.phase1_resp.num_proposals = kMaxProposalsPerMsg + 1;
  EXPECT_FALSE(wire_validate(m, sizeof(Message)));
  m.u.phase1_resp.num_proposals = -1;
  EXPECT_FALSE(wire_validate(m, sizeof(Message)));
}

TEST(Wire, ProposalNumOrdering) {
  EXPECT_LT((ProposalNum{1, 5}), (ProposalNum{2, 0}));
  EXPECT_LT((ProposalNum{2, 0}), (ProposalNum{2, 1}));  // node id breaks ties
  EXPECT_EQ((ProposalNum{2, 1}), (ProposalNum{2, 1}));
  EXPECT_FALSE(ProposalNum{}.valid());
  EXPECT_TRUE((ProposalNum{1, 0}).valid());
}

TEST(Wire, UtilityEntryEquality) {
  UtilityEntry a;
  a.kind = UtilityEntry::Kind::kAcceptorChange;
  a.leader = 0;
  a.acceptor = 2;
  a.num_proposals = 1;
  a.proposals[0] = Proposal{5, ProposalNum{1, 0}, Command{}};
  UtilityEntry b = a;
  EXPECT_TRUE(a == b);
  b.proposals[0].instance = 6;
  EXPECT_FALSE(a == b);
  b = a;
  b.acceptor = 1;
  EXPECT_FALSE(a == b);
}

// ---- Batched payloads ----

Command bcmd(std::uint32_t seq) {
  Command c;
  c.client = 4;
  c.seq = seq;
  c.op = Op::kWrite;
  c.key = 100 + seq;
  c.value = seq * 7;
  return c;
}

TEST(Wire, BatchFramesTruncateToUsedCommands) {
  Message m(MsgType::kPhase2BatchReq, ProtoId::kMultiPaxos, 0, 1);
  m.u.phase2_batch_req.count = 2;
  const std::size_t two = wire_size(m);
  m.u.phase2_batch_req.count = 8;
  EXPECT_EQ(wire_size(m), two + 6 * sizeof(Command));
  // A batch of 8 costs one header where 8 singles cost 8 — the amortization.
  Message single(MsgType::kPhase2BatchReq, ProtoId::kMultiPaxos, 0, 1);
  single.u.phase2_batch_req.count = 1;
  EXPECT_LT(wire_size(m), 8 * wire_size(single));
}

TEST(Wire, BatchAcceptRoundTripPreservesEveryCommand) {
  Batch value;
  for (std::uint32_t s = 1; s <= 5; ++s) value.push_back(bcmd(s));
  Message m(MsgType::kOpxBatchAcceptReq, ProtoId::kOnePaxos, 0, 1);
  m.u.opx_batch_accept_req.instance = 17;
  m.u.opx_batch_accept_req.pn = ProposalNum{3, 0};
  m.u.opx_batch_accept_req.count = m.u.opx_batch_accept_req.run.pack(value);

  unsigned char buf[ci::wire::kMaxFrameBytes];
  const std::uint32_t n = ci::wire::encode(m, buf);
  EXPECT_EQ(n, wire_size(m));
  Message out;
  ASSERT_TRUE(ci::wire::try_decode(buf, n, &out));
  EXPECT_EQ(out.u.opx_batch_accept_req.instance, 17);
  EXPECT_EQ(unpack_batch(out.u.opx_batch_accept_req.run.data(out.u.opx_batch_accept_req.count),
                         out.u.opx_batch_accept_req.count),
            value);
}

TEST(Wire, BatchLearnRoundTrip) {
  Batch value = {bcmd(1), bcmd(2)};
  Message m(MsgType::kOpxBatchLearn, ProtoId::kOnePaxos, 1, 2);
  m.u.opx_batch_learn.instance = 3;
  m.u.opx_batch_learn.count = m.u.opx_batch_learn.run.pack(value);
  unsigned char buf[ci::wire::kMaxFrameBytes];
  const std::uint32_t n = ci::wire::encode(m, buf);
  Message out;
  ASSERT_TRUE(ci::wire::try_decode(buf, n, &out));
  EXPECT_EQ(unpack_batch(out.u.opx_batch_learn.run.data(out.u.opx_batch_learn.count),
                         out.u.opx_batch_learn.count),
            value);
}

TEST(Wire, ValidateRejectsBogusBatchCounts) {
  Message m(MsgType::kPhase2BatchAcked, ProtoId::kMultiPaxos, 0, 1);
  m.u.phase2_batch_acked.count = 0;  // a run holds at least one command
  EXPECT_FALSE(wire_validate(m, sizeof(Message)));
  m.u.phase2_batch_acked.count = 1;  // a single command is a run of one
  EXPECT_TRUE(wire_validate(m, sizeof(Message)));
  m.u.phase2_batch_acked.count = kMaxCommandsPerBatch + 1;
  EXPECT_FALSE(wire_validate(m, sizeof(Message)));
  m.u.phase2_batch_acked.count = 2;
  EXPECT_TRUE(wire_validate(m, sizeof(Message)));
}

TEST(Wire, LegacyUtilityEntryKeepsPreBatchingSize) {
  // num_batched == 0 entries must serialize exactly as before the batching
  // layer: the appended pool region never travels.
  Message m(MsgType::kUtilPhase2Req, ProtoId::kUtility, 0, 1);
  m.u.util_phase2_req.entry.kind = UtilityEntry::Kind::kAcceptorChange;
  m.u.util_phase2_req.entry.num_proposals = 3;
  EXPECT_EQ(wire_size(m), kMessageHeaderBytes + offsetof(UtilPhase2Req, entry) +
                              offsetof(UtilityEntry, proposals) + 3 * sizeof(Proposal));
}

TEST(Wire, BatchedUtilityEntryRoundTrip) {
  Message m(MsgType::kUtilPhase2Req, ProtoId::kUtility, 0, 1);
  UtilityEntry& e = m.u.util_phase2_req.entry;
  e.kind = UtilityEntry::Kind::kAcceptorChange;
  e.leader = 0;
  e.acceptor = 2;
  e.frontier = 40;
  e.num_proposals = 1;
  e.proposals[0] = Proposal{5, ProposalNum{2, 0}, bcmd(9)};
  const Batch b0 = {bcmd(1), bcmd(2), bcmd(3)};
  const Batch b1 = {bcmd(4), bcmd(5)};
  e.num_batched = 2;
  e.batched[0].instance = 6;
  e.batched[0].count = 3;
  e.batched[0].digest = batch_digest(b0);
  e.batched[1].instance = 7;
  e.batched[1].count = 2;
  e.batched[1].digest = batch_digest(b1);

  unsigned char buf[ci::wire::kMaxFrameBytes];
  const std::uint32_t n = ci::wire::encode(m, buf);
  EXPECT_EQ(n, wire_size(m));
  EXPECT_LT(n, sizeof(Message));  // refs truncated to their used prefix
  Message out;
  ASSERT_TRUE(ci::wire::try_decode(buf, n, &out));
  const UtilityEntry& oe = out.u.util_phase2_req.entry;
  EXPECT_TRUE(oe == e);
  // The digest is the body's identity: a producer of the same batch
  // computes the same ref, a different batch a different one.
  EXPECT_EQ(oe.batched[0].digest, batch_digest(b0));
  EXPECT_NE(oe.batched[0].digest, batch_digest(b1));
}

TEST(Wire, ValidateRejectsBatchedRefsWithBogusCounts) {
  Message m(MsgType::kUtilAccepted, ProtoId::kUtility, 0, 1);
  UtilityEntry& e = m.u.util_accepted.entry;
  e.kind = UtilityEntry::Kind::kAcceptorChange;
  e.num_batched = 1;
  e.batched[0].instance = 1;
  e.batched[0].count = 1;  // batched refs name >= 2 commands
  EXPECT_FALSE(wire_validate(m, sizeof(Message)));
  e.batched[0].count = kMaxCommandsPerBatch + 1;
  EXPECT_FALSE(wire_validate(m, sizeof(Message)));
  e.batched[0].count = 3;
  EXPECT_TRUE(wire_validate(m, sizeof(Message)));
  e.num_batched = kMaxBatchedPerEntry + 1;
  EXPECT_FALSE(wire_validate(m, sizeof(Message)));
}

TEST(Wire, BatchingCountersLiveInFormerPadding) {
  // The single-command wire frames must be byte-stable: the new counters
  // occupy padding, so the arrays did not move.
  Message m(MsgType::kPhase1Resp, ProtoId::kMultiPaxos, 0, 1);
  m.u.phase1_resp.num_proposals = 2;
  m.u.phase1_resp.num_batched = 0;
  EXPECT_EQ(wire_size(m),
            kMessageHeaderBytes + offsetof(Phase1Resp, proposals) + 2 * sizeof(Proposal));
  Message p(MsgType::kOpxPrepareResp, ProtoId::kOnePaxos, 1, 0);
  p.u.opx_prepare_resp.num_accepted = 1;
  EXPECT_EQ(wire_size(p),
            kMessageHeaderBytes + offsetof(OpxPrepareResp, accepted) + sizeof(Proposal));
}

TEST(Wire, CommandEqualityIgnoresPadding) {
  Command a;
  a.client = 1;
  a.seq = 2;
  a.op = Op::kWrite;
  a.key = 3;
  a.value = 4;
  Command b = a;
  b.reserved[0] = 0xFF;  // padding differences must not matter
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace ci::consensus
