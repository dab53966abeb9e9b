// wire::Codec: randomized round-trips over every frame kind, strict
// truncated-frame rejection, fixed-layout frames as plain struct prefixes,
// every kind's frame pinned byte for byte, pool-custody leak checks, and
// the CI wire budgets (sizeof(Message) and per-frame byte pins) that make
// size regressions fail the build.
#include "consensus/wire_codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "consensus/batch.hpp"
#include "consensus/message.hpp"

namespace ci::consensus {
namespace {

Command rand_cmd(Rng& rng) {
  Command c;
  c.client = static_cast<NodeId>(rng.next_below(32));
  c.seq = static_cast<std::uint32_t>(rng.next_below(1u << 20));
  c.op = rng.next_below(2) == 0 ? Op::kWrite : Op::kRead;
  c.key = rng.next_u64();
  c.value = rng.next_u64();
  return c;
}

Batch rand_batch(Rng& rng, std::int32_t count) {
  Batch b;
  for (std::int32_t i = 0; i < count; ++i) b.push_back(rand_cmd(rng));
  return b;
}

// One randomized message of each batched frame kind, exercising both the
// inline (count <= kInlineBatchCommands) and pooled regimes.
Message rand_batched(Rng& rng, MsgType type, const Batch& value) {
  const Instance in = static_cast<Instance>(rng.next_below(1000));
  const ProposalNum pn{static_cast<std::int64_t>(1 + rng.next_below(50)),
                       static_cast<NodeId>(rng.next_below(5))};
  Message m(type, ProtoId::kOnePaxos, static_cast<NodeId>(rng.next_below(5)),
            static_cast<NodeId>(rng.next_below(5)));
  switch (type) {
    case MsgType::kPhase2BatchReq:
      m.proto = ProtoId::kMultiPaxos;
      m.u.phase2_batch_req.instance = in;
      m.u.phase2_batch_req.pn = pn;
      m.u.phase2_batch_req.count = m.u.phase2_batch_req.run.pack(value);
      break;
    case MsgType::kPhase2BatchAcked:
      m.proto = ProtoId::kMultiPaxos;
      m.u.phase2_batch_acked.instance = in;
      m.u.phase2_batch_acked.pn = pn;
      m.u.phase2_batch_acked.count = m.u.phase2_batch_acked.run.pack(value);
      break;
    case MsgType::kPhase1BatchResp:
      m.proto = ProtoId::kMultiPaxos;
      m.u.phase1_batch_resp.pn = pn;
      m.u.phase1_batch_resp.accepted_pn = pn;
      m.u.phase1_batch_resp.instance = in;
      m.u.phase1_batch_resp.count = m.u.phase1_batch_resp.run.pack(value);
      break;
    case MsgType::kOpxBatchAcceptReq:
      m.u.opx_batch_accept_req.instance = in;
      m.u.opx_batch_accept_req.pn = pn;
      m.u.opx_batch_accept_req.count = m.u.opx_batch_accept_req.run.pack(value);
      break;
    case MsgType::kOpxBatchLearn:
      m.u.opx_batch_learn.instance = in;
      m.u.opx_batch_learn.count = m.u.opx_batch_learn.run.pack(value);
      break;
    case MsgType::kOpxPrepareBatchResp:
      m.u.opx_prepare_batch_resp.acceptor = m.src;
      m.u.opx_prepare_batch_resp.pn = pn;
      m.u.opx_prepare_batch_resp.instance = in;
      m.u.opx_prepare_batch_resp.count = m.u.opx_prepare_batch_resp.run.pack(value);
      break;
    case MsgType::kOpxWindowBody:
      m.u.opx_window_body.instance = in;
      m.u.opx_window_body.digest = batch_digest(value);
      m.u.opx_window_body.count = m.u.opx_window_body.run.pack(value);
      break;
    case MsgType::kClientCmdBatch:
      m.proto = ProtoId::kClient;
      m.u.client_cmd_batch.count = m.u.client_cmd_batch.run.pack(value);
      break;
    case MsgType::kOpxLearnRun:
      m.u.opx_learn_run.first_instance = in;
      m.u.opx_learn_run.count = m.u.opx_learn_run.run.pack(value);
      break;
    default:
      ADD_FAILURE() << "not a batched frame kind";
  }
  return m;
}

// Every run-carrying kind, with its count bounds, from the message table.
std::vector<WireRow> run_rows() {
  std::vector<WireRow> out;
  for (const WireRow& r : kWireRows) {
    if (r.tail == Tail::kRun) out.push_back(r);
  }
  return out;
}

// Frame-level equality is semantic equality: encode() reads the commands
// through whatever representation (inline or pooled) each side holds, so
// two messages with identical frames carry identical payloads.
void expect_same_frame(const Message& a, const Message& b) {
  unsigned char fa[ci::wire::kMaxFrameBytes];
  unsigned char fb[ci::wire::kMaxFrameBytes];
  const std::uint32_t na = ci::wire::encode(a, fa);
  const std::uint32_t nb = ci::wire::encode(b, fb);
  ASSERT_EQ(na, nb);
  EXPECT_EQ(std::memcmp(fa, fb, na), 0);
}

TEST(WireCodec, RoundTripRandomizedBatchSizesAllKinds) {
  Rng rng(0xC0DEC);
  const std::size_t live0 = CommandPool::local().live();
  for (const WireRow& row : run_rows()) {
    const MsgType kind = row.type;
    for (int iter = 0; iter < 40; ++iter) {
      // Cover the inline/pooled boundary densely, the rest uniformly.
      const std::int32_t count =
          iter < 8 ? std::min(2 + iter, row.max_count)
                   : static_cast<std::int32_t>(
                         2 + rng.next_below(static_cast<std::uint64_t>(row.max_count - 1)));
      const Batch value = rand_batch(rng, count);
      Message m = rand_batched(rng, kind, value);
      unsigned char buf[ci::wire::kMaxFrameBytes];
      const std::uint32_t n = ci::wire::encode(m, buf);
      EXPECT_EQ(n, wire_size(m));
      Message out;
      ASSERT_TRUE(ci::wire::try_decode(buf, n, &out)) << "kind " << static_cast<int>(kind)
                                                      << " count " << count;
      expect_same_frame(m, out);
      ci::wire::release_body(out);  // decode-side custody
      ci::wire::release_body(m);    // sender-side custody
    }
  }
  EXPECT_EQ(CommandPool::local().live(), live0) << "pool blocks leaked";
}

// A Multi-Paxos phase-1 report sends the overflow of its inline proposal
// array as sidecars, so kPhase1BatchResp alone among the batched kinds
// carries a single command.
TEST(WireCodec, Phase1SidecarCarriesASingleCommand) {
  Rng rng(0x51DE);
  Message m = rand_batched(rng, MsgType::kPhase1BatchResp, rand_batch(rng, 1));
  unsigned char buf[ci::wire::kMaxFrameBytes];
  const std::uint32_t n = ci::wire::encode(m, buf);
  EXPECT_EQ(n, wire_size(m));
  Message out;
  ASSERT_TRUE(ci::wire::try_decode(buf, n, &out));
  expect_same_frame(m, out);
  ci::wire::release_body(out);
  ci::wire::release_body(m);
}

TEST(WireCodec, TruncatedFramesAreRejected) {
  Rng rng(0xBAD);
  const std::size_t live0 = CommandPool::local().live();
  std::vector<Message> samples;
  for (const WireRow& row : run_rows()) {
    samples.push_back(rand_batched(rng, row.type, rand_batch(rng, 2)));
    samples.push_back(rand_batched(rng, row.type, rand_batch(rng, row.max_count)));
  }
  samples.push_back(rand_batched(rng, MsgType::kOpxBatchAcceptReq, rand_batch(rng, 1)));
  {
    Message m(MsgType::kPhase1Resp, ProtoId::kMultiPaxos, 1, 0);
    m.u.phase1_resp.pn = ProposalNum{4, 1};
    m.u.phase1_resp.num_proposals = 3;
    samples.push_back(m);
  }
  for (const Message& m : samples) {
    unsigned char buf[ci::wire::kMaxFrameBytes];
    const std::uint32_t n = ci::wire::encode(m, buf);
    Message out;
    for (std::uint32_t k = 0; k < n; ++k) {
      EXPECT_FALSE(ci::wire::try_decode(buf, k, &out))
          << "type " << static_cast<int>(m.type) << " accepted a " << k << "/" << n
          << "-byte prefix";
    }
    ASSERT_TRUE(ci::wire::try_decode(buf, n, &out));
    ci::wire::release_body(out);
    ci::wire::release_body(m);
  }
  EXPECT_EQ(CommandPool::local().live(), live0);
}

TEST(WireCodec, GarbageNeverDecodesToAnUnknownTypeOrLeaks) {
  Rng rng(0xF00D);
  const std::size_t live0 = CommandPool::local().live();
  unsigned char buf[512];
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t n = rng.next_below(sizeof(buf));
    for (std::size_t i = 0; i < n; ++i) {
      buf[i] = static_cast<unsigned char>(rng.next_below(256));
    }
    Message out;
    if (ci::wire::try_decode(buf, n, &out)) {
      // Random bytes rarely form a valid frame; when they do, the decoded
      // message must be internally consistent.
      EXPECT_TRUE(wire_validate(out, wire_size(out)));
      ci::wire::release_body(out);
    }
  }
  EXPECT_EQ(CommandPool::local().live(), live0);
}

TEST(WireCodec, LegacyFramesStayBitIdenticalToStructPrefix) {
  // Every frame without a command run is exactly the struct prefix of its
  // payload.
  std::vector<Message> samples;
  {
    Message m(MsgType::kClientRequest, ProtoId::kClient, 3, 0);
    m.u.client_request.cmd.client = 3;
    m.u.client_request.cmd.seq = 9;
    samples.push_back(m);
  }
  {
    Message m(MsgType::kPhase1Resp, ProtoId::kMultiPaxos, 1, 2);
    m.u.phase1_resp.pn = ProposalNum{3, 1};
    m.u.phase1_resp.num_proposals = 2;
    samples.push_back(m);
  }
  {
    Message m(MsgType::kHeartbeat, ProtoId::kMultiPaxos, 0, 1);
    m.u.heartbeat.leader = 0;
    m.u.heartbeat.committed = 17;
    samples.push_back(m);
  }
  {
    Message m(MsgType::kUtilPhase2Req, ProtoId::kUtility, 0, 1);
    m.u.util_phase2_req.instance = 2;
    m.u.util_phase2_req.entry.kind = UtilityEntry::Kind::kAcceptorChange;
    m.u.util_phase2_req.entry.num_proposals = 1;  // num_batched == 0: legacy layout
    samples.push_back(m);
  }
  for (const Message& m : samples) {
    unsigned char frame[ci::wire::kMaxFrameBytes];
    const std::uint32_t n = ci::wire::encode(m, frame);
    ASSERT_EQ(n, wire_size(m));
    EXPECT_EQ(std::memcmp(frame, &m, n), 0)
        << "type " << static_cast<int>(m.type) << " frame diverged from the struct prefix";
  }
}

// kClientCmdBatch: the client-side run frame. Tighter count cap than the
// protocol batches (runs stay inline, so sessions never touch the
// engine-thread-local pool) and full strictness on decode.
TEST(WireCodec, ClientCmdBatchRoundTripsWithinItsCap) {
  Rng rng(0xC11E);
  const std::size_t live0 = CommandPool::local().live();
  // count == 1 is valid since client coalescing: a window can close with a
  // single queued command (senders still prefer kClientRequest for singles,
  // but the decoder must accept what a coalescing sender may emit).
  for (std::int32_t count = 1; count <= kMaxClientBatchCommands; ++count) {
    const Batch value = rand_batch(rng, count);
    Message m(MsgType::kClientCmdBatch, ProtoId::kClient, 7, 0);
    m.u.client_cmd_batch.count = m.u.client_cmd_batch.run.pack(value);
    unsigned char buf[ci::wire::kMaxFrameBytes];
    const std::uint32_t n = ci::wire::encode(m, buf);
    EXPECT_EQ(n, wire_size(m));
    EXPECT_EQ(n, kMessageHeaderBytes + offsetof(ClientCmdBatch, run) +
                     static_cast<std::size_t>(count) * sizeof(Command));
    Message out;
    ASSERT_TRUE(ci::wire::try_decode(buf, n, &out)) << "count " << count;
    expect_same_frame(m, out);
    for (std::uint32_t k = 0; k < n; ++k) {
      EXPECT_FALSE(ci::wire::try_decode(buf, k, &out)) << count << "-run prefix " << k;
    }
  }
  EXPECT_EQ(CommandPool::local().live(), live0) << "client runs must stay inline";
}

TEST(WireCodec, ClientCmdBatchRejectsCountsBeyondTheInlineCap) {
  // Counts the PROTOCOL batches accept (up to 64) are invalid here: a
  // client run longer than the inline capacity must never decode, or the
  // demux would dereference a pool the sender never filled.
  Rng rng(0xC11F);
  const Batch value = rand_batch(rng, kMaxClientBatchCommands);
  Message m(MsgType::kClientCmdBatch, ProtoId::kClient, 7, 0);
  m.u.client_cmd_batch.count = m.u.client_cmd_batch.run.pack(value);
  unsigned char buf[ci::wire::kMaxFrameBytes];
  std::memset(buf, 0, sizeof(buf));
  (void)ci::wire::encode(m, buf);
  for (const std::int32_t bogus : {0, kMaxClientBatchCommands + 1, 64, -3}) {
    std::memcpy(buf + kMessageHeaderBytes, &bogus, sizeof(bogus));
    Message out;
    EXPECT_FALSE(
        ci::wire::try_decode(buf, ci::wire::kMaxFrameBytes, &out))
        << "count " << bogus;
  }
}

// kOpxLearnRun: the coalesced catch-up frame. Its own count window
// (2..kMaxLearnRunCommands) straddles the inline/pooled boundary, so both
// regimes must round-trip and everything outside the window must reject.
TEST(WireCodec, LearnRunRoundTripsAcrossTheInlinePooledBoundary) {
  Rng rng(0x1EA2);
  const std::size_t live0 = CommandPool::local().live();
  for (std::int32_t count = 2; count <= kMaxLearnRunCommands; ++count) {
    const Batch value = rand_batch(rng, count);
    Message m = rand_batched(rng, MsgType::kOpxLearnRun, value);
    unsigned char buf[ci::wire::kMaxFrameBytes];
    const std::uint32_t n = ci::wire::encode(m, buf);
    EXPECT_EQ(n, wire_size(m));
    EXPECT_EQ(n, kMessageHeaderBytes + offsetof(OpxLearnRun, run) +
                     static_cast<std::size_t>(count) * sizeof(Command));
    Message out;
    ASSERT_TRUE(ci::wire::try_decode(buf, n, &out)) << "count " << count;
    EXPECT_EQ(unpack_batch(out.u.opx_learn_run.run.data(out.u.opx_learn_run.count),
                           out.u.opx_learn_run.count),
              value);
    expect_same_frame(m, out);
    for (std::uint32_t k = 0; k < n; ++k) {
      EXPECT_FALSE(ci::wire::try_decode(buf, k, &out)) << count << "-run prefix " << k;
    }
    ci::wire::release_body(out);
    ci::wire::release_body(m);
  }
  EXPECT_EQ(CommandPool::local().live(), live0) << "pool blocks leaked";
}

TEST(WireCodec, LearnRunRejectsCountsOutsideItsWindow) {
  Rng rng(0x1EA3);
  const Batch value = rand_batch(rng, kMaxLearnRunCommands);
  Message m = rand_batched(rng, MsgType::kOpxLearnRun, value);
  unsigned char buf[ci::wire::kMaxFrameBytes];
  std::memset(buf, 0, sizeof(buf));
  (void)ci::wire::encode(m, buf);
  ci::wire::release_body(m);
  // A run holds 1..kMaxLearnRunCommands instances: 0 is as invalid on
  // decode as the protocol batch cap.
  for (const std::int32_t bogus :
       {0, kMaxLearnRunCommands + 1, kMaxCommandsPerBatch, -5}) {
    std::memcpy(buf + kMessageHeaderBytes + offsetof(OpxLearnRun, count), &bogus,
                sizeof(bogus));
    Message out;
    EXPECT_FALSE(ci::wire::try_decode(buf, ci::wire::kMaxFrameBytes, &out))
        << "count " << bogus;
  }
}

TEST(WireCodec, PooledDecodeAllocatesAndReleaseReturns) {
  const std::size_t live0 = CommandPool::local().live();
  Rng rng(7);
  const Batch value = rand_batch(rng, kMaxCommandsPerBatch);
  Message m = rand_batched(rng, MsgType::kPhase2BatchReq, value);
  EXPECT_EQ(CommandPool::local().live(), live0 + 1);  // sender-side block
  unsigned char buf[ci::wire::kMaxFrameBytes];
  const std::uint32_t n = ci::wire::encode(m, buf);
  ci::wire::release_body(m);  // transport consumed the send
  EXPECT_EQ(CommandPool::local().live(), live0);
  Message out;
  ASSERT_TRUE(ci::wire::try_decode(buf, n, &out));
  EXPECT_EQ(CommandPool::local().live(), live0 + 1);  // receiver-side block
  EXPECT_EQ(unpack_batch(out.u.phase2_batch_req.run.data(out.u.phase2_batch_req.count),
                         out.u.phase2_batch_req.count),
            value);
  ci::wire::release_body(out);
  EXPECT_EQ(CommandPool::local().live(), live0);
}

TEST(WireCodec, InlineRunsNeverTouchThePool) {
  const std::size_t live0 = CommandPool::local().live();
  Rng rng(11);
  const Batch value = rand_batch(rng, kInlineBatchCommands);
  Message m = rand_batched(rng, MsgType::kOpxBatchLearn, value);
  EXPECT_EQ(CommandPool::local().live(), live0);
  ci::wire::release_body(m);  // must be a no-op
  EXPECT_EQ(CommandPool::local().live(), live0);
}

TEST(CommandPool, RetainReleaseAndGenerationGuard) {
  CommandPool& pool = CommandPool::local();
  const std::size_t live0 = pool.live();
  Rng rng(3);
  const Batch value = rand_batch(rng, 12);
  const BodyRef ref = pool.alloc(value.data(), 12);
  EXPECT_EQ(pool.live(), live0 + 1);
  EXPECT_EQ(unpack_batch(pool.data(ref), 12), value);
  pool.retain(ref);
  pool.release(ref);
  EXPECT_EQ(pool.live(), live0 + 1);  // one reference still out
  EXPECT_EQ(unpack_batch(pool.data(ref), 12), value);
  pool.release(ref);
  EXPECT_EQ(pool.live(), live0);
}

TEST(CommandPoolDeathTest, StaleRefTripsTheGuard) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng rng(5);
  const Batch value = rand_batch(rng, 10);
  CommandPool& pool = CommandPool::local();
  const BodyRef ref = pool.alloc(value.data(), 10);
  pool.release(ref);
  EXPECT_DEATH((void)pool.data(ref), "stale");
}

// ---- Every kind's frame, pinned ----
// One message of every MsgType with fixed field values, spelled out per
// kind (nothing here reads the codec's own per-kind facts). Kinds with a
// counted tail are built twice: with 2 elements, and with one more than a
// CommandRun holds inline, so both the inline and the pooled run regimes
// are pinned (kClientCmdBatch, whose runs stay inline, uses its cap). The
// accept, learn and catch-up kinds are also pinned as runs of one: the
// frames of every unbatched instance.

void set_pn(ProposalNum& pn, std::int64_t counter, NodeId node) {
  // Field by field: assigning a ProposalNum temporary could copy
  // indeterminate padding bytes into the frame.
  pn.counter = counter;
  pn.node = node;
}

Command pinned_cmd(std::int32_t i) {
  Command c;
  c.client = 3 + i;
  c.seq = 100 + static_cast<std::uint32_t>(i);
  c.op = i % 2 == 0 ? Op::kWrite : Op::kRead;
  c.key = 0x1000 + static_cast<std::uint64_t>(i);
  c.value = 0xABC0 + static_cast<std::uint64_t>(i);
  return c;
}

void set_proposal(Proposal& p, std::int32_t i) {
  p.instance = 20 + i;
  set_pn(p.pn, 6, 1);
  p.value = pinned_cmd(i);
}

void fill_run(CommandRun& run, std::int32_t count) {
  Batch b;
  for (std::int32_t i = 0; i < count; ++i) b.push_back(pinned_cmd(i));
  run.assign(b.data(), count);
}

// count 2: the legacy layout (no batched refs); otherwise `count`
// single-command proposals plus three batched refs.
void fill_entry(UtilityEntry& e, std::int32_t count) {
  e.kind = UtilityEntry::Kind::kAcceptorChange;
  e.leader = 0;
  e.acceptor = 1;
  e.frontier = 40;
  e.num_proposals = count;
  for (std::int32_t i = 0; i < count; ++i) set_proposal(e.proposals[i], i);
  if (count == 2) return;
  e.num_batched = 3;
  for (std::int32_t i = 0; i < e.num_batched; ++i) {
    e.batched[i].instance = 50 + i;
    e.batched[i].count = 2 + i;
    e.batched[i].digest = 0xD16E57ull * static_cast<std::uint64_t>(i + 1);
  }
}

Message pinned_message(MsgType t, std::int32_t count) {
  Message m(t, ProtoId::kOnePaxos, 1, 2);
  m.flags = 0;
  m.group = 3;
  Message::Payload& u = m.u;
  switch (t) {
    case MsgType::kNone:
    case MsgType::kStart:
    case MsgType::kStop:
    case MsgType::kPing:
      m.proto = ProtoId::kControl;
      break;
    case MsgType::kHeartbeat:
    case MsgType::kPong:
      m.flags = kFlagEstablishing;
      u.heartbeat.leader = 1;
      u.heartbeat.lease_seq = 5;
      u.heartbeat.committed = 77;
      set_pn(u.heartbeat.ballot, 4, 1);
      break;
    case MsgType::kClientRequest:
      m.proto = ProtoId::kClient;
      m.flags = kFlagLeaderSuspect;
      u.client_request.cmd = pinned_cmd(0);
      break;
    case MsgType::kClientReply:
      m.proto = ProtoId::kClient;
      u.client_reply.seq = 9;
      u.client_reply.ok = 1;
      u.client_reply.result = 0x55;
      u.client_reply.instance = 12;
      u.client_reply.leader_hint = 0;
      u.client_reply.lease_epoch = 3;
      break;
    case MsgType::kTwoPcPrepare:
      m.proto = ProtoId::kTwoPc;
      u.two_pc_prepare.instance = 12;
      u.two_pc_prepare.cmd = pinned_cmd(1);
      break;
    case MsgType::kTwoPcPrepareAck:
    case MsgType::kTwoPcPrepareNack:
    case MsgType::kTwoPcCommit:
    case MsgType::kTwoPcCommitAck:
    case MsgType::kTwoPcRollback:
      m.proto = ProtoId::kTwoPc;
      u.two_pc_ack.instance = 12 + static_cast<Instance>(t);
      break;
    case MsgType::kPhase1Req:
      m.proto = ProtoId::kMultiPaxos;
      set_pn(u.phase1_req.pn, 5, 2);
      u.phase1_req.from_instance = 5;
      break;
    case MsgType::kPhase1Resp:
      m.proto = ProtoId::kMultiPaxos;
      set_pn(u.phase1_resp.pn, 5, 2);
      u.phase1_resp.num_proposals = count;
      u.phase1_resp.num_batched = 1;
      for (std::int32_t i = 0; i < count; ++i) set_proposal(u.phase1_resp.proposals[i], i);
      break;
    case MsgType::kNack:
      m.proto = ProtoId::kMultiPaxos;
      u.nack.instance = 33;
      set_pn(u.nack.higher_pn, 8, 0);
      u.nack.leader_hint = 0;
      break;
    case MsgType::kOpxPrepareReq:
      set_pn(u.opx_prepare_req.pn, 7, 1);
      u.opx_prepare_req.you_must_be_fresh = 1;
      break;
    case MsgType::kOpxPrepareResp:
      u.opx_prepare_resp.acceptor = 2;
      set_pn(u.opx_prepare_resp.pn, 7, 1);
      u.opx_prepare_resp.frontier = 61;
      u.opx_prepare_resp.num_accepted = count;
      u.opx_prepare_resp.num_batched = 1;
      for (std::int32_t i = 0; i < count; ++i) set_proposal(u.opx_prepare_resp.accepted[i], i);
      break;
    case MsgType::kOpxAbandon:
      set_pn(u.opx_abandon.higher_pn, 9, 2);
      break;
    case MsgType::kOpxCatchupReq:
      u.opx_catchup_req.from_instance = 36;
      break;
    case MsgType::kUtilPhase1Req:
      m.proto = ProtoId::kUtility;
      u.util_phase1_req.instance = 2;
      set_pn(u.util_phase1_req.pn, 3, 0);
      break;
    case MsgType::kUtilPhase1Resp:
      m.proto = ProtoId::kUtility;
      u.util_phase1_resp.instance = 2;
      set_pn(u.util_phase1_resp.pn, 3, 0);
      u.util_phase1_resp.has_accepted = 1;
      set_pn(u.util_phase1_resp.accepted_pn, 2, 1);
      fill_entry(u.util_phase1_resp.accepted, count);
      break;
    case MsgType::kUtilPhase2Req:
      m.proto = ProtoId::kUtility;
      u.util_phase2_req.instance = 2;
      set_pn(u.util_phase2_req.pn, 3, 0);
      fill_entry(u.util_phase2_req.entry, count);
      break;
    case MsgType::kUtilAccepted:
      m.proto = ProtoId::kUtility;
      u.util_accepted.instance = 2;
      set_pn(u.util_accepted.pn, 3, 0);
      fill_entry(u.util_accepted.entry, count);
      break;
    case MsgType::kUtilNack:
      m.proto = ProtoId::kUtility;
      u.util_nack.instance = 2;
      set_pn(u.util_nack.higher_pn, 4, 2);
      break;
    case MsgType::kPhase2BatchReq:
      m.proto = ProtoId::kMultiPaxos;
      u.phase2_batch_req.instance = 41;
      set_pn(u.phase2_batch_req.pn, 5, 2);
      u.phase2_batch_req.count = count;
      fill_run(u.phase2_batch_req.run, count);
      break;
    case MsgType::kPhase2BatchAcked:
      m.proto = ProtoId::kMultiPaxos;
      u.phase2_batch_acked.instance = 42;
      set_pn(u.phase2_batch_acked.pn, 5, 2);
      u.phase2_batch_acked.count = count;
      fill_run(u.phase2_batch_acked.run, count);
      break;
    case MsgType::kPhase1BatchResp:
      m.proto = ProtoId::kMultiPaxos;
      set_pn(u.phase1_batch_resp.pn, 5, 2);
      set_pn(u.phase1_batch_resp.accepted_pn, 4, 1);
      u.phase1_batch_resp.instance = 43;
      u.phase1_batch_resp.count = count;
      fill_run(u.phase1_batch_resp.run, count);
      break;
    case MsgType::kOpxBatchAcceptReq:
      u.opx_batch_accept_req.instance = 44;
      set_pn(u.opx_batch_accept_req.pn, 7, 1);
      u.opx_batch_accept_req.count = count;
      fill_run(u.opx_batch_accept_req.run, count);
      break;
    case MsgType::kOpxBatchLearn:
      u.opx_batch_learn.instance = 45;
      u.opx_batch_learn.count = count;
      fill_run(u.opx_batch_learn.run, count);
      break;
    case MsgType::kOpxPrepareBatchResp:
      u.opx_prepare_batch_resp.acceptor = 2;
      u.opx_prepare_batch_resp.count = count;
      set_pn(u.opx_prepare_batch_resp.pn, 7, 1);
      u.opx_prepare_batch_resp.instance = 46;
      fill_run(u.opx_prepare_batch_resp.run, count);
      break;
    case MsgType::kOpxWindowBody:
      u.opx_window_body.instance = 47;
      u.opx_window_body.digest = 0xB0D1;
      u.opx_window_body.count = count;
      fill_run(u.opx_window_body.run, count);
      break;
    case MsgType::kOpxWindowFetchReq:
      u.opx_window_fetch_req.instance = 47;
      u.opx_window_fetch_req.digest = 0xB0D1;
      break;
    case MsgType::kClientCmdBatch:
      m.proto = ProtoId::kClient;
      u.client_cmd_batch.count = count;
      fill_run(u.client_cmd_batch.run, count);
      break;
    case MsgType::kOpxLearnRun:
      u.opx_learn_run.first_instance = 48;
      u.opx_learn_run.count = count;
      fill_run(u.opx_learn_run.run, count);
      break;
    case MsgType::kLeaseGrant:
      u.lease_grant.grantor = 2;
      u.lease_grant.lease_seq = 5;
      set_pn(u.lease_grant.ballot, 4, 1);
      break;
    default:
      ADD_FAILURE() << "no pinned message for type " << static_cast<int>(t);
  }
  return m;
}

std::uint64_t fnv1a64(const unsigned char* p, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

struct PinnedFrame {
  MsgType type;
  std::int32_t count;  // elements in the counted tail (0: the kind has none)
  std::uint32_t bytes;
  std::uint64_t fnv;
};

// Generated from the codec; a changed value here means a frame byte changed.
const PinnedFrame kPinnedFrames[] = {
    {MsgType::kNone, 0, 16, 0xbd838722cc6e492aull},
    {MsgType::kStart, 0, 16, 0x07be36850f95311full},
    {MsgType::kStop, 0, 16, 0x57801eb5c57eafecull},
    {MsgType::kHeartbeat, 0, 48, 0xe04c05e505440ec4ull},
    {MsgType::kPing, 0, 16, 0x818b30028019e826ull},
    {MsgType::kPong, 0, 48, 0x49c43e047240393aull},
    {MsgType::kClientRequest, 0, 48, 0x435f099c16f5bcc4ull},
    {MsgType::kClientReply, 0, 48, 0xa8590574c00d121eull},
    {MsgType::kTwoPcPrepare, 0, 56, 0xafcf11029e5fbe76ull},
    {MsgType::kTwoPcPrepareAck, 0, 24, 0x376edd847a312ac8ull},
    {MsgType::kTwoPcPrepareNack, 0, 24, 0xe47965aab79213bcull},
    {MsgType::kTwoPcCommit, 0, 24, 0xf3a2b5ee9774f7a4ull},
    {MsgType::kTwoPcCommitAck, 0, 24, 0x6a3f33c29edfa3e0ull},
    {MsgType::kTwoPcRollback, 0, 24, 0x20e51c7158cc58c0ull},
    {MsgType::kPhase1Req, 0, 40, 0x6f0e355873371c1eull},
    {MsgType::kPhase1Resp, 2, 152, 0xb29a605769853839ull},
    {MsgType::kPhase1Resp, 9, 544, 0x0cc799e80c228a9eull},
    {MsgType::kNack, 0, 48, 0xa5f118844e4a80e7ull},
    {MsgType::kOpxPrepareReq, 0, 40, 0x872e8d07e31dc9f9ull},
    {MsgType::kOpxPrepareResp, 2, 168, 0x189236e43e817117ull},
    {MsgType::kOpxPrepareResp, 9, 560, 0x36aae21af0af5d54ull},
    {MsgType::kOpxAbandon, 0, 32, 0xe259c34b7533b5e7ull},
    {MsgType::kOpxCatchupReq, 0, 24, 0x4814c29f789dd6e3ull},
    {MsgType::kUtilPhase1Req, 0, 40, 0xce212452270dceacull},
    {MsgType::kUtilPhase1Resp, 2, 208, 0x546279e060a06ca4ull},
    {MsgType::kUtilPhase1Resp, 9, 1064, 0x6f845a42370f0d59ull},
    {MsgType::kUtilPhase2Req, 2, 184, 0x51bc4beba16209efull},
    {MsgType::kUtilPhase2Req, 9, 1040, 0xf1ce2ce80ce6d552ull},
    {MsgType::kUtilAccepted, 2, 184, 0x0c5f19ae9dc37e5cull},
    {MsgType::kUtilAccepted, 9, 1040, 0x7637fad4cd9048b1ull},
    {MsgType::kUtilNack, 0, 40, 0x4da4d10ad17220e5ull},
    {MsgType::kPhase2BatchReq, 1, 80, 0xf07dddb4da4ce688ull},
    {MsgType::kPhase2BatchReq, 2, 112, 0x795c839b43d06665ull},
    {MsgType::kPhase2BatchReq, 9, 336, 0x57cc23f95f0b2ef8ull},
    {MsgType::kPhase2BatchAcked, 1, 80, 0x382d37b79f8c5b42ull},
    {MsgType::kPhase2BatchAcked, 2, 112, 0xcd3de7120c378fe3ull},
    {MsgType::kPhase2BatchAcked, 9, 336, 0xd78c2c0650d24ff2ull},
    {MsgType::kOpxBatchAcceptReq, 1, 80, 0x04904024d6e2d58full},
    {MsgType::kOpxBatchAcceptReq, 2, 112, 0xf7846c45c78c2eeeull},
    {MsgType::kOpxBatchAcceptReq, 9, 336, 0x15b1720af139489full},
    {MsgType::kOpxBatchLearn, 1, 64, 0x2e2fc71237430d69ull},
    {MsgType::kOpxBatchLearn, 2, 96, 0xcc7fd76a161289fcull},
    {MsgType::kOpxBatchLearn, 9, 320, 0xe3132001990098d9ull},
    {MsgType::kPhase1BatchResp, 2, 128, 0x0f3005db4ebee3aeull},
    {MsgType::kPhase1BatchResp, 9, 352, 0x5543ff8f1b62715full},
    {MsgType::kOpxPrepareBatchResp, 2, 112, 0xa48773a0877d36c9ull},
    {MsgType::kOpxPrepareBatchResp, 9, 336, 0x65ed4f5c7ac01a1cull},
    {MsgType::kOpxWindowBody, 2, 104, 0x9dccbc4bb9df5396ull},
    {MsgType::kOpxWindowBody, 9, 328, 0xf4cde0df44922337ull},
    {MsgType::kOpxWindowFetchReq, 0, 32, 0xfa895226fe0e9080ull},
    {MsgType::kClientCmdBatch, 2, 88, 0x0ccdb394da608706ull},
    {MsgType::kClientCmdBatch, 8, 280, 0x7cd82c89e179276dull},
    {MsgType::kOpxLearnRun, 1, 64, 0x9035363c2741aa0eull},
    {MsgType::kOpxLearnRun, 2, 96, 0x2bc9dfb457a7c5afull},
    {MsgType::kOpxLearnRun, 9, 320, 0x6436bddc914f763eull},
    {MsgType::kLeaseGrant, 0, 40, 0xeecdc0c2149a4965ull},
};

TEST(WireCodec, EveryKindEncodesToItsPinnedBytes) {
  const std::size_t live0 = CommandPool::local().live();
  std::vector<bool> seen(static_cast<std::size_t>(MsgType::kLeaseGrant) + 1, false);
  for (const PinnedFrame& pin : kPinnedFrames) {
    Message m = pinned_message(pin.type, pin.count);
    unsigned char buf[ci::wire::kMaxFrameBytes];
    const std::uint32_t n = ci::wire::encode(m, buf);
    ci::wire::release_body(m);
    EXPECT_EQ(n, pin.bytes) << "type " << static_cast<int>(pin.type) << " count " << pin.count;
    EXPECT_EQ(fnv1a64(buf, n), pin.fnv)
        << "type " << static_cast<int>(pin.type) << " count " << pin.count;
    seen[static_cast<std::size_t>(pin.type)] = true;
  }
  for (std::size_t t = 0; t < seen.size(); ++t) EXPECT_TRUE(seen[t]) << "type " << t << " unpinned";
  EXPECT_EQ(CommandPool::local().live(), live0);
}

// ---- Mutation fuzz over every row ----

// try_decode either rejects the bytes, or returns a message that passes
// wire_validate, re-encodes to exactly wire_size bytes, and owns every pool
// block it allocated (released here, so the live count must come back).
bool decodes_soundly(const unsigned char* buf, std::size_t n) {
  const std::size_t live0 = CommandPool::local().live();
  bool ok = true;
  Message out;
  if (ci::wire::try_decode(buf, n, &out)) {
    unsigned char re[ci::wire::kMaxFrameBytes];
    ok = wire_validate(out, wire_size(out)) && ci::wire::encode(out, re) == wire_size(out);
    ci::wire::release_body(out);
  }
  return ok && CommandPool::local().live() == live0;
}

bool decodes(const unsigned char* buf, std::size_t n) {
  Message out;
  if (!ci::wire::try_decode(buf, n, &out)) return false;
  ci::wire::release_body(out);
  return true;
}

void put_i32(unsigned char* at, std::int32_t v) { std::memcpy(at, &v, sizeof(v)); }

TEST(WireCodec, MutatedFramesOfEveryKindDecodeSoundlyOrNotAtAll) {
  Rng rng(0xF022);
  const std::size_t live0 = CommandPool::local().live();
  for (const PinnedFrame& pin : kPinnedFrames) {
    const WireRow& row = *wire_row(pin.type);
    const std::string what = "type " + std::to_string(static_cast<int>(pin.type)) + " count " +
                             std::to_string(pin.count);
    Message m = pinned_message(pin.type, pin.count);
    // The valid frame, followed by random bytes up to the largest length a
    // frame of this kind may be offered at.
    unsigned char frame[ci::wire::kMaxFrameBytes];
    for (unsigned char& b : frame) b = static_cast<unsigned char>(rng.next_below(256));
    const std::uint32_t n = ci::wire::encode(m, frame);
    ci::wire::release_body(m);
    const std::size_t room = row.tail == Tail::kRun ? ci::wire::kMaxFrameBytes : sizeof(Message);
    ASSERT_TRUE(decodes(frame, n)) << what;
    unsigned char buf[ci::wire::kMaxFrameBytes];

    // Count fields at and just past their bounds. In-bounds counts decode
    // once the buffer holds the whole tail; out-of-bounds counts never do.
    struct CountField {
      std::size_t at;  // frame offset
      std::int32_t lo, hi;
    };
    std::vector<CountField> fields;
    const std::size_t payload = kMessageHeaderBytes;
    if (row.elem != 0) fields.push_back({payload + row.count_at, row.min_count, row.max_count});
    if (row.sidecars_at != 0) {
      fields.push_back({payload + row.sidecars_at, 0, std::numeric_limits<std::int32_t>::max()});
    }
    if (row.tail == Tail::kEntry) {
      const std::size_t entry = payload + row.fixed;
      fields.push_back({entry + offsetof(UtilityEntry, num_proposals), 0, kMaxProposalsPerMsg});
      fields.push_back({entry + offsetof(UtilityEntry, num_batched), 0, kMaxBatchedPerEntry});
    }
    for (const CountField& f : fields) {
      for (const std::int64_t v : {std::int64_t{f.lo} - 1, std::int64_t{f.lo}, std::int64_t{f.hi},
                                   std::int64_t{f.hi} + 1}) {
        if (v < std::numeric_limits<std::int32_t>::min() ||
            v > std::numeric_limits<std::int32_t>::max()) {
          continue;
        }
        std::memcpy(buf, frame, sizeof(frame));
        put_i32(buf + f.at, static_cast<std::int32_t>(v));
        const bool in_bounds = v >= f.lo && v <= f.hi;
        EXPECT_TRUE(decodes_soundly(buf, n)) << what << " count " << v;
        EXPECT_TRUE(decodes_soundly(buf, room)) << what << " count " << v;
        if (!in_bounds) {
          EXPECT_FALSE(decodes(buf, n)) << what << " count " << v;
          EXPECT_FALSE(decodes(buf, room)) << what << " count " << v;
        } else if (row.tail != Tail::kEntry) {
          // (Entry counts also gate the random batched-ref counts behind them.)
          EXPECT_TRUE(decodes(buf, room)) << what << " count " << v;
        }
      }
    }

    // Random byte flips, header included.
    for (int iter = 0; iter < 64; ++iter) {
      std::memcpy(buf, frame, sizeof(frame));
      const int flips = 1 + static_cast<int>(rng.next_below(3));
      for (int k = 0; k < flips; ++k) {
        buf[rng.next_below(n)] ^= static_cast<unsigned char>(1 + rng.next_below(255));
      }
      EXPECT_TRUE(decodes_soundly(buf, n)) << what << " flip iter " << iter;
    }

    // Every truncation is rejected.
    for (std::uint32_t k = 0; k < n; ++k) {
      EXPECT_FALSE(decodes(frame, k)) << what << " prefix " << k;
    }

    // Appended bytes.
    for (int iter = 0; iter < 16; ++iter) {
      const std::size_t extra = 1 + rng.next_below(64);
      EXPECT_TRUE(decodes_soundly(frame, std::min(n + extra, room)))
          << what << " +" << extra << " bytes";
    }
  }
  EXPECT_EQ(CommandPool::local().live(), live0) << "pool blocks leaked";
}

// ---- CI wire budgets ----
// These pins are the ctest half of the size guard (the static_assert in
// message.hpp is the compile-time half): loosening any of them is an
// explicit, reviewed decision rather than a silent regression.

TEST(WireBudgets, MessageStaysUnderItsBudget) {
  EXPECT_LE(sizeof(Message), kMessageBudgetBytes);
  static_assert(sizeof(Message) <= kMessageBudgetBytes);
  // The worst case used to be ~5.3 KB (the batched UtilityEntry command
  // pool); the decoupling must keep the whole union under ~1.4 KB.
  EXPECT_LE(sizeof(Message), 1408u);
}

TEST(WireBudgets, PerFrameBytesArePinned) {
  // Fast path: one 128-byte slot minus the 8-byte fragment header.
  constexpr std::size_t kSlotPayload = 120;
  for (const MsgType t : {MsgType::kClientRequest, MsgType::kClientReply, MsgType::kHeartbeat}) {
    Message m(t, ProtoId::kOnePaxos, 0, 1);
    EXPECT_LE(wire_size(m), kSlotPayload) << "type " << static_cast<int>(t);
  }
  // An unbatched instance's accept and learn frames: runs of one.
  Rng rng(13);
  for (const MsgType t : {MsgType::kOpxBatchAcceptReq, MsgType::kOpxBatchLearn,
                          MsgType::kPhase2BatchReq, MsgType::kPhase2BatchAcked}) {
    Message m = rand_batched(rng, t, rand_batch(rng, 1));
    EXPECT_LE(wire_size(m), kSlotPayload) << "type " << static_cast<int>(t);
  }

  // A full batch frame: header + fixed fields + count commands, nothing else.
  Message big = rand_batched(rng, MsgType::kPhase2BatchReq, rand_batch(rng, 64));
  EXPECT_EQ(wire_size(big),
            kMessageHeaderBytes + offsetof(Phase2BatchReq, run) + 64 * sizeof(Command));
  ci::wire::release_body(big);

  // A fully-loaded reconfiguration entry: refs, not bodies.
  Message entry(MsgType::kUtilPhase2Req, ProtoId::kUtility, 0, 1);
  UtilityEntry& e = entry.u.util_phase2_req.entry;
  e.kind = UtilityEntry::Kind::kAcceptorChange;
  e.num_proposals = kMaxProposalsPerMsg;
  e.num_batched = kMaxBatchedPerEntry;
  for (std::int32_t i = 0; i < e.num_batched; ++i) e.batched[i].count = 2;
  EXPECT_EQ(wire_size(entry),
            kMessageHeaderBytes + offsetof(UtilPhase2Req, entry) +
                offsetof(UtilityEntry, batched) +
                static_cast<std::size_t>(kMaxBatchedPerEntry) * sizeof(BatchedProposalRef));
  EXPECT_LE(wire_size(entry), ci::wire::kMaxFrameBytes);

  // The codec's global ceiling: the full-capacity batched frame.
  EXPECT_EQ(ci::wire::kMaxFrameBytes,
            kMessageHeaderBytes + ci::wire::kMaxBatchFixedBytes +
                static_cast<std::size_t>(kMaxCommandsPerBatch) * sizeof(Command));

  // Policy-dependent sizing grows with the cap and never exceeds the ceiling.
  consensus::BatchPolicy small;
  small.max_commands = 8;
  consensus::BatchPolicy full;
  full.max_commands = kMaxCommandsPerBatch;
  EXPECT_LT(ci::wire::max_frame_bytes(small), ci::wire::max_frame_bytes(full));
  EXPECT_LE(ci::wire::max_frame_bytes(full), ci::wire::kMaxFrameBytes);
}

TEST(WireBudgets, EncodeCopiesEachFrameByteExactlyOnce) {
  // The zero-copy send-path contract: encode_into moves every frame byte
  // from its source field to the destination in ONE pass. Copied bytes ==
  // frame bytes, with a handful of appends (header, fixed fields, command
  // run) — any second pass (an intermediate stack Message, an extra
  // memcpy) doubles the byte count and fails this pin.
  Rng rng(17);
  std::vector<Message> samples;
  {
    Message m(MsgType::kClientRequest, ProtoId::kClient, 3, 0);
    m.u.client_request.cmd.client = 3;
    samples.push_back(m);
  }
  samples.push_back(rand_batched(rng, MsgType::kPhase2BatchReq,
                                 rand_batch(rng, kMaxCommandsPerBatch)));
  samples.push_back(rand_batched(rng, MsgType::kOpxBatchLearn,
                                 rand_batch(rng, kInlineBatchCommands)));
  samples.push_back(rand_batched(rng, MsgType::kOpxLearnRun,
                                 rand_batch(rng, kMaxLearnRunCommands)));
  for (const Message& m : samples) {
    unsigned char buf[ci::wire::kMaxFrameBytes];
    ci::wire::copy_stats().reset();
    const std::uint32_t n = ci::wire::encode(m, buf);
    EXPECT_EQ(ci::wire::copy_stats().bytes, n)
        << "type " << static_cast<int>(m.type) << ": frame bytes copied more than once";
    EXPECT_LE(ci::wire::copy_stats().appends, 3u) << "type " << static_cast<int>(m.type);
    ci::wire::release_body(m);
  }
}

}  // namespace
}  // namespace ci::consensus
