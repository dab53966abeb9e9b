// wire::Codec: randomized round-trips over every frame kind, strict
// truncated-frame rejection, bit-identity of legacy (batch=1) frames with
// the struct-prefix encoding they replaced, pool-custody leak checks, and
// the CI wire budgets (sizeof(Message) and per-frame byte pins) that make
// size regressions fail the build.
#include "consensus/wire_codec.hpp"

#include <gtest/gtest.h>

#include <cstring>
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
    case MsgType::kOpxLearnRun:
      m.u.opx_learn_run.first_instance = in;
      m.u.opx_learn_run.count = m.u.opx_learn_run.run.pack(value);
      break;
    default:
      ADD_FAILURE() << "not a batched frame kind";
  }
  return m;
}

const MsgType kBatchKinds[] = {
    MsgType::kPhase2BatchReq,  MsgType::kPhase2BatchAcked,    MsgType::kPhase1BatchResp,
    MsgType::kOpxBatchAcceptReq, MsgType::kOpxBatchLearn,
    MsgType::kOpxPrepareBatchResp, MsgType::kOpxWindowBody,
};

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
  for (const MsgType kind : kBatchKinds) {
    for (int iter = 0; iter < 40; ++iter) {
      // Cover the inline/pooled boundary densely, the rest uniformly.
      const std::int32_t count =
          iter < 8 ? 2 + iter
                   : static_cast<std::int32_t>(2 + rng.next_below(kMaxCommandsPerBatch - 1));
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
  for (const MsgType kind : kBatchKinds) {
    samples.push_back(rand_batched(rng, kind, rand_batch(rng, 2)));
    samples.push_back(rand_batched(rng, kind, rand_batch(rng, kMaxCommandsPerBatch)));
  }
  {
    Message m(MsgType::kOpxAcceptReq, ProtoId::kOnePaxos, 0, 1);
    m.u.opx_accept_req.instance = 3;
    m.u.opx_accept_req.pn = ProposalNum{2, 0};
    samples.push_back(m);
  }
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
  // The batch=1 promise: every non-batched frame is exactly the struct
  // prefix it always was — a deployment that never batches is byte-stable
  // on the wire across this refactor.
  std::vector<Message> samples;
  {
    Message m(MsgType::kClientRequest, ProtoId::kClient, 3, 0);
    m.u.client_request.cmd.client = 3;
    m.u.client_request.cmd.seq = 9;
    samples.push_back(m);
  }
  {
    Message m(MsgType::kOpxAcceptReq, ProtoId::kOnePaxos, 0, 1);
    m.u.opx_accept_req.instance = 42;
    m.u.opx_accept_req.pn = ProposalNum{7, 0};
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
  // A run of one never travels as kOpxLearnRun (senders degenerate to the
  // legacy kOpxLearn), so 1 is as invalid on decode as 0 or the protocol
  // batch cap.
  for (const std::int32_t bogus :
       {0, 1, kMaxLearnRunCommands + 1, kMaxCommandsPerBatch, -5}) {
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
  for (const MsgType t : {MsgType::kClientRequest, MsgType::kClientReply,
                          MsgType::kOpxAcceptReq, MsgType::kOpxLearn, MsgType::kPhase2Req,
                          MsgType::kPhase2Acked, MsgType::kHeartbeat}) {
    Message m(t, ProtoId::kOnePaxos, 0, 1);
    EXPECT_LE(wire_size(m), kSlotPayload) << "type " << static_cast<int>(t);
  }

  // A full batch frame: header + fixed fields + count commands, nothing else.
  Rng rng(13);
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
