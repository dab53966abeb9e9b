// The one client engine's semantics. The closed-loop driver: closed loop,
// think time, re-targeting with the suspect flag, local-read hook, and
// stop/start control. The same retarget, leader-hint and stale-reply rules
// once more through AsyncClientEngine::submit(), with exact retry counts.
#include "client/closed_loop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "support/fake_net.hpp"

namespace ci::client {
namespace {

using consensus::kFlagLeaderSuspect;
using consensus::ProtoId;

using test::FakeNet;

// A trivial always-commit replica for driving the client. It answers each
// command of a kClientCmdBatch on its own, as a replica node's group demux
// delivers them (consensus/group.cpp), and logs every frame it receives.
class EchoReplica final : public Engine {
 public:
  struct Frame {
    MsgType type;
    std::uint16_t flags;
    std::vector<std::uint32_t> seqs;
  };

  void on_message(Context& ctx, const Message& m) override {
    if (m.type == MsgType::kClientRequest) {
      on_frame(ctx, m, &m.u.client_request.cmd, 1);
    } else if (m.type == MsgType::kClientCmdBatch) {
      const std::int32_t count = m.u.client_cmd_batch.count;
      on_frame(ctx, m, m.u.client_cmd_batch.run.data(count), count);
    }
  }

  int requests = 0;  // commands received, whatever frame carried them
  std::uint16_t first_flags = 0;
  std::uint16_t last_flags = 0;
  bool mute = false;
  std::vector<Frame> frames;

 private:
  void on_frame(Context& ctx, const Message& m, const Command* cmds, std::int32_t count) {
    Frame f{m.type, m.flags, {}};
    for (std::int32_t i = 0; i < count; ++i) {
      const Command& cmd = cmds[i];
      f.seqs.push_back(cmd.seq);
      requests++;
      if (requests == 1) first_flags = m.flags;
      last_flags = m.flags;
      if (mute) continue;
      Message reply(MsgType::kClientReply, ProtoId::kClient, ctx.self(), cmd.client);
      reply.u.client_reply.seq = cmd.seq;
      reply.u.client_reply.ok = 1;
      reply.u.client_reply.leader_hint = ctx.self();
      ctx.send(cmd.client, reply);
    }
    frames.push_back(std::move(f));
  }
};

struct ClientHarness {
  explicit ClientHarness(std::uint64_t total = 5, Nanos think = 0, double reads = 0,
                         std::function<bool(const Command&, std::uint64_t*)> local = nullptr) {
    for (int r = 0; r < 3; ++r) {
      replicas.push_back(std::make_unique<EchoReplica>());
      net.add(replicas.back().get());
    }
    ClosedLoopConfig cfg;
    cfg.engine.base.self = 3;
    cfg.engine.base.num_replicas = 3;
    cfg.engine.base.seed = 17;
    cfg.engine.initial_target = 0;
    cfg.engine.request_timeout = 1 * kMillisecond;
    cfg.total_requests = total;
    cfg.think_time = think;
    cfg.read_fraction = reads;
    cfg.auto_start = false;
    cfg.local_read = std::move(local);
    client = std::make_unique<ClosedLoopClient>(cfg);
    net.add(client.get());
    net.start_all();
  }

  void start_client() {
    Message m(MsgType::kStart, ProtoId::kControl, -1, 3);
    net.inject(m);
    net.step();
    net.tick_all();
  }

  FakeNet net;
  std::vector<std::unique_ptr<EchoReplica>> replicas;
  std::unique_ptr<ClosedLoopClient> client;
};

TEST(Client, WaitsForStartMessage) {
  ClientHarness h;
  h.net.tick_all();
  EXPECT_EQ(h.client->issued(), 0u);  // §7.1: released by the load manager
  h.start_client();
  EXPECT_EQ(h.client->issued(), 1u);
}

TEST(Client, ClosedLoopOneOutstanding) {
  ClientHarness h;
  h.start_client();
  EXPECT_EQ(h.client->issued(), 1u);
  h.net.tick_all();
  h.net.tick_all();
  EXPECT_EQ(h.client->issued(), 1u);  // nothing new until the reply arrives
  // Step the request to the replica: the reply is queued but undelivered,
  // so still exactly one request is outstanding.
  ASSERT_TRUE(h.net.step());
  EXPECT_EQ(h.client->issued(), 1u);
  // Delivering the reply chains the next request immediately (true closed
  // loop: no timer tick needed between reply and next request).
  ASSERT_TRUE(h.net.step());
  EXPECT_EQ(h.client->issued(), 2u);
  EXPECT_EQ(h.client->committed(), 1u);
}

TEST(Client, CompletesQuotaThenStops) {
  ClientHarness h(/*total=*/5);
  h.start_client();
  for (int i = 0; i < 50 && !h.client->done(); ++i) {
    h.net.run();
    h.net.tick_all();
  }
  EXPECT_TRUE(h.client->done());
  EXPECT_EQ(h.client->committed(), 5u);
  EXPECT_EQ(h.client->issued(), 5u);
  EXPECT_EQ(h.client->latency().count(), 5u);
}

TEST(Client, RetargetsWithSuspectFlagOnTimeout) {
  ClientHarness h;
  h.replicas[0]->mute = true;  // leader swallows requests
  h.start_client();
  EXPECT_EQ(h.replicas[0]->requests, 0);
  h.net.run();
  EXPECT_EQ(h.replicas[0]->requests, 1);
  // Before the timeout: no retry.
  h.net.tick_all();
  h.net.run();
  EXPECT_EQ(h.replicas[1]->requests, 0);
  // After the timeout: resend to the next replica with the suspect flag
  // (later chained requests are ordinary, so check the FIRST one).
  h.net.advance(2 * kMillisecond);
  h.net.run();
  EXPECT_GE(h.replicas[1]->requests, 1);
  EXPECT_EQ(h.replicas[1]->first_flags, kFlagLeaderSuspect);
  EXPECT_EQ(h.client->retries(), 1u);
}

TEST(Client, FollowsLeaderHintFromReply) {
  ClientHarness h(/*total=*/3);
  h.replicas[0]->mute = true;
  h.start_client();
  h.net.advance(2 * kMillisecond);  // timeout -> replica 1 answers
  h.net.run();
  h.net.tick_all();
  h.net.run();
  // Subsequent requests go straight to replica 1 (the hint).
  EXPECT_GE(h.replicas[1]->requests, 2);
  EXPECT_EQ(h.client->believed_leader(), 1);
  EXPECT_EQ(h.client->retries(), 1u);
}

TEST(Client, ThinkTimeDelaysNextRequest) {
  ClientHarness h(/*total=*/3, /*think=*/2 * kMillisecond);
  h.start_client();
  h.net.run();        // reply to request 1
  h.net.tick_all();   // no think time elapsed yet
  EXPECT_EQ(h.client->issued(), 1u);
  h.net.advance(3 * kMillisecond);
  EXPECT_EQ(h.client->issued(), 2u);
}

TEST(Client, LocalReadHookShortCircuits) {
  int local_calls = 0;
  ClientHarness h(/*total=*/10, 0, /*reads=*/1.0,
                  [&](const Command& cmd, std::uint64_t* out) {
                    local_calls++;
                    EXPECT_EQ(cmd.op, Op::kRead);
                    *out = 42;
                    return true;
                  });
  h.start_client();
  for (int i = 0; i < 30 && !h.client->done(); ++i) {
    h.net.run();
    h.net.tick_all();
  }
  EXPECT_TRUE(h.client->done());
  EXPECT_EQ(h.client->local_reads(), 10u);
  EXPECT_EQ(local_calls, 10);
  EXPECT_EQ(h.replicas[0]->requests, 0);  // nothing touched the network
}

TEST(Client, LocalReadFallsBackWhenLocked) {
  ClientHarness h(/*total=*/4, 0, /*reads=*/1.0,
                  [](const Command&, std::uint64_t*) { return false; });  // always locked
  h.start_client();
  for (int i = 0; i < 30 && !h.client->done(); ++i) {
    h.net.run();
    h.net.tick_all();
  }
  EXPECT_TRUE(h.client->done());
  EXPECT_EQ(h.client->local_reads(), 0u);
  EXPECT_GE(h.replicas[0]->requests, 4);  // all went through the protocol
}

TEST(Client, StopHaltsIssuing) {
  ClientHarness h(/*total=*/0);  // unbounded
  h.start_client();
  h.net.run();
  h.net.tick_all();
  const auto before = h.client->issued();
  Message stop(MsgType::kStop, ProtoId::kControl, -1, 3);
  h.net.inject(stop);
  h.net.run();
  h.net.advance(5 * kMillisecond);
  h.net.run();
  EXPECT_EQ(h.client->issued(), before);
}

TEST(Client, StaleRepliesIgnored) {
  ClientHarness h(/*total=*/3);
  h.start_client();
  // Forge a reply for a sequence number the client is not waiting on.
  Message stale(MsgType::kClientReply, ProtoId::kClient, 0, 3);
  stale.u.client_reply.seq = 999;
  h.net.inject(stale);
  h.net.step();
  EXPECT_EQ(h.client->committed(), 0u);
  EXPECT_EQ(h.client->retries(), 0u);
}

// The same three rules driven through submit(): the engine alone, hosted on
// node 3, with no closed loop around it.
struct SubmitHarness {
  SubmitHarness() {
    for (int r = 0; r < 3; ++r) {
      replicas.push_back(std::make_unique<EchoReplica>());
      net.add(replicas.back().get());
    }
    AsyncClientConfig cfg;
    cfg.base.self = 3;
    cfg.base.num_replicas = 3;
    cfg.initial_target = 0;
    cfg.request_timeout = 1 * kMillisecond;
    engine = std::make_unique<AsyncClientEngine>(cfg);
    net.add(engine.get());
    net.start_all();
  }

  FakeNet net;
  std::vector<std::unique_ptr<EchoReplica>> replicas;
  std::unique_ptr<AsyncClientEngine> engine;
};

TEST(Client, SubmitRetargetsWithSuspectFlagOnTimeout) {
  SubmitHarness h;
  h.replicas[0]->mute = true;
  SubmitHandle a = h.engine->submit(Op::kWrite, 1, 1);
  SubmitHandle b = h.engine->submit(Op::kWrite, 2, 2);
  h.net.tick_all();  // launches both to replica 0
  h.net.run();
  EXPECT_EQ(h.replicas[0]->requests, 2);
  h.net.tick_all();  // before the timeout: no retry
  h.net.run();
  EXPECT_EQ(h.replicas[1]->requests, 0);
  EXPECT_EQ(h.engine->retries(), 0u);
  // Both commands are overdue in the same tick: each is resent to replica 1
  // with the suspect flag, but the target rotates once and that counts as
  // one retry.
  h.net.advance(2 * kMillisecond);
  h.net.run();
  EXPECT_EQ(h.replicas[1]->requests, 2);
  EXPECT_EQ(h.replicas[1]->first_flags, kFlagLeaderSuspect);
  EXPECT_EQ(h.replicas[1]->last_flags, kFlagLeaderSuspect);
  EXPECT_TRUE(a.done());
  EXPECT_TRUE(b.done());
  EXPECT_EQ(h.engine->retries(), 1u);
  // Nothing is left overdue, so later ticks neither resend nor count.
  h.net.advance(2 * kMillisecond);
  h.net.run();
  EXPECT_EQ(h.replicas[1]->requests, 2);
  EXPECT_EQ(h.engine->retries(), 1u);
}

TEST(Client, SubmitFollowsLeaderHintFromReply) {
  SubmitHarness h;
  h.replicas[0]->mute = true;
  SubmitHandle a = h.engine->submit(Op::kWrite, 1, 1);
  h.net.tick_all();
  h.net.advance(2 * kMillisecond);  // timeout -> replica 1 answers
  h.net.run();
  ASSERT_TRUE(a.done());
  EXPECT_EQ(h.engine->believed_leader(), 1);
  // The next command goes straight to replica 1 (the hint), unflagged.
  SubmitHandle b = h.engine->submit(Op::kWrite, 2, 2);
  h.net.tick_all();
  h.net.run();
  EXPECT_TRUE(b.done());
  EXPECT_EQ(h.replicas[1]->requests, 2);
  EXPECT_EQ(h.replicas[1]->last_flags, 0);
  EXPECT_EQ(h.engine->retries(), 1u);
}

TEST(Client, SubmitStaleRepliesIgnored) {
  SubmitHarness h;
  SubmitHandle a = h.engine->submit(Op::kWrite, 1, 1);
  // A reply for a seq nothing awaits completes nothing and moves no target.
  Message stale(MsgType::kClientReply, ProtoId::kClient, 2, 3);
  stale.u.client_reply.seq = 999;
  stale.u.client_reply.leader_hint = 2;
  EXPECT_FALSE(h.engine->on_reply(h.net.ctx(3), stale));
  h.net.inject(stale);
  h.net.step();
  EXPECT_FALSE(a.done());
  EXPECT_EQ(h.engine->believed_leader(), 0);
  EXPECT_EQ(h.engine->retries(), 0u);
  h.net.tick_all();
  h.net.run();
  EXPECT_TRUE(a.done());
  EXPECT_EQ(h.replicas[0]->requests, 1);
}

// A session ships what it has queued when its node launches: plain submits
// share kClientCmdBatch frames of up to kMaxClientBatchCommands, a chunk of
// one goes as a kClientRequest, a submit_run() run keeps its frames to
// itself, and retries go one kClientRequest each.
TEST(Client, QueuedSubmitsShareFrames) {
  constexpr std::int32_t kCap = consensus::kMaxClientBatchCommands;
  for (const std::int32_t k : {1, 2, 8, 9, 17}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    SubmitHarness h;
    std::vector<SubmitHandle> handles;
    for (std::int32_t i = 0; i < k; ++i) handles.push_back(h.engine->submit(Op::kWrite, i, i));
    h.net.tick_all();
    h.net.run();
    const auto& frames = h.replicas[0]->frames;
    ASSERT_EQ(static_cast<std::int32_t>(frames.size()), (k + kCap - 1) / kCap);
    std::uint32_t seq = 0;
    for (std::size_t f = 0; f < frames.size(); ++f) {
      const std::int32_t want = std::min(kCap, k - static_cast<std::int32_t>(f) * kCap);
      ASSERT_EQ(static_cast<std::int32_t>(frames[f].seqs.size()), want);
      EXPECT_EQ(frames[f].type,
                want == 1 ? MsgType::kClientRequest : MsgType::kClientCmdBatch);
      EXPECT_EQ(frames[f].flags, 0);
      for (const std::uint32_t s : frames[f].seqs) EXPECT_EQ(s, ++seq);  // FIFO
    }
    for (const SubmitHandle& handle : handles) EXPECT_TRUE(handle.done());
  }

  // A run between plain submits keeps a frame of its own, and two
  // back-to-back runs never merge: five frames.
  {
    SubmitHarness h;
    h.engine->submit(Op::kWrite, 1, 1);
    h.engine->submit(Op::kWrite, 2, 2);
    h.engine->submit_run(std::vector<Command>(3));
    h.engine->submit(Op::kWrite, 3, 3);
    h.engine->submit(Op::kWrite, 4, 4);
    h.engine->submit_run(std::vector<Command>(2));
    h.engine->submit_run(std::vector<Command>(2));
    h.net.tick_all();
    h.net.run();
    const auto& frames = h.replicas[0]->frames;
    ASSERT_EQ(frames.size(), 5u);
    const std::vector<std::vector<std::uint32_t>> want = {
        {1, 2}, {3, 4, 5}, {6, 7}, {8, 9}, {10, 11}};
    for (std::size_t f = 0; f < frames.size(); ++f) {
      EXPECT_EQ(frames[f].type, MsgType::kClientCmdBatch);
      EXPECT_EQ(frames[f].seqs, want[f]);
    }
  }

  // Overdue commands leave the shared frame: each is re-sent to the next
  // replica as its own kClientRequest with the suspect flag.
  {
    SubmitHarness h;
    h.replicas[0]->mute = true;
    std::vector<SubmitHandle> handles;
    for (int i = 0; i < 3; ++i) handles.push_back(h.engine->submit(Op::kWrite, i, i));
    h.net.tick_all();
    h.net.run();
    ASSERT_EQ(h.replicas[0]->frames.size(), 1u);
    EXPECT_EQ(h.replicas[0]->frames[0].type, MsgType::kClientCmdBatch);
    h.net.advance(2 * kMillisecond);
    h.net.run();
    const auto& frames = h.replicas[1]->frames;
    ASSERT_EQ(frames.size(), 3u);
    for (std::size_t f = 0; f < frames.size(); ++f) {
      EXPECT_EQ(frames[f].type, MsgType::kClientRequest);
      EXPECT_EQ(frames[f].flags, kFlagLeaderSuspect);
      EXPECT_EQ(frames[f].seqs, std::vector<std::uint32_t>{static_cast<std::uint32_t>(f + 1)});
    }
    for (const SubmitHandle& handle : handles) EXPECT_TRUE(handle.done());
    EXPECT_EQ(h.engine->retries(), 1u);
  }
}

}  // namespace
}  // namespace ci::client
