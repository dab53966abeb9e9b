// The one client engine's semantics. The closed-loop driver: closed loop,
// think time, re-targeting with the suspect flag, local-read hook, and
// stop/start control. The same retarget, leader-hint and stale-reply rules
// once more through AsyncClientEngine::submit(), with exact retry counts.
#include "client/closed_loop.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "support/fake_net.hpp"

namespace ci::client {
namespace {

using consensus::kFlagLeaderSuspect;
using consensus::ProtoId;

using test::FakeNet;

// A trivial always-commit replica for driving the client.
class EchoReplica final : public Engine {
 public:
  void on_message(Context& ctx, const Message& m) override {
    if (m.type != MsgType::kClientRequest) return;
    requests++;
    if (requests == 1) first_flags = m.flags;
    last_flags = m.flags;
    if (mute) return;
    Message reply(MsgType::kClientReply, ProtoId::kClient, ctx.self(),
                  m.u.client_request.cmd.client);
    reply.u.client_reply.seq = m.u.client_request.cmd.seq;
    reply.u.client_reply.ok = 1;
    reply.u.client_reply.leader_hint = ctx.self();
    ctx.send(m.u.client_request.cmd.client, reply);
  }

  int requests = 0;
  std::uint16_t first_flags = 0;
  std::uint16_t last_flags = 0;
  bool mute = false;
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

}  // namespace
}  // namespace ci::client
