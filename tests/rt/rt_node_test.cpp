// RtNode unit tests: self-send deferral (engine non-reentrancy), backlog
// flushing under a full queue, wire round-trips, and the slow-factor hook.
#include "rt/rt_node.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "rt/wire.hpp"

namespace ci::rt {
namespace {

using consensus::Command;
using consensus::Context;
using consensus::Engine;
using consensus::Message;
using consensus::MsgType;
using consensus::ProtoId;

TEST(Wire, EncodeDecodeRoundTrip) {
  Message m(MsgType::kOpxLearn, ProtoId::kOnePaxos, 1, 2);
  m.u.opx_learn.instance = 7;
  m.u.opx_learn.value.client = 3;
  m.u.opx_learn.value.seq = 9;
  unsigned char buf[kWireBufBytes];
  const std::uint32_t n = wire::encode(m, buf);
  EXPECT_EQ(n, consensus::wire_size(m));
  Message out;
  ASSERT_TRUE(wire::try_decode(buf, n, &out));
  EXPECT_EQ(out.type, MsgType::kOpxLearn);
  EXPECT_EQ(out.u.opx_learn.instance, 7);
  EXPECT_EQ(out.u.opx_learn.value.seq, 9u);
}

TEST(Wire, DecodeRejectsGarbageType) {
  unsigned char buf[kWireBufBytes] = {};
  buf[0] = 0xEE;  // bogus MsgType
  Message out;
  EXPECT_FALSE(wire::try_decode(buf, sizeof(consensus::Message), &out));
}

// Engine that echoes pings back to the sender and counts self-sends.
class PingEcho final : public Engine {
 public:
  void on_message(Context& ctx, const Message& m) override {
    if (m.type == MsgType::kPing) {
      received.fetch_add(1, std::memory_order_relaxed);
      Message pong(MsgType::kPong, ProtoId::kControl, ctx.self(), m.src);
      ctx.send(m.src, pong);
    } else if (m.type == MsgType::kPong) {
      pongs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::atomic<int> received{0};
  std::atomic<int> pongs{0};
};

// Engine that fires a burst of pings from its tick exactly once.
class BurstPinger final : public Engine {
 public:
  BurstPinger(consensus::NodeId dst, int count) : dst_(dst), count_(count) {}
  void on_message(Context&, const Message& m) override {
    if (m.type == MsgType::kPong) pongs.fetch_add(1, std::memory_order_relaxed);
  }
  void tick(Context& ctx) override {
    if (fired_) return;
    fired_ = true;
    for (int i = 0; i < count_; ++i) {
      Message ping(MsgType::kPing, ProtoId::kControl, ctx.self(), dst_);
      ctx.send(dst_, ping);
    }
  }
  std::atomic<int> pongs{0};

 private:
  consensus::NodeId dst_;
  int count_;
  bool fired_ = false;
};

TEST(RtNode, BurstLargerThanQueueIsBacklogFlushed) {
  // 100 messages burst into a 7-slot queue: the overflow must drain through
  // the pending backlog without loss or reorder.
  qclt::Network net;
  BurstPinger pinger(1, 100);
  PingEcho echo;
  RtNode n0(0, 2, &pinger, &net, -1);
  RtNode n1(1, 2, &echo, &net, -1);
  n0.start();
  n1.start();
  const Nanos deadline = now_nanos() + 10 * kSecond;
  while (pinger.pongs.load() < 100 && now_nanos() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  n0.request_stop();
  n1.request_stop();
  n0.join();
  n1.join();
  EXPECT_EQ(echo.received.load(), 100);
  EXPECT_EQ(pinger.pongs.load(), 100);
  EXPECT_EQ(n0.messages_sent(), 100u);
  EXPECT_EQ(n1.messages_sent(), 100u);
}

// Engine that self-sends from within a handler; delivery must be deferred
// (not reentrant) and still happen.
class SelfSender final : public Engine {
 public:
  void on_message(Context& ctx, const Message& m) override {
    if (m.type == MsgType::kPing) {
      in_handler = true;
      Message self(MsgType::kPong, ProtoId::kControl, ctx.self(), ctx.self());
      ctx.send(ctx.self(), self);
      // If delivery were reentrant, self_handled would already be true.
      reentered = self_handled.load();
      in_handler = false;
    } else if (m.type == MsgType::kPong) {
      EXPECT_FALSE(in_handler);
      self_handled.store(true);
    }
  }
  bool in_handler = false;
  bool reentered = false;
  std::atomic<bool> self_handled{false};
};

TEST(RtNode, SelfSendIsDeferredNotReentrant) {
  qclt::Network net;
  BurstPinger pinger(1, 1);
  SelfSender node;
  RtNode n0(0, 2, &pinger, &net, -1);
  RtNode n1(1, 2, &node, &net, -1);
  n0.start();
  n1.start();
  const Nanos deadline = now_nanos() + 10 * kSecond;
  while (!node.self_handled.load() && now_nanos() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  n0.request_stop();
  n1.request_stop();
  n0.join();
  n1.join();
  EXPECT_TRUE(node.self_handled.load());
  EXPECT_FALSE(node.reentered);
  // Self-sends are not boundary crossings.
  EXPECT_EQ(n1.messages_sent(), 0u);
}

TEST(RtNode, SlowFactorReducesThroughput) {
  qclt::Network net;
  BurstPinger pinger(1, 2000);
  PingEcho echo;
  RtNode n0(0, 2, &pinger, &net, -1);
  RtNode n1(1, 2, &echo, &net, -1);
  n1.set_slow_factor(200);  // ~100 us per processed message
  n0.start();
  n1.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const int slow_count = echo.received.load();
  n1.set_slow_factor(1);
  const Nanos deadline = now_nanos() + 10 * kSecond;
  while (pinger.pongs.load() < 2000 && now_nanos() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  n0.request_stop();
  n1.request_stop();
  n0.join();
  n1.join();
  // At ~100us each, the slow phase can process at most ~1500 in 150ms;
  // expect well under the full burst, then completion after healing.
  EXPECT_LT(slow_count, 1900);
  EXPECT_EQ(pinger.pongs.load(), 2000);
}

}  // namespace
}  // namespace ci::rt
