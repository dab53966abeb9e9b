// core::NodeLoop over both threaded transports: the same engines and the
// same assertions on rt::RtNode (SPSC queues) and net::NetNode (loopback
// sockets). Covered: a burst larger than the link drains through the
// backlog in order, self-sends are deferred rather than reentrant, the slow
// factor throttles the node, a flooding peer starves neither a second peer
// nor the tick, and an idle node stops promptly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <type_traits>
#include <thread>
#include <vector>

#include "net/net_node.hpp"
#include "net/registry.hpp"
#include "qclt/net.hpp"
#include "rt/rt_node.hpp"

namespace ci::core {
namespace {

using consensus::Context;
using consensus::Engine;
using consensus::Message;
using consensus::MsgType;
using consensus::NodeId;
using consensus::ProtoId;

// A net send ring this small holds only a handful of ping frames, so a
// burst spills into the loop's backlog as it does into rt's 7-slot queues.
constexpr std::size_t kSmallRingBytes = 256;

// Nodes over one transport, started and stopped together.
template <typename Node>
struct Mesh {
  void start() {
    for (auto& n : nodes) n->start();
  }
  void stop() {
    for (auto& n : nodes) n->request_stop();
    for (auto& n : nodes) n->join();
  }
  Node& operator[](NodeId n) { return *nodes[static_cast<std::size_t>(n)]; }

  std::vector<std::unique_ptr<Node>> nodes;
};

struct RtMesh : Mesh<rt::RtNode> {
  explicit RtMesh(const std::vector<Engine*>& engines) {
    const auto total = static_cast<std::int32_t>(engines.size());
    for (NodeId n = 0; n < total; ++n) {
      nodes.push_back(std::make_unique<rt::RtNode>(n, total, engines[static_cast<std::size_t>(n)],
                                                   &queues, -1));
    }
  }
  ~RtMesh() { stop(); }  // before the queues go

  qclt::Network queues;  // the paper's 7 slots per direction
};

struct NetMesh : Mesh<net::NetNode> {
  explicit NetMesh(const std::vector<Engine*>& engines)
      : registry(net::Endpoint{"127.0.0.1", 0}, static_cast<std::int32_t>(engines.size())) {
    EXPECT_TRUE(registry.ok());
    net::MeshConfig cfg;
    cfg.registry = registry.endpoint();
    cfg.total_nodes = static_cast<std::int32_t>(engines.size());
    cfg.ring_bytes = kSmallRingBytes;
    for (NodeId n = 0; n < cfg.total_nodes; ++n) {
      nodes.push_back(
          std::make_unique<net::NetNode>(n, engines[static_cast<std::size_t>(n)], cfg, nullptr));
    }
  }
  ~NetMesh() { stop(); }  // before the registry goes

  net::Registry registry;
};

template <typename Pred>
bool wait_for(Pred done, Nanos budget = 10 * kSecond) {
  const Nanos deadline = now_nanos() + budget;
  while (!done()) {
    if (now_nanos() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// A ping: a client request whose seq numbers the sender's pings (a kPing
// frame has no payload to carry one).
Message ping(Context& ctx, NodeId dst, std::uint32_t seq) {
  Message m(MsgType::kClientRequest, ProtoId::kClient, ctx.self(), dst);
  m.u.client_request.cmd.seq = seq;
  return m;
}

bool is_ping(const Message& m) { return m.type == MsgType::kClientRequest; }
bool is_pong(const Message& m) { return m.type == MsgType::kClientReply; }

// Echoes every ping back to its sender as a pong (a client reply); counts
// pings per sender and checks each sender's pings arrive in order.
class PingEcho final : public Engine {
 public:
  void on_message(Context& ctx, const Message& m) override {
    if (!is_ping(m)) return;
    auto& from = from_[static_cast<std::size_t>(m.src)];
    const std::uint32_t seq = m.u.client_request.cmd.seq;
    if (seq != from.next_seq) in_order.store(false, std::memory_order_relaxed);
    from.next_seq = seq + 1;
    from.count.fetch_add(1, std::memory_order_relaxed);
    Message pong(MsgType::kClientReply, ProtoId::kClient, ctx.self(), m.src);
    ctx.send(m.src, pong);
  }
  void tick(Context&) override { ticks.fetch_add(1, std::memory_order_relaxed); }

  int received(NodeId src) const {
    return from_[static_cast<std::size_t>(src)].count.load(std::memory_order_relaxed);
  }

  std::atomic<bool> in_order{true};
  std::atomic<std::uint64_t> ticks{0};

 private:
  struct From {
    std::uint32_t next_seq = 0;
    std::atomic<int> count{0};
  };
  From from_[4];
};

// Sends `count` pings to `dst` from its first tick, at most `per_tick` a
// tick; `window` caps the pings not yet answered by a pong.
class Pinger final : public Engine {
 public:
  Pinger(NodeId dst, int count, int per_tick, int window)
      : dst_(dst), count_(count), per_tick_(per_tick), window_(window) {}

  void on_message(Context&, const Message& m) override {
    if (is_pong(m)) pongs.fetch_add(1, std::memory_order_relaxed);
  }
  void tick(Context& ctx) override {
    for (int i = 0; i < per_tick_ && sent_ < count_ && sent_ - pongs.load() < window_; ++i) {
      ctx.send(dst_, ping(ctx, dst_, static_cast<std::uint32_t>(sent_++)));
    }
  }

  std::atomic<int> pongs{0};

 private:
  NodeId dst_;
  int count_;
  int per_tick_;
  int window_;
  int sent_ = 0;
};

constexpr int kUnbounded = 1 << 30;

// Self-sends from within a handler; delivery must be deferred (not
// reentrant) and still happen.
class SelfSender final : public Engine {
 public:
  void on_message(Context& ctx, const Message& m) override {
    if (is_ping(m)) {
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

template <typename M>
class NodeLoopTest : public ::testing::Test {};

struct TransportName {
  template <typename M>
  static std::string GetName(int) {
    return std::is_same_v<M, RtMesh> ? "rt" : "net";
  }
};

using Transports = ::testing::Types<RtMesh, NetMesh>;
TYPED_TEST_SUITE(NodeLoopTest, Transports, TransportName);

TYPED_TEST(NodeLoopTest, BurstLargerThanTheLinkDrainsThroughTheBacklogInOrder) {
  // 100 pings in one tick: far more than the link holds, so the overflow
  // must drain through the backlog without loss or reorder.
  Pinger pinger(1, 100, 100, kUnbounded);
  PingEcho echo;
  TypeParam mesh({&pinger, &echo});
  mesh.start();
  EXPECT_TRUE(wait_for([&] { return pinger.pongs.load() == 100; }));
  mesh.stop();
  EXPECT_EQ(echo.received(0), 100);
  EXPECT_TRUE(echo.in_order.load());
  EXPECT_EQ(pinger.pongs.load(), 100);
  EXPECT_EQ(mesh[0].messages_sent(), 100u);
  EXPECT_EQ(mesh[1].messages_sent(), 100u);
}

TYPED_TEST(NodeLoopTest, SelfSendIsDeferredNotReentrant) {
  Pinger pinger(1, 1, 1, kUnbounded);
  SelfSender node;
  TypeParam mesh({&pinger, &node});
  mesh.start();
  EXPECT_TRUE(wait_for([&] { return node.self_handled.load(); }));
  mesh.stop();
  EXPECT_TRUE(node.self_handled.load());
  EXPECT_FALSE(node.reentered);
  // Self-sends are not boundary crossings.
  EXPECT_EQ(mesh[1].messages_sent(), 0u);
}

TYPED_TEST(NodeLoopTest, SlowFactorThrottlesTheNode) {
  Pinger pinger(1, 2000, 2000, kUnbounded);
  PingEcho echo;
  TypeParam mesh({&pinger, &echo});
  mesh[1].set_slow_factor(200);  // ~100 us per processed message
  mesh.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const int slow_count = echo.received(0);
  mesh[1].set_slow_factor(1);
  EXPECT_TRUE(wait_for([&] { return pinger.pongs.load() == 2000; }));
  mesh.stop();
  // At ~100us each, the slow phase can process at most ~1500 in 150ms;
  // expect well under the full burst, then completion after healing.
  EXPECT_LT(slow_count, 1900);
  EXPECT_EQ(pinger.pongs.load(), 2000);
  EXPECT_TRUE(echo.in_order.load());
}

TYPED_TEST(NodeLoopTest, FloodingPeerStarvesNeitherASecondPeerNorTheTick) {
  // Node 0 keeps 256 pings in flight to node 2 for the whole test, and node
  // 2 is throttled below the flood's rate, so that link never runs dry;
  // node 1 sends one ping a tick. A loop that drained one peer before the
  // next would never reach node 1 or the tick.
  Pinger flooder(2, kUnbounded, 256, 256);
  Pinger steady(2, 100, 1, kUnbounded);
  PingEcho sink;
  TypeParam mesh({&flooder, &steady, &sink});
  mesh[2].set_slow_factor(20);  // ~10 us per processed message
  mesh.start();
  ASSERT_TRUE(wait_for([&] { return flooder.pongs.load() > 1000; }));
  const std::uint64_t ticks = sink.ticks.load();
  EXPECT_TRUE(wait_for([&] { return steady.pongs.load() == 100; }));
  EXPECT_TRUE(wait_for([&] { return sink.ticks.load() > ticks + 100; }));
  const int flood_at_end = flooder.pongs.load();
  EXPECT_TRUE(wait_for([&] { return flooder.pongs.load() > flood_at_end; }))
      << "the flood had stopped; the check proves nothing";
  mesh.stop();
  EXPECT_EQ(sink.received(1), 100);
  EXPECT_TRUE(sink.in_order.load());
}

TYPED_TEST(NodeLoopTest, IdleNodeStopsPromptly) {
  PingEcho a;
  PingEcho b;
  TypeParam mesh({&a, &b});
  mesh.start();
  // Both loops are running (net: the mesh is up) and have nothing to do.
  ASSERT_TRUE(wait_for([&] { return a.ticks.load() > 10 && b.ticks.load() > 10; }));
  const Nanos t0 = now_nanos();
  mesh.stop();
  EXPECT_LT(now_nanos() - t0, 250 * kMillisecond);
}

}  // namespace
}  // namespace ci::core
