// Bytes arriving on a socket are input from outside the process: a peer
// that sends a frame which does not decode, or a registry whose map names
// a node id outside the mesh, must cost at most that link or that fetch
// attempt — never the process. Each case plays the hostile side by hand
// over real loopback sockets.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "net/framing.hpp"
#include "net/net_node.hpp"
#include "net/registry.hpp"
#include "net/socket.hpp"

namespace ci::net {
namespace {

using consensus::MsgType;
using consensus::ProtoId;

constexpr Nanos kBudget = 10 * kSecond;

// Counts what reaches the engine, and that the node loop keeps ticking.
class CountingEngine final : public Engine {
 public:
  void on_message(consensus::Context&, const Message& m) override {
    if (m.type == MsgType::kPing) pings.fetch_add(1, std::memory_order_relaxed);
  }
  void tick(consensus::Context&) override { ticks.fetch_add(1, std::memory_order_relaxed); }

  std::atomic<int> pings{0};
  std::atomic<std::uint64_t> ticks{0};
};

template <typename Pred>
bool wait_for(Pred done, Nanos budget = kBudget) {
  const Nanos deadline = now_nanos() + budget;
  while (!done()) {
    if (now_nanos() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// One length-prefixed frame carrying `len` bytes of `payload`.
std::vector<unsigned char> framed(const unsigned char* payload, std::uint32_t len) {
  std::vector<unsigned char> out(kLenPrefixBytes + len);
  put_len_prefix(out.data(), len);
  std::memcpy(out.data() + kLenPrefixBytes, payload, len);
  return out;
}

std::vector<unsigned char> ping_frame(NodeId src, NodeId dst) {
  const Message m(MsgType::kPing, ProtoId::kControl, src, dst);
  unsigned char buf[wire::kMaxFrameBytes];
  const std::uint32_t n = wire::encode(m, buf);
  return framed(buf, n);
}

bool send_bytes(const Socket& s, const std::vector<unsigned char>& bytes) {
  return write_full(s.fd(), bytes.data(), bytes.size(), now_nanos() + kBudget, nullptr);
}

TEST(HostilePeer, MalformedFrameDropsTheLinkNotTheProcess) {
  Registry registry(Endpoint{"127.0.0.1", 0}, 2);
  ASSERT_TRUE(registry.ok());
  MeshConfig mesh;
  mesh.registry = registry.endpoint();
  mesh.total_nodes = 2;
  CountingEngine engine;
  NetNode node(0, &engine, mesh, nullptr);
  node.start();

  // The fake peer is node 1: it listens, registers, and dials node 0 (the
  // mesh dials low ids) with a well-formed MeshHello.
  std::uint16_t port = 0;
  Socket listener = tcp_listen(Endpoint{"127.0.0.1", 0}, &port, 4);
  ASSERT_TRUE(listener.valid());
  std::vector<Endpoint> map;
  ASSERT_TRUE(fetch_map(registry.endpoint(), 1, port, now_nanos() + kBudget, nullptr, &map));
  Socket peer = tcp_dial(map[0], now_nanos() + kBudget, nullptr);
  ASSERT_TRUE(peer.valid());
  MeshHello hello;
  hello.node = 1;
  ASSERT_TRUE(write_full(peer.fd(), &hello, sizeof(hello), now_nanos() + kBudget, nullptr));
  ASSERT_TRUE(wait_for([&] { return node.ready(); }));

  // A well-formed frame is delivered...
  ASSERT_TRUE(send_bytes(peer, ping_frame(1, 0)));
  ASSERT_TRUE(wait_for([&] { return engine.pings.load() == 1; }));

  // ...then a frame whose length prefix is in bounds but whose bytes do not
  // decode (a bogus message type), followed by another good frame.
  unsigned char garbage[32];
  std::memset(garbage, 0xEE, sizeof(garbage));
  std::vector<unsigned char> bytes = framed(garbage, sizeof(garbage));
  const std::vector<unsigned char> after = ping_frame(1, 0);
  bytes.insert(bytes.end(), after.begin(), after.end());
  ASSERT_TRUE(send_bytes(peer, bytes));

  // The node keeps running: its loop still ticks well after the garbage.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::uint64_t ticks = engine.ticks.load();
  EXPECT_TRUE(wait_for([&] { return engine.ticks.load() > ticks + 10; }));
  // The link is dead: nothing behind the corrupt frame reaches the engine.
  EXPECT_EQ(engine.pings.load(), 1);

  // And it stops and joins cleanly, closing the link (EOF at the peer).
  node.request_stop();
  node.join();
  unsigned char byte = 0;
  EXPECT_FALSE(read_full(peer.fd(), &byte, 1, now_nanos() + kBudget, nullptr));
}

// Accepts one registration on `listener` and answers it with a one-entry
// map naming node `entry_node` at 127.0.0.1:`port`.
bool serve_one_map(const Socket& listener, std::int32_t entry_node, std::uint16_t port) {
  pollfd pfd{listener.fd(), POLLIN, 0};
  if (::poll(&pfd, 1, static_cast<int>(kBudget / kMillisecond)) != 1) return false;
  Socket conn(::accept(listener.fd(), nullptr, nullptr));
  if (!conn.valid()) return false;
  RegistryHello hello{};
  if (!read_full(conn.fd(), &hello, sizeof(hello), now_nanos() + kBudget, nullptr)) {
    return false;
  }
  MapHeader hdr;
  hdr.count = 1;
  MapEntry entry;
  entry.node = entry_node;
  entry.addr_be = htonl(INADDR_LOOPBACK);
  entry.port = port;
  return write_full(conn.fd(), &hdr, sizeof(hdr), now_nanos() + kBudget, nullptr) &&
         write_full(conn.fd(), &entry, sizeof(entry), now_nanos() + kBudget, nullptr);
}

TEST(HostilePeer, OutOfRangeMapEntryIsRetriedNotFatal) {
  std::uint16_t registry_port = 0;
  Socket listener = tcp_listen(Endpoint{"127.0.0.1", 0}, &registry_port, 4);
  ASSERT_TRUE(listener.valid());
  bool served = false;
  std::thread fake_registry([&] {
    // First answer names node 7 in a one-node map; the retry gets a sane one.
    served = serve_one_map(listener, 7, 4321) && serve_one_map(listener, 0, 4321);
  });

  std::vector<Endpoint> map;
  const bool ok = fetch_map(Endpoint{"127.0.0.1", registry_port}, 0, 4321,
                            now_nanos() + kBudget, nullptr, &map);
  fake_registry.join();
  EXPECT_TRUE(served);
  ASSERT_TRUE(ok);
  ASSERT_EQ(map.size(), 1u);
  EXPECT_EQ(map[0].host, "127.0.0.1");
  EXPECT_EQ(map[0].port, 4321);
}

}  // namespace
}  // namespace ci::net
