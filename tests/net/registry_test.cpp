// Bootstrap registry: the map publishes only once every expected node id
// registered, late hellos are answered immediately from the completed map
// (with re-registration overwriting the node's entry), and fetch_map's
// retry loop survives a registry that starts late or restarts mid-
// bootstrap — the orderings a real launch script produces. The handshake's
// parsers also take a seeded mutation fuzz.
#include <gtest/gtest.h>

#include <arpa/inet.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "net/registry.hpp"

namespace ci::net {
namespace {

constexpr Nanos kDeadlineBudget = 20 * kSecond;

// One node's registration, run to completion on its own thread.
struct Fetcher {
  std::vector<Endpoint> map;
  bool ok = false;
  std::thread thread;

  void start(const Endpoint& registry, consensus::NodeId self, std::uint16_t port) {
    thread = std::thread([this, registry, self, port] {
      ok = fetch_map(registry, self, port, now_nanos() + kDeadlineBudget, nullptr,
                     &map);
    });
  }
  void join() { thread.join(); }
};

TEST(Registry, PublishesTheFullMapOnceEveryNodeRegistered) {
  Registry reg(Endpoint{"127.0.0.1", 0}, 3);
  ASSERT_TRUE(reg.ok());
  ASSERT_NE(reg.endpoint().port, 0);

  Fetcher f[3];
  for (consensus::NodeId i = 0; i < 3; ++i) {
    f[i].start(reg.endpoint(), i, static_cast<std::uint16_t>(10000 + i));
  }
  for (auto& x : f) x.join();

  for (consensus::NodeId i = 0; i < 3; ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    ASSERT_TRUE(f[i].ok);
    ASSERT_EQ(f[i].map.size(), 3u);
    for (consensus::NodeId j = 0; j < 3; ++j) {
      // Loopback registrations resolve to loopback endpoints carrying each
      // node's declared listen port.
      EXPECT_EQ(f[i].map[static_cast<std::size_t>(j)].host, "127.0.0.1");
      EXPECT_EQ(f[i].map[static_cast<std::size_t>(j)].port, 10000 + j);
    }
  }
}

TEST(Registry, DuplicateIdDoesNotPublishEarly) {
  // Two hellos from the SAME id must not satisfy expected=2: the second
  // overwrites, and the map stays unpublished until a distinct id arrives.
  Registry reg(Endpoint{"127.0.0.1", 0}, 2);
  ASSERT_TRUE(reg.ok());

  Fetcher first;
  first.start(reg.endpoint(), 0, 11000);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Re-register node 0 on a fresh port while the first is parked. This
  // cannot publish; both parked connections wait for node 1.
  Fetcher second;
  second.start(reg.endpoint(), 0, 11001);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  Fetcher third;
  third.start(reg.endpoint(), 1, 11002);
  first.join();
  second.join();
  third.join();

  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  ASSERT_TRUE(third.ok);
  // Everyone got the map, and node 0's entry is the LAST registration.
  for (const Fetcher* x : {&first, &second, &third}) {
    ASSERT_EQ(x->map.size(), 2u);
    EXPECT_EQ(x->map[0].port, 11001);
    EXPECT_EQ(x->map[1].port, 11002);
  }
}

TEST(Registry, LateHelloIsAnsweredImmediatelyAndOverwrites) {
  Registry reg(Endpoint{"127.0.0.1", 0}, 2);
  ASSERT_TRUE(reg.ok());

  Fetcher f[2];
  f[0].start(reg.endpoint(), 0, 12000);
  f[1].start(reg.endpoint(), 1, 12001);
  f[0].join();
  f[1].join();
  ASSERT_TRUE(f[0].ok && f[1].ok);

  // A restarted node 0 re-registers on a fresh port AFTER publication: it
  // must be answered from the completed map without waiting, and its new
  // endpoint replaces the stale one for this and every future fetch.
  std::vector<Endpoint> late;
  ASSERT_TRUE(fetch_map(reg.endpoint(), 0, 12042, now_nanos() + kDeadlineBudget,
                        nullptr, &late));
  ASSERT_EQ(late.size(), 2u);
  EXPECT_EQ(late[0].port, 12042);
  EXPECT_EQ(late[1].port, 12001);

  std::vector<Endpoint> refetch;
  ASSERT_TRUE(fetch_map(reg.endpoint(), 1, 12001, now_nanos() + kDeadlineBudget,
                        nullptr, &refetch));
  ASSERT_EQ(refetch.size(), 2u);
  EXPECT_EQ(refetch[0].port, 12042);
}

TEST(Registry, FetchSurvivesARegistryRestartMidBootstrap) {
  // Node 0 registers with registry A and parks; A dies before publication
  // (its parked connections close). fetch_map's retry loop must redo the
  // whole connect+hello exchange against the replacement registry B on the
  // same endpoint and still come back with the full map.
  Endpoint at;
  Fetcher f0;
  {
    Registry a(Endpoint{"127.0.0.1", 0}, 2);
    ASSERT_TRUE(a.ok());
    at = a.endpoint();
    f0.start(at, 0, 13000);
    // Let node 0's hello land and park before the registry dies.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }  // A's destructor stops the serve loop and drops the parked connection.

  // tcp_listen sets SO_REUSEADDR, so B can rebind A's port right away.
  Registry b(at, 2);
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(b.endpoint().port, at.port);

  Fetcher f1;
  f1.start(at, 1, 13001);
  f0.join();
  f1.join();

  ASSERT_TRUE(f0.ok);
  ASSERT_TRUE(f1.ok);
  for (const Fetcher* x : {&f0, &f1}) {
    ASSERT_EQ(x->map.size(), 2u);
    EXPECT_EQ(x->map[0].port, 13000);
    EXPECT_EQ(x->map[1].port, 13001);
  }
}

TEST(Registry, CancelAbortsAParkedFetch) {
  Registry reg(Endpoint{"127.0.0.1", 0}, 2);  // never completes: only 1 registers
  ASSERT_TRUE(reg.ok());

  std::atomic<bool> cancel{false};
  std::vector<Endpoint> map;
  std::thread t([&] {
    EXPECT_FALSE(fetch_map(reg.endpoint(), 0, 14000, now_nanos() + kDeadlineBudget,
                           &cancel, &map));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  cancel.store(true);
  t.join();  // must return promptly instead of burning the whole deadline
}

template <typename T>
void append(std::vector<unsigned char>* out, const T& v) {
  const auto* p = reinterpret_cast<const unsigned char*>(&v);
  out->insert(out->end(), p, p + sizeof(T));
}

template <typename T>
T load(const std::vector<unsigned char>& bytes, std::size_t at) {
  T v;
  std::memcpy(&v, bytes.data() + at, sizeof(T));
  return v;
}

// What a map message's bytes mean, read in one piece: the endpoints when
// the header is sound, exactly `count` entries follow, and they name every
// node id in [0, count) once; nothing otherwise.
bool map_whole(const std::vector<unsigned char>& bytes, std::vector<Endpoint>* out) {
  if (bytes.size() < sizeof(MapHeader)) return false;
  const auto hdr = load<MapHeader>(bytes, 0);
  if (hdr.magic != kRegistryMapMagic || hdr.count == 0 || hdr.count > kMaxMapEntries) return false;
  if (bytes.size() != sizeof(MapHeader) + hdr.count * sizeof(MapEntry)) return false;
  std::vector<Endpoint> map(hdr.count);
  std::vector<int> named(hdr.count, 0);
  for (std::uint32_t i = 0; i < hdr.count; ++i) {
    const auto e = load<MapEntry>(bytes, sizeof(MapHeader) + i * sizeof(MapEntry));
    if (e.node < 0 || e.node >= static_cast<std::int32_t>(hdr.count)) return false;
    if (named[static_cast<std::size_t>(e.node)]++ != 0) return false;
    in_addr addr{};
    addr.s_addr = e.addr_be;
    map[static_cast<std::size_t>(e.node)] = Endpoint{inet_ntoa(addr), e.port};
  }
  *out = map;
  return true;
}

// The map as fetch_map reads it: the header's bytes, then as many entry
// bytes as the header announces (a short stream is a failed read).
bool map_as_fetched(const std::vector<unsigned char>& bytes, std::vector<Endpoint>* out) {
  std::uint32_t count = 0;
  if (bytes.size() < sizeof(MapHeader) ||
      !parse_map_header(bytes.data(), sizeof(MapHeader), &count)) {
    return false;
  }
  const std::size_t want = count * sizeof(MapEntry);
  if (bytes.size() - sizeof(MapHeader) < want) return false;
  return parse_map_entries(bytes.data() + sizeof(MapHeader), want, count, out);
}

TEST(RegistryParse, MutatedHandshakesParseToTheirMeaningOrFail) {
  // Valid hellos and maps (random sizes, shuffled entry order, random
  // addresses), then mutated: the count or one entry's node id set to an
  // edge or random value, random byte flips, or the message cut short or
  // extended. A parser must accept exactly the bytes that are a message
  // and hand over what they say: a map accepted names one endpoint per
  // node id, each from its own entry.
  Rng rng(0x5E61);
  int maps_kept = 0, hellos_kept = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    // The map.
    const auto count = static_cast<std::uint32_t>(1 + rng.next_below(12));
    std::vector<std::int32_t> order(count);
    for (std::uint32_t i = 0; i < count; ++i) order[i] = static_cast<std::int32_t>(i);
    for (std::uint32_t i = count; i > 1; --i) std::swap(order[i - 1], order[rng.next_below(i)]);
    std::vector<unsigned char> bytes;
    MapHeader hdr;
    hdr.count = count;
    append(&bytes, hdr);
    std::vector<Endpoint> sent(count);
    for (std::int32_t node : order) {
      MapEntry e;
      e.node = node;
      e.addr_be = htonl(0x7F000000u | static_cast<std::uint32_t>(rng.next_below(1u << 24)));
      e.port = static_cast<std::uint16_t>(rng.next_below(65536));
      append(&bytes, e);
      in_addr addr{};
      addr.s_addr = e.addr_be;
      sent[static_cast<std::size_t>(node)] = Endpoint{inet_ntoa(addr), e.port};
    }
    const int mutation = static_cast<int>(rng.next_below(5));  // 0: none
    if (mutation == 1) {
      const std::uint32_t edges[] = {0,
                                     1,
                                     count - 1,
                                     count + 1,
                                     kMaxMapEntries,
                                     kMaxMapEntries + 1,
                                     static_cast<std::uint32_t>(rng.next_u64())};
      hdr.count = edges[rng.next_below(7)];
      std::memcpy(bytes.data(), &hdr, sizeof(hdr));
    } else if (mutation == 2) {
      const std::int32_t edges[] = {-1, 0, static_cast<std::int32_t>(count) - 1,
                                    static_cast<std::int32_t>(count),
                                    static_cast<std::int32_t>(rng.next_u64())};
      const std::size_t at = sizeof(MapHeader) + rng.next_below(count) * sizeof(MapEntry);
      const std::int32_t node = edges[rng.next_below(5)];
      std::memcpy(bytes.data() + at + offsetof(MapEntry, node), &node, sizeof(node));
    } else if (mutation == 3) {
      const int flips = 1 + static_cast<int>(rng.next_below(4));
      for (int k = 0; k < flips; ++k) {
        bytes[rng.next_below(bytes.size())] ^= static_cast<unsigned char>(1 + rng.next_below(255));
      }
    } else if (mutation == 4) {
      bytes.resize(rng.next_below(bytes.size() + 2 * sizeof(MapEntry)), 0xAB);
    }
    std::vector<Endpoint> want;
    const bool want_ok = map_whole(bytes, &want);
    if (mutation == 0) {
      ASSERT_TRUE(want_ok);
      ASSERT_EQ(want, sent);
    }
    // fetch_map reads the header, then as many entry bytes as it
    // announces: bytes past those are never read, and fewer fail the read.
    std::vector<unsigned char> read = bytes;
    if (bytes.size() >= sizeof(MapHeader)) {
      const std::size_t announced =
          sizeof(MapHeader) + std::size_t{load<MapHeader>(bytes, 0).count} * sizeof(MapEntry);
      read.resize(std::min(bytes.size(), announced));
    }
    std::vector<Endpoint> read_want;
    const bool read_ok = map_whole(read, &read_want);
    std::vector<Endpoint> got = {Endpoint{"untouched", 1}};
    const bool got_ok = map_as_fetched(bytes, &got);
    ASSERT_EQ(got_ok, read_ok) << "iteration " << iter;
    if (got_ok) {
      ASSERT_EQ(got, read_want) << "iteration " << iter;
    } else {
      ASSERT_EQ(got.size(), 1u) << "a rejected map overwrote the output";
    }
    maps_kept += got_ok ? 1 : 0;

    // The hello.
    RegistryHello hello;
    hello.node = static_cast<std::int32_t>(rng.next_below(64));
    hello.listen_port = static_cast<std::uint16_t>(rng.next_below(65536));
    std::vector<unsigned char> hb;
    append(&hb, hello);
    const int hmut = static_cast<int>(rng.next_below(4));
    if (hmut == 1) {
      const std::int32_t edges[] = {-1, 0, INT32_MAX, static_cast<std::int32_t>(rng.next_u64())};
      const std::int32_t node = edges[rng.next_below(4)];
      std::memcpy(hb.data() + offsetof(RegistryHello, node), &node, sizeof(node));
    } else if (hmut == 2) {
      hb[rng.next_below(hb.size())] ^= static_cast<unsigned char>(1 + rng.next_below(255));
    } else if (hmut == 3) {
      hb.resize(rng.next_below(2 * sizeof(RegistryHello)), 0);
    }
    RegistryHello parsed;
    const bool hello_ok = parse_hello(hb.data(), hb.size(), &parsed);
    const bool hello_want = hb.size() == sizeof(RegistryHello) &&
                            load<RegistryHello>(hb, 0).magic == kRegistryHelloMagic &&
                            load<RegistryHello>(hb, 0).node >= 0;
    ASSERT_EQ(hello_ok, hello_want) << "iteration " << iter;
    if (hello_ok) {
      EXPECT_EQ(parsed.node, load<RegistryHello>(hb, 0).node);
      EXPECT_EQ(parsed.listen_port, load<RegistryHello>(hb, 0).listen_port);
    }
    hellos_kept += hello_ok ? 1 : 0;
  }
  // Both outcomes were exercised for each parser.
  EXPECT_GT(maps_kept, 800);
  EXPECT_LT(maps_kept, 3200);
  EXPECT_GT(hellos_kept, 1000);
  EXPECT_LT(hellos_kept, 3600);
}

}  // namespace
}  // namespace ci::net
