// The bootstrap registry: one listener that hands out the node -> endpoint
// map (DFI's RegistryServer idea, sized down to this repo's needs).
//
// Protocol, all little-endian packed structs over one short-lived TCP
// connection per registration:
//
//   node -> registry   RegistryHello { magic "CIR1", node id, listen port }
//   registry -> node   MapHeader { magic "CIM1", count }, count x MapEntry
//
// The registry learns each node's ADDRESS from the connection itself
// (getpeername), so nodes only declare their listen port — no node needs to
// know its own externally-visible name. Once every expected node has
// registered, the map is broadcast to all connections parked waiting; any
// LATER hello (a late dialer, a restarted node re-registering) is answered
// immediately from the completed map. Re-registration overwrites the
// node's entry, so a node that crashed and rebound to a fresh port can
// rejoin future fetches.
//
// Nodes listen BEFORE they register. That ordering is the bootstrap's one
// load-bearing invariant: by the time anyone holds the map, every endpoint
// in it has a live listener behind it, so mesh dialing needs only bounded
// retry (kernel accept-queue pressure), not discovery.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/time.hpp"
#include "consensus/types.hpp"
#include "net/endpoint.hpp"
#include "net/socket.hpp"

namespace ci::net {

inline constexpr std::uint32_t kRegistryHelloMagic = 0x31524943;  // "CIR1"
inline constexpr std::uint32_t kRegistryMapMagic = 0x314D4943;    // "CIM1"
inline constexpr std::uint32_t kMeshHelloMagic = 0x31584943;      // "CIX1"

#pragma pack(push, 1)
struct RegistryHello {
  std::uint32_t magic = kRegistryHelloMagic;
  std::int32_t node = 0;
  std::uint16_t listen_port = 0;
  std::uint16_t pad = 0;
};

struct MapHeader {
  std::uint32_t magic = kRegistryMapMagic;
  std::uint32_t count = 0;
};

struct MapEntry {
  std::int32_t node = 0;
  std::uint32_t addr_be = 0;  // IPv4, network byte order (as getpeername saw it)
  std::uint16_t port = 0;     // host byte order (the node's declared listen port)
  std::uint16_t pad = 0;
};

// First bytes on every mesh link, so the acceptor learns which peer dialed.
struct MeshHello {
  std::uint32_t magic = kMeshHelloMagic;
  std::int32_t node = 0;
};
#pragma pack(pop)

class Registry {
 public:
  // Binds `at` (port 0 = ephemeral) and serves until stop()/destruction.
  // The map publishes once `expected_nodes` DISTINCT node ids registered.
  Registry(const Endpoint& at, std::int32_t expected_nodes);
  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // The actually-bound endpoint nodes should dial. Invalid (port 0) only
  // if binding failed — callers CI_CHECK ok().
  bool ok() const { return listener_.valid(); }
  Endpoint endpoint() const { return bound_; }

  void stop();

 private:
  void serve();
  bool handle_connection(Socket conn);
  static bool send_map(int fd, const std::vector<MapEntry>& entries);

  std::int32_t expected_;
  Endpoint bound_;
  Socket listener_;
  std::thread thread_;
  std::atomic<bool> stop_{false};

  // Registration state, owned exclusively by the serve thread.
  std::vector<MapEntry> entries_;  // one per registered node id
  std::vector<Socket> waiting_;    // conns parked until the map completes
  bool published_ = false;
};

// The handshake's parsers, apart from the socket reads so that each sees
// only bytes (the registry fuzz feeds them mutated ones). Each takes
// exactly the bytes of its message and returns false for bytes that are
// not one:
//   parse_hello        a RegistryHello: its magic, a node id >= 0;
//   parse_map_header   a MapHeader: its magic, 1 <= count <= kMaxMapEntries;
//   parse_map_entries  `count` MapEntry records naming every node id in
//                      [0, count) once, into one Endpoint per node id.
inline constexpr std::uint32_t kMaxMapEntries = 1u << 16;
bool parse_hello(const unsigned char* bytes, std::size_t len, RegistryHello* out);
bool parse_map_header(const unsigned char* bytes, std::size_t len, std::uint32_t* count);
bool parse_map_entries(const unsigned char* bytes, std::size_t len, std::uint32_t count,
                       std::vector<Endpoint>* out);

// Client half: registers (self, listen_port) with the registry and blocks
// until the full map arrives, retrying the whole connect+hello exchange on
// any failure until `deadline`/`cancel` (covers a registry that starts
// late, restarts, or drops us mid-handshake). On success *out holds one
// endpoint per node id, out->size() == the registry's expected node count.
bool fetch_map(const Endpoint& registry, consensus::NodeId self,
               std::uint16_t listen_port, Nanos deadline,
               const std::atomic<bool>* cancel, std::vector<Endpoint>* out);

}  // namespace ci::net
