#include "net/registry.hpp"

#include <arpa/inet.h>
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

namespace ci::net {

namespace {

// Per-connection handshake budget on the registry side. Generous: a stuck
// client only ties up the serve loop for this long, and bootstrap is not a
// hot path.
constexpr Nanos kHandshakeBudget = 2 * kSecond;

}  // namespace

Registry::Registry(const Endpoint& at, std::int32_t expected_nodes)
    : expected_(expected_nodes) {
  Endpoint bind_at = at;
  if (bind_at.host.empty()) bind_at.host = "127.0.0.1";
  std::uint16_t port = 0;
  listener_ = tcp_listen(bind_at, &port, std::max(16, expected_nodes));
  if (!listener_.valid()) return;
  bound_ = Endpoint{bind_at.host, port};
  thread_ = std::thread([this] { serve(); });
}

Registry::~Registry() { stop(); }

void Registry::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

bool Registry::send_map(int fd, const std::vector<MapEntry>& entries) {
  MapHeader hdr;
  hdr.count = static_cast<std::uint32_t>(entries.size());
  const Nanos deadline = now_nanos() + kHandshakeBudget;
  if (!write_full(fd, &hdr, sizeof(hdr), deadline, nullptr)) return false;
  return write_full(fd, entries.data(), entries.size() * sizeof(MapEntry), deadline,
                    nullptr);
}

bool parse_hello(const unsigned char* bytes, std::size_t len, RegistryHello* out) {
  if (len != sizeof(RegistryHello)) return false;
  std::memcpy(out, bytes, sizeof(RegistryHello));
  return out->magic == kRegistryHelloMagic && out->node >= 0;
}

bool parse_map_header(const unsigned char* bytes, std::size_t len, std::uint32_t* count) {
  if (len != sizeof(MapHeader)) return false;
  MapHeader hdr;
  std::memcpy(&hdr, bytes, sizeof(hdr));
  if (hdr.magic != kRegistryMapMagic || hdr.count == 0 || hdr.count > kMaxMapEntries) {
    return false;
  }
  *count = hdr.count;
  return true;
}

bool parse_map_entries(const unsigned char* bytes, std::size_t len, std::uint32_t count,
                       std::vector<Endpoint>* out) {
  if (count == 0 || count > kMaxMapEntries || len != count * sizeof(MapEntry)) return false;
  // The map comes from outside the process: an entry naming a node id
  // outside it, or twice (leaving another id without an endpoint), is a
  // broken or hostile registry.
  std::vector<bool> seen(count, false);
  std::vector<Endpoint> map(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    MapEntry e;
    std::memcpy(&e, bytes + i * sizeof(MapEntry), sizeof(e));
    if (e.node < 0 || static_cast<std::uint32_t>(e.node) >= count) return false;
    const auto node = static_cast<std::size_t>(e.node);
    if (seen[node]) return false;
    seen[node] = true;
    char name[INET_ADDRSTRLEN] = {0};
    in_addr addr{};
    addr.s_addr = e.addr_be;
    inet_ntop(AF_INET, &addr, name, sizeof(name));
    map[node] = Endpoint{name, e.port};
  }
  *out = std::move(map);
  return true;
}

bool Registry::handle_connection(Socket conn) {
  unsigned char bytes[sizeof(RegistryHello)];
  RegistryHello hello;
  if (!read_full(conn.fd(), bytes, sizeof(bytes), now_nanos() + kHandshakeBudget, &stop_) ||
      !parse_hello(bytes, sizeof(bytes), &hello)) {
    return true;  // bad client; drop it, keep serving
  }
  sockaddr_in peer{};
  socklen_t len = sizeof(peer);
  if (getpeername(conn.fd(), reinterpret_cast<sockaddr*>(&peer), &len) != 0) return true;

  MapEntry entry;
  entry.node = hello.node;
  entry.addr_be = peer.sin_addr.s_addr;
  entry.port = hello.listen_port;
  // Re-registration (a restarted node, possibly on a fresh ephemeral port)
  // overwrites; a fresh node id extends the set.
  const auto it = std::find_if(entries_.begin(), entries_.end(),
                               [&](const MapEntry& e) { return e.node == entry.node; });
  if (it != entries_.end()) {
    *it = entry;
  } else {
    entries_.push_back(entry);
  }

  if (published_ || static_cast<std::int32_t>(entries_.size()) >= expected_) {
    if (!published_) {
      published_ = true;
      // The broadcast moment: every node parked on its registration
      // connection learns the completed map at once.
      for (Socket& w : waiting_) send_map(w.fd(), entries_);
      waiting_.clear();
    }
    send_map(conn.fd(), entries_);
    return true;
  }
  waiting_.push_back(std::move(conn));
  return true;
}

void Registry::serve() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{listener_.fd(), POLLIN, 0};
    const int r = ::poll(&pfd, 1, 10);
    if (r < 0 && errno != EINTR) break;
    if (r <= 0) continue;
    Socket conn(::accept(listener_.fd(), nullptr, nullptr));
    if (!conn.valid()) continue;
    handle_connection(std::move(conn));
  }
  waiting_.clear();
}

bool fetch_map(const Endpoint& registry, consensus::NodeId self,
               std::uint16_t listen_port, Nanos deadline,
               const std::atomic<bool>* cancel, std::vector<Endpoint>* out) {
  while (now_nanos() < deadline &&
         !(cancel != nullptr && cancel->load(std::memory_order_relaxed))) {
    Socket conn = tcp_dial(registry, deadline, cancel);
    if (!conn.valid()) return false;  // deadline/cancel hit while dialing
    RegistryHello hello;
    hello.node = self;
    hello.listen_port = listen_port;
    // Per-attempt budget: a registry that dies mid-exchange (restart tests)
    // must not eat the whole deadline before we redial.
    const Nanos attempt =
        std::min(deadline, now_nanos() + 500 * kMillisecond);
    if (!write_full(conn.fd(), &hello, sizeof(hello), attempt, cancel)) continue;
    unsigned char header[sizeof(MapHeader)];
    std::uint32_t count = 0;
    if (!read_full(conn.fd(), header, sizeof(header), deadline, cancel) ||
        !parse_map_header(header, sizeof(header), &count)) {
      continue;
    }
    std::vector<unsigned char> entries(count * sizeof(MapEntry));
    if (!read_full(conn.fd(), entries.data(), entries.size(), now_nanos() + 2 * kSecond,
                   cancel)) {
      continue;
    }
    // A map that does not parse is a broken (or hostile) registry: retry.
    if (parse_map_entries(entries.data(), entries.size(), count, out)) return true;
  }
  return false;
}

}  // namespace ci::net
