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

bool Registry::handle_connection(Socket conn) {
  RegistryHello hello{};
  if (!read_full(conn.fd(), &hello, sizeof(hello), now_nanos() + kHandshakeBudget,
                 &stop_) ||
      hello.magic != kRegistryHelloMagic || hello.node < 0) {
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
    MapHeader hdr{};
    if (!read_full(conn.fd(), &hdr, sizeof(hdr), deadline, cancel)) continue;
    if (hdr.magic != kRegistryMapMagic || hdr.count == 0 || hdr.count > 1u << 16) {
      continue;
    }
    std::vector<MapEntry> entries(hdr.count);
    if (!read_full(conn.fd(), entries.data(), entries.size() * sizeof(MapEntry),
                   now_nanos() + 2 * kSecond, cancel)) {
      continue;
    }
    // The map comes from outside the process: an entry naming a node id
    // outside it is a broken (or hostile) registry, so retry the fetch.
    const bool in_range = std::all_of(entries.begin(), entries.end(), [&](const MapEntry& e) {
      return e.node >= 0 && static_cast<std::uint32_t>(e.node) < hdr.count;
    });
    if (!in_range) continue;
    out->assign(hdr.count, Endpoint{});
    for (const MapEntry& e : entries) {
      char name[INET_ADDRSTRLEN] = {0};
      in_addr addr{};
      addr.s_addr = e.addr_be;
      inet_ntop(AF_INET, &addr, name, sizeof(name));
      (*out)[static_cast<std::size_t>(e.node)] = Endpoint{name, e.port};
    }
    return true;
  }
  return false;
}

}  // namespace ci::net
