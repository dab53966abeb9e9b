#include "net/net_node.hpp"

#include <cerrno>
#include <chrono>
#include <mutex>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "common/check.hpp"

namespace ci::net {

namespace {

// recv scratch per node: big enough that a busy link drains in few
// syscalls, small enough that a node's footprint stays modest.
constexpr std::size_t kRecvBufBytes = 64 * 1024;

// The longest wait: an engine with no deadline still ticks this often.
constexpr Nanos kMaxWait = 1 * kMillisecond;

}  // namespace

NetNode::NetNode(NodeId self, Engine* engine, const MeshConfig& cfg, IoPool* pool)
    : NodeLoop(self, cfg.total_nodes, engine),
      cfg_(cfg),
      pool_(pool),
      ring_bytes_(cfg.ring_bytes != 0
                      ? cfg.ring_bytes
                      : kLenPrefixBytes + wire::kMaxFrameBytes),
      links_(static_cast<std::size_t>(cfg.total_nodes)),
      rbuf_(kRecvBufBytes),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)),
      readable_(static_cast<std::size_t>(cfg.total_nodes), false) {
  CI_CHECK_MSG(wake_fd_.valid(), "cannot create the node's eventfd");
}

NetNode::~NetNode() {
  request_stop();
  join();
}

bool NetNode::bootstrap() {
  const Nanos deadline = now_nanos() + cfg_.bootstrap_deadline;

  // 1. Listen before registering: the map must never name an endpoint
  //    without a live listener behind it.
  const std::uint16_t want_port =
      cfg_.port_base == 0 ? 0
                          : static_cast<std::uint16_t>(cfg_.port_base + id());
  std::uint16_t bound_port = 0;
  Socket listener = tcp_listen(Endpoint{"0.0.0.0", want_port}, &bound_port,
                               std::max(16, cfg_.total_nodes));
  if (!listener.valid()) return false;

  // 2. Register and block for the full node -> endpoint map.
  std::vector<Endpoint> map;
  if (!fetch_map(cfg_.registry, id(), bound_port, deadline, stop_flag(), &map)) return false;
  if (static_cast<std::int32_t>(map.size()) != cfg_.total_nodes) return false;

  const auto max_frame = static_cast<std::uint32_t>(wire::kMaxFrameBytes);

  // 3a. Dial every lower-id peer (their listeners pre-exist).
  for (NodeId peer = 0; peer < id(); ++peer) {
    Socket s = tcp_dial(map[static_cast<std::size_t>(peer)], deadline, stop_flag());
    if (!s.valid()) return false;
    MeshHello hello;
    hello.node = id();
    if (!write_full(s.fd(), &hello, sizeof(hello), deadline, stop_flag())) return false;
    auto link = std::make_unique<Link>(ring_bytes_, max_frame);
    link->sock = std::move(s);
    links_[static_cast<std::size_t>(peer)] = std::move(link);
  }

  // 3b. Accept every higher-id peer; MeshHello tells us who dialed.
  std::int32_t expected = cfg_.total_nodes - 1 - id();
  while (expected > 0) {
    if (now_nanos() >= deadline || stopping()) return false;
    pollfd pfd{listener.fd(), POLLIN, 0};
    const int r = ::poll(&pfd, 1, 10);
    if (r < 0 && errno != EINTR) return false;
    if (r <= 0) continue;
    Socket s(::accept(listener.fd(), nullptr, nullptr));
    if (!s.valid()) continue;
    MeshHello hello{};
    if (!read_full(s.fd(), &hello, sizeof(hello), now_nanos() + 2 * kSecond, stop_flag())) {
      continue;  // a half-open dialer; it will retry
    }
    const NodeId peer = hello.node;
    if (hello.magic != kMeshHelloMagic || peer <= id() || peer >= cfg_.total_nodes) {
      continue;
    }
    if (links_[static_cast<std::size_t>(peer)] != nullptr) continue;  // duplicate dial
    auto link = std::make_unique<Link>(ring_bytes_, max_frame);
    link->sock = std::move(s);
    links_[static_cast<std::size_t>(peer)] = std::move(link);
    --expected;
  }

  // 4. Steady state: everything nonblocking, listener gone.
  for (auto& link : links_) {
    if (link == nullptr) continue;
    if (!set_nonblocking(link->sock.fd())) return false;
    set_nodelay(link->sock.fd());
  }
  return true;
}

void NetNode::thread_main() {
  if (bootstrap()) {
    if (pool_ != nullptr) pool_->add(this);
    ready_.store(true, std::memory_order_release);
    run();
    if (pool_ != nullptr) pool_->remove(this);
  } else {
    // A node that cannot join its mesh within the deadline is a deployment
    // error — unless it was stopped/killed mid-bootstrap, which is routine.
    CI_CHECK_MSG(stopping(), "net mesh bootstrap failed");
  }
  // Drop every socket: to the peers this is EOF, exactly a process death.
  for (auto& link : links_) {
    if (link == nullptr) continue;
    link->dead.store(true, std::memory_order_relaxed);
    link->sock.close();
  }
}

void NetNode::wait(bool) {
  // Flushing the rings here, just before the poll, ends the previous pass:
  // nothing runs between the two.
  if (pool_ == nullptr) flush_rings();
  pfds_.clear();
  pfd_peer_.clear();
  pfds_.push_back(pollfd{wake_fd_.fd(), POLLIN, 0});
  for (NodeId peer = 0; peer < cfg_.total_nodes; ++peer) {
    readable_[static_cast<std::size_t>(peer)] = false;
    Link* l = links_[static_cast<std::size_t>(peer)].get();
    if (l == nullptr || l->dead.load(std::memory_order_relaxed)) continue;
    short events = POLLIN;
    // Self-flushing nodes wait for writability only while bytes are
    // pending; an IoPool owns flushing otherwise.
    if (pool_ == nullptr && (l->ring->readable() > 0 || backlogged(peer))) events |= POLLOUT;
    pfds_.push_back(pollfd{l->sock.fd(), events, 0});
    pfd_peer_.push_back(peer);
  }
  // With every link dead (partitioned, or everyone else stopped) the wait
  // still ends at the deadline, so a co-hosted client can time out.
  const timespec timeout{0, static_cast<long>(deadline_wait(kMaxWait))};
  if (::ppoll(pfds_.data(), static_cast<nfds_t>(pfds_.size()), &timeout, nullptr) <= 0) {
    wakes_timeout_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  bool by_socket = false;
  for (std::size_t i = 1; i < pfds_.size(); ++i) {
    if (pfds_[i].revents != 0) by_socket = true;
    if (pfds_[i].revents & (POLLIN | POLLHUP | POLLERR)) {
      readable_[static_cast<std::size_t>(pfd_peer_[i - 1])] = true;
    }
  }
  if (pfds_[0].revents & POLLIN) {
    std::uint64_t signals = 0;
    (void)!::read(wake_fd_.fd(), &signals, sizeof(signals));  // drain every signal so far
    wakes_eventfd_.fetch_add(1, std::memory_order_relaxed);
  } else {
    (by_socket ? wakes_socket_ : wakes_timeout_).fetch_add(1, std::memory_order_relaxed);
  }
}

void NetNode::notify() {
  const std::uint64_t one = 1;
  // Signals add up in the counter; one read in wait() takes them all.
  (void)!::write(wake_fd_.fd(), &one, sizeof(one));
}

bool NetNode::read(NodeId peer) {
  if (!readable_[static_cast<std::size_t>(peer)]) return false;
  Link* l = links_[static_cast<std::size_t>(peer)].get();
  const ssize_t n = ::recv(l->sock.fd(), rbuf_.data(), rbuf_.size(), 0);
  if (n == 0) {
    l->dead.store(true, std::memory_order_relaxed);  // peer closed (or died)
    return false;
  }
  if (n < 0) {
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      l->dead.store(true, std::memory_order_relaxed);
    }
    return false;
  }
  bool corrupt = false;
  const bool ok = l->reasm.feed(
      rbuf_.data(), static_cast<std::size_t>(n),
      [this, &corrupt](const unsigned char* p, std::uint32_t len) {
        corrupt = corrupt || !deliver(p, len);
      });
  // A bounds-violating length means the stream is corrupt beyond resync; a
  // frame that does not decode means the peer is broken or hostile. Either
  // way the link drops, as if the peer had died — never the process.
  if (!ok || corrupt) l->dead.store(true, std::memory_order_relaxed);
  return true;
}

bool NetNode::link_up(NodeId peer) const {
  const Link* l = links_[static_cast<std::size_t>(peer)].get();
  return l != nullptr && !l->dead.load(std::memory_order_relaxed);
}

bool NetNode::write(NodeId peer, const Message& m, std::uint32_t frame_len) {
  SendRing* ring = links_[static_cast<std::size_t>(peer)]->ring.get();
  if (ring->free() < kLenPrefixBytes + frame_len) return false;
  // Prefix + frame encode straight into the send ring, src/dst stamped
  // mid-flight.
  RingFrameWriter w(ring, frame_len);
  encode(m, w, peer, frame_len);
  w.finish();
  return true;
}

bool NetNode::write(NodeId peer, const Frame& frame) {
  Link* l = links_[static_cast<std::size_t>(peer)].get();
  if (l->dead.load(std::memory_order_relaxed)) return true;  // dropped, as send() drops
  if (l->ring->free() < kLenPrefixBytes + frame.size()) return false;
  unsigned char prefix[kLenPrefixBytes];
  put_len_prefix(prefix, static_cast<std::uint32_t>(frame.size()));
  l->ring->push(prefix, sizeof(prefix));
  l->ring->push(frame.data(), frame.size());
  return true;
}

void NetNode::flush_rings() {
  for (auto& link : links_) {
    Link* l = link.get();
    if (l == nullptr || l->dead.load(std::memory_order_relaxed)) continue;
    for (;;) {
      std::size_t n = 0;
      const unsigned char* p = l->ring->peek(&n);
      if (n == 0) break;
      const ssize_t put = ::send(l->sock.fd(), p, n, MSG_NOSIGNAL);
      if (put > 0) {
        l->ring->consume(static_cast<std::size_t>(put));
        if (static_cast<std::size_t>(put) < n) break;  // kernel buffer full
        continue;
      }
      if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) break;
      l->dead.store(true, std::memory_order_relaxed);  // EPIPE/ECONNRESET: peer gone
      break;
    }
  }
}

IoPool::IoPool(std::int32_t threads) : nthreads_(static_cast<std::size_t>(threads)) {
  CI_CHECK(threads > 0);
  for (std::int32_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this, i] { worker(static_cast<std::size_t>(i)); });
  }
}

IoPool::~IoPool() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& t : threads_) t.join();
}

void IoPool::add(NetNode* node) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  nodes_.push_back(node);
}

void IoPool::remove(NetNode* node) {
  // Writer lock: returns only once no worker is mid-flush on the departing
  // node, so the caller may close its sockets afterwards.
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto it = nodes_.begin(); it != nodes_.end(); ++it) {
    if (*it == node) {
      nodes_.erase(it);
      break;
    }
  }
}

void IoPool::worker(std::size_t idx) {
  const std::size_t stride = nthreads_;
  while (!stop_.load(std::memory_order_relaxed)) {
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      for (NetNode* n : nodes_) {
        // Stable id-based partition: exactly one worker ever consumes a
        // given node's rings, preserving the SPSC contract.
        if (static_cast<std::size_t>(n->id()) % stride == idx) n->flush_rings();
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

}  // namespace ci::net
