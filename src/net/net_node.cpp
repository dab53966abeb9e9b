#include "net/net_node.hpp"

#include <cerrno>
#include <chrono>
#include <mutex>
#include <poll.h>
#include <sys/socket.h>
#include <thread>

#include "common/check.hpp"

namespace ci::net {

namespace {

// recv scratch per node: big enough that a busy link drains in few
// syscalls, small enough that a node's footprint stays modest.
constexpr std::size_t kRecvBufBytes = 64 * 1024;

}  // namespace

NetNode::NetNode(NodeId self, Engine* engine, const MeshConfig& cfg, IoPool* pool)
    : self_(self),
      engine_(engine),
      cfg_(cfg),
      pool_(pool),
      ring_bytes_(cfg.ring_bytes != 0
                      ? cfg.ring_bytes
                      : kLenPrefixBytes + wire::kMaxFrameBytes),
      ctx_(std::make_unique<Ctx>(this)),
      links_(static_cast<std::size_t>(cfg.total_nodes)),
      rbuf_(kRecvBufBytes) {
  CI_CHECK(self >= 0 && self < cfg.total_nodes);
}

NetNode::~NetNode() {
  request_stop();
  join();
}

void NetNode::start() {
  thread_ = std::thread([this] { thread_main(); });
}

void NetNode::request_stop() { stop_.store(true, std::memory_order_relaxed); }

void NetNode::join() {
  if (thread_.joinable()) thread_.join();
}

void NetNode::kill() { killed_.store(true, std::memory_order_relaxed); }

bool NetNode::bootstrap() {
  const Nanos deadline = now_nanos() + cfg_.bootstrap_deadline;

  // 1. Listen before registering: the map must never name an endpoint
  //    without a live listener behind it.
  const std::uint16_t want_port =
      cfg_.port_base == 0 ? 0
                          : static_cast<std::uint16_t>(cfg_.port_base + self_);
  std::uint16_t bound_port = 0;
  Socket listener = tcp_listen(Endpoint{"0.0.0.0", want_port}, &bound_port,
                               std::max(16, cfg_.total_nodes));
  if (!listener.valid()) return false;

  // 2. Register and block for the full node -> endpoint map.
  std::vector<Endpoint> map;
  if (!fetch_map(cfg_.registry, self_, bound_port, deadline, &stop_, &map)) return false;
  if (static_cast<std::int32_t>(map.size()) != cfg_.total_nodes) return false;

  const auto max_frame = static_cast<std::uint32_t>(wire::kMaxFrameBytes);

  // 3a. Dial every lower-id peer (their listeners pre-exist).
  for (NodeId peer = 0; peer < self_; ++peer) {
    Socket s = tcp_dial(map[static_cast<std::size_t>(peer)], deadline, &stop_);
    if (!s.valid()) return false;
    MeshHello hello;
    hello.node = self_;
    if (!write_full(s.fd(), &hello, sizeof(hello), deadline, &stop_)) return false;
    auto link = std::make_unique<Link>(ring_bytes_, max_frame);
    link->sock = std::move(s);
    links_[static_cast<std::size_t>(peer)] = std::move(link);
  }

  // 3b. Accept every higher-id peer; MeshHello tells us who dialed.
  std::int32_t expected = cfg_.total_nodes - 1 - self_;
  while (expected > 0) {
    if (now_nanos() >= deadline || stop_.load(std::memory_order_relaxed) ||
        killed_.load(std::memory_order_relaxed)) {
      return false;
    }
    pollfd pfd{listener.fd(), POLLIN, 0};
    const int r = ::poll(&pfd, 1, 10);
    if (r < 0 && errno != EINTR) return false;
    if (r <= 0) continue;
    Socket s(::accept(listener.fd(), nullptr, nullptr));
    if (!s.valid()) continue;
    MeshHello hello{};
    if (!read_full(s.fd(), &hello, sizeof(hello), now_nanos() + 2 * kSecond, &stop_)) {
      continue;  // a half-open dialer; it will retry
    }
    const NodeId peer = hello.node;
    if (hello.magic != kMeshHelloMagic || peer <= self_ || peer >= cfg_.total_nodes) {
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
    poll_loop();
    if (pool_ != nullptr) pool_->remove(this);
  } else {
    // A node that cannot join its mesh within the deadline is a deployment
    // error — unless it was stopped/killed mid-bootstrap, which is routine.
    CI_CHECK_MSG(stop_.load(std::memory_order_relaxed) ||
                     killed_.load(std::memory_order_relaxed),
                 "net mesh bootstrap failed");
  }
  // Drop every socket: to the peers this is EOF, exactly a process death.
  for (auto& link : links_) {
    if (link == nullptr) continue;
    link->dead.store(true, std::memory_order_relaxed);
    link->sock.close();
  }
  // Pooled bodies are thread-local; anything parked in the self queue goes
  // back to this thread's pool before the thread exits.
  for (const Message& m : self_queue_) wire::release_body(m);
  self_queue_.clear();
}

void NetNode::poll_loop() {
  engine_->start(*ctx_);
  drain_self_queue();

  std::vector<pollfd> pfds;
  std::vector<NodeId> pfd_peer;
  while (!stop_.load(std::memory_order_relaxed) &&
         !killed_.load(std::memory_order_relaxed)) {
    pfds.clear();
    pfd_peer.clear();
    for (NodeId peer = 0; peer < cfg_.total_nodes; ++peer) {
      Link* l = links_[static_cast<std::size_t>(peer)].get();
      if (l == nullptr || l->dead.load(std::memory_order_relaxed)) continue;
      short events = POLLIN;
      // Self-flushing nodes wait for writability only while bytes are
      // pending; an IoPool owns flushing otherwise.
      if (pool_ == nullptr && (l->ring->readable() > 0 || !l->backlog.empty())) {
        events |= POLLOUT;
      }
      pfds.push_back(pollfd{l->sock.fd(), events, 0});
      pfd_peer.push_back(peer);
    }
    if (pfds.empty()) {
      // Every link is dead (we are partitioned or everyone else stopped);
      // keep ticking so a co-hosted client can time out gracefully.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } else {
      ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 1);
    }
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) recv_link(pfd_peer[i]);
    }
    faults_.maybe_stall();
    engine_->tick(*ctx_);
    drain_self_queue();
    promote_backlogs();
    if (pool_ == nullptr) flush_rings();
  }
}

void NetNode::recv_link(NodeId peer) {
  Link* l = links_[static_cast<std::size_t>(peer)].get();
  const ssize_t n = ::recv(l->sock.fd(), rbuf_.data(), rbuf_.size(), 0);
  if (n == 0) {
    l->dead.store(true, std::memory_order_relaxed);  // peer closed (or died)
    return;
  }
  if (n < 0) {
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      l->dead.store(true, std::memory_order_relaxed);
    }
    return;
  }
  bool corrupt = false;
  const bool ok = l->reasm.feed(
      rbuf_.data(), static_cast<std::size_t>(n),
      [this, &corrupt](const unsigned char* p, std::uint32_t len) {
        corrupt = corrupt || !handle_frame(p, len);
      });
  // A bounds-violating length means the stream is corrupt beyond resync; a
  // frame that does not decode means the peer is broken or hostile. Either
  // way the link drops, as if the peer had died — never the process.
  if (!ok || corrupt) l->dead.store(true, std::memory_order_relaxed);
}

bool NetNode::handle_frame(const unsigned char* p, std::uint32_t len) {
  Message m;
  if (!wire::try_decode(p, len, &m)) return false;
  faults_.maybe_stall();
  engine_->on_message(*ctx_, m);
  wire::release_body(m);  // decode allocated any pooled body
  drain_self_queue();
  return true;
}

void NetNode::send(NodeId dst, const Message& m) {
  if (dst == self_) {
    // Defer: engines are not reentrant. The copy shares the message's
    // pooled body; custody moves to the self queue and drain_self_queue
    // releases it after delivery.
    Message out = m;
    out.src = self_;
    out.dst = dst;
    self_queue_.push_back(out);
    return;
  }
  Link* l = dst >= 0 && dst < cfg_.total_nodes ? links_[static_cast<std::size_t>(dst)].get()
                                               : nullptr;
  if (l == nullptr || l->dead.load(std::memory_order_relaxed)) {
    // The peer is gone. Dropping is the correct failure model: a dead node
    // is silence, and retry/failure-detection lives in the engines.
    wire::release_body(m);
    return;
  }
  const auto n = static_cast<std::uint32_t>(wire::frame_size(m));
  ctx_->sent.fetch_add(1, std::memory_order_relaxed);
  ctx_->sent_bytes.fetch_add(kLenPrefixBytes + n, std::memory_order_relaxed);
  if (l->backlog.empty() && l->ring->free() >= kLenPrefixBytes + n) {
    // Fast path: prefix + frame encode straight into the send ring — each
    // field byte moves exactly once, engine memory to ring, with src/dst
    // stamped mid-flight.
    RingFrameWriter w(l->ring.get(), n);
    const std::uint32_t written = wire::encode_into(m, w, self_, dst);
    CI_CHECK(written == n);
    w.finish();
    wire::release_body(m);  // send() consumes the message's pooled body
    return;
  }
  // Ring full (or older frames still waiting): encode into the FIFO
  // backlog instead; promote_backlogs replays the finished bytes.
  alignas(Message) unsigned char buf[kLenPrefixBytes + wire::kMaxFrameBytes];
  put_len_prefix(buf, n);
  wire::BufferWriter w(buf + kLenPrefixBytes);
  const std::uint32_t written = wire::encode_into(m, w, self_, dst);
  CI_CHECK(written == n);
  wire::release_body(m);
  l->backlog.emplace_back(buf, buf + kLenPrefixBytes + n);
}

void NetNode::promote_backlogs() {
  for (auto& link : links_) {
    Link* l = link.get();
    if (l == nullptr || l->dead.load(std::memory_order_relaxed)) continue;
    while (!l->backlog.empty() && l->ring->free() >= l->backlog.front().size()) {
      const auto& frame = l->backlog.front();
      l->ring->push(frame.data(), frame.size());
      l->backlog.pop_front();
    }
  }
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

void NetNode::drain_self_queue() {
  while (!self_queue_.empty()) {
    const Message m = self_queue_.front();
    self_queue_.pop_front();
    engine_->on_message(*ctx_, m);
    wire::release_body(m);
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
