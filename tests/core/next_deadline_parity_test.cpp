// Engine::next_deadline against tick(): a run that ticks each node only at
// its next_deadline (rounded up to the 20 us grid) must send the same
// messages, in the same order and at the same instants, as a run that ticks
// every node at every grid point. A skipped tick is then provably a no-op,
// which is what lets a runtime sleep until the deadline. The same runs
// check the no-spin rule: right after tick(t), next_deadline(t) > t.
//
// The driver is a small virtual-time loop of its own (fixed link latency,
// no cost model): at each grid point it ticks the nodes that are due, then
// delivers every message of the grid step in (time, seq) order, each frame
// encoded at send and decoded at delivery as on a real link.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "client/async_client.hpp"
#include "common/rng.hpp"
#include "consensus/wire_codec.hpp"
#include "core/one_paxos.hpp"

namespace ci::core {
namespace {

using client::AsyncClientConfig;
using client::AsyncClientEngine;

constexpr Nanos kGrid = 20 * kMicrosecond;
constexpr Nanos kLatency = 7 * kMicrosecond;

enum class TickMode { kEveryGridPoint, kAtDeadline };

// One send as the log keeps it: when, who to whom, and the frame bytes.
struct Sent {
  Nanos at = 0;
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  MsgType type = MsgType::kNone;
  std::vector<unsigned char> frame;
  bool operator==(const Sent&) const = default;
};

class GridDriver {
 public:
  explicit GridDriver(TickMode mode) : mode_(mode) {}

  ~GridDriver() {
    while (!queue_.empty()) {
      delete[] queue_.top().frame;
      queue_.pop();
    }
  }

  void add(Engine* e) {
    auto n = std::make_unique<Node>();
    n->driver = this;
    n->id = static_cast<NodeId>(nodes_.size());
    n->engine = e;
    nodes_.push_back(std::move(n));
  }

  // From `t` on the node is silent: no ticks, and its traffic is dropped.
  void kill_at(NodeId n, Nanos t) { node(n).dies_at = t; }

  // Runs fn, an application-side call on node n's engine, at time t.
  void call_at(Nanos t, NodeId n, std::function<void()> fn) {
    calls_.push_back(Call{t, n, std::move(fn)});
  }

  void run_until(Nanos end) {
    std::stable_sort(calls_.begin(), calls_.end(),
                     [](const Call& a, const Call& b) { return a.at < b.at; });
    for (auto& n : nodes_) {
      n->engine->start(*n);
      rearm(*n);
    }
    std::size_t next_call = 0;
    for (Nanos g = 0; g <= end; g += kGrid) {
      now_ = g;
      for (auto& n : nodes_) {
        if (!alive(*n)) continue;
        if (mode_ == TickMode::kAtDeadline && n->next_tick > g) continue;
        n->engine->tick(*n);
        ++ticks_;
        const Nanos d = n->engine->next_deadline(g);
        if (d <= g) spins_.push_back({g, n->id});
        rearm(*n, g + kGrid);
      }
      // Everything up to the next grid point: calls first at equal times.
      const Nanos step_end = g + kGrid;
      for (;;) {
        const bool have_call = next_call < calls_.size() && calls_[next_call].at < step_end;
        const bool have_msg = !queue_.empty() && queue_.top().at < step_end;
        if (!have_call && !have_msg) break;
        if (have_call && (!have_msg || calls_[next_call].at <= queue_.top().at)) {
          Call& c = calls_[next_call++];
          now_ = c.at;
          Node& n = node(c.node);
          if (alive(n)) {
            c.fn();
            rearm(n, g + kGrid);
          }
          continue;
        }
        InFlight m = queue_.top();
        queue_.pop();
        now_ = m.at;
        Node& dst = node(m.dst);
        if (alive(dst)) {
          Message msg;
          EXPECT_TRUE(wire::try_decode(m.frame, m.len, &msg));
          dst.engine->on_message(dst, msg);
          wire::release_body(msg);
          rearm(dst, g + kGrid);
        }
        delete[] m.frame;
      }
    }
  }

  const std::vector<Sent>& log() const { return log_; }
  std::uint64_t ticks() const { return ticks_; }
  // (time, node) of every tick after which next_deadline was still due.
  const std::vector<std::pair<Nanos, NodeId>>& spins() const { return spins_; }

 private:
  struct Node final : Context {
    NodeId self() const override { return id; }
    Nanos now() const override { return driver->now_; }
    void send(NodeId dst_id, const Message& m) override { driver->send(*this, dst_id, m); }
    void deliver(Instance, const Command&) override {}

    GridDriver* driver = nullptr;
    NodeId id = kNoNode;
    Engine* engine = nullptr;
    Nanos dies_at = kNoDeadline;
    Nanos next_tick = 0;
  };

  struct InFlight {
    Nanos at = 0;
    std::uint64_t seq = 0;
    NodeId dst = kNoNode;
    unsigned char* frame = nullptr;
    std::uint32_t len = 0;
    bool operator>(const InFlight& o) const { return at != o.at ? at > o.at : seq > o.seq; }
  };

  struct Call {
    Nanos at = 0;
    NodeId node = kNoNode;
    std::function<void()> fn;
  };

  Node& node(NodeId n) { return *nodes_[static_cast<std::size_t>(n)]; }
  bool alive(const Node& n) const { return now_ < n.dies_at; }

  // The node's next tick: its deadline rounded up to the grid, and never
  // before `earliest` (the grid point after one whose ticks already ran).
  void rearm(Node& n, Nanos earliest = 0) {
    const Nanos d = n.engine->next_deadline(now_);
    const Nanos rounded =
        d == kNoDeadline ? kNoDeadline : (std::max<Nanos>(d, 0) + kGrid - 1) / kGrid * kGrid;
    n.next_tick = std::max(rounded, earliest);
  }

  void send(Node& src, NodeId dst, const Message& m) {
    const auto len = static_cast<std::uint32_t>(wire::frame_size(m));
    auto* frame = new unsigned char[len];
    wire::BufferWriter w(frame);
    EXPECT_EQ(wire::encode_into(m, w, src.id, dst), len);
    log_.push_back(Sent{now_, src.id, dst, m.type, std::vector<unsigned char>(frame, frame + len)});
    wire::release_body(m);
    const bool dropped = dst < 0 || dst >= static_cast<NodeId>(nodes_.size()) || !alive(src) ||
                         !alive(node(dst));
    if (dropped) {
      delete[] frame;
      return;
    }
    queue_.push(InFlight{now_ + (dst == src.id ? 0 : kLatency), seq_++, dst, frame, len});
  }

  TickMode mode_;
  Nanos now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t ticks_ = 0;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::priority_queue<InFlight, std::vector<InFlight>, std::greater<>> queue_;
  std::vector<Call> calls_;
  std::vector<Sent> log_;
  std::vector<std::pair<Nanos, NodeId>> spins_;
};

struct Scenario {
  consensus::BatchPolicy batch;
  NodeId kill = kNoNode;  // killed 15 ms in
  Nanos end = 40 * kMillisecond;
};

struct RunLog {
  std::vector<Sent> sent;
  std::uint64_t ticks = 0;
  std::vector<std::pair<Nanos, NodeId>> spins;
  std::uint64_t completed = 0;
  std::uint64_t retries = 0;
};

// Three 1Paxos replicas (leader 0, acceptor 1) and one AsyncClientEngine
// on node 3, fed a seeded schedule of lone submits and bursts.
RunLog run_one_paxos(const Scenario& sc, TickMode mode) {
  GridDriver net(mode);
  std::vector<std::unique_ptr<OnePaxosEngine>> replicas;
  for (NodeId r = 0; r < 3; ++r) {
    OnePaxosConfig cfg;
    cfg.base.self = r;
    cfg.base.num_replicas = 3;
    cfg.base.seed = 11;
    cfg.base.batch = sc.batch;
    cfg.initial_leader = 0;
    cfg.initial_acceptor = 1;
    replicas.push_back(std::make_unique<OnePaxosEngine>(cfg));
    net.add(replicas.back().get());
  }
  AsyncClientConfig cc;
  cc.base.self = 3;
  cc.base.num_replicas = 3;
  cc.initial_target = 0;
  cc.request_timeout = 2 * kMillisecond;
  AsyncClientEngine client(cc);
  net.add(&client);

  std::vector<client::SubmitHandle> handles;
  Rng rng(7);
  Nanos t = 100 * kMicrosecond;
  std::uint64_t key = 0;
  while (t < sc.end - 5 * kMillisecond) {
    // Mostly lone arrivals, sometimes a burst that fills a batch.
    const int burst = rng.next_below(8) == 0 ? 1 + static_cast<int>(rng.next_below(70)) : 1;
    net.call_at(t, 3, [&client, &handles, burst, k = key] {
      for (int i = 0; i < burst && client.available() > 0; ++i) {
        handles.push_back(client.submit(consensus::Op::kWrite, k + i, k + i));
      }
    });
    key += static_cast<std::uint64_t>(burst);
    t += 10 * kMicrosecond + static_cast<Nanos>(rng.next_below(300)) * kMicrosecond;
  }
  if (sc.kill != kNoNode) net.kill_at(sc.kill, 15 * kMillisecond);
  net.run_until(sc.end);

  RunLog out{net.log(), net.ticks(), net.spins(), 0, client.retries()};
  for (const auto& h : handles) out.completed += h.done() ? 1 : 0;
  return out;
}

void expect_parity(const RunLog& grid, const RunLog& deadline) {
  ASSERT_FALSE(grid.sent.empty());
  const std::size_t n = std::min(grid.sent.size(), deadline.sent.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Sent& a = grid.sent[i];
    const Sent& b = deadline.sent[i];
    ASSERT_TRUE(a == b) << "send " << i << " differs: every-tick run " << a.src << "->" << a.dst
                        << " at " << a.at << " ns (type " << static_cast<int>(a.type)
                        << "), deadline run " << b.src << "->" << b.dst << " at " << b.at
                        << " ns (type " << static_cast<int>(b.type) << ")";
  }
  EXPECT_EQ(grid.sent.size(), deadline.sent.size());
  EXPECT_EQ(grid.completed, deadline.completed);
  EXPECT_EQ(grid.retries, deadline.retries);
  EXPECT_GT(grid.completed, 0u);
  // The deadline run must actually skip ticks, or the check shows nothing.
  EXPECT_LT(deadline.ticks * 2, grid.ticks);
  for (const RunLog* r : {&grid, &deadline}) {
    for (const auto& [at, node] : r->spins) {
      ADD_FAILURE() << "node " << node << " still due right after its tick at " << at << " ns";
    }
  }
}

consensus::BatchPolicy batch64(consensus::BatchPolicy::FlushMode mode) {
  consensus::BatchPolicy b;
  b.max_commands = 64;
  b.flush_after = 100 * kMicrosecond;
  b.flush_mode = mode;
  return b;
}

TEST(NextDeadlineParity, OnePaxosBatchOne) {
  const Scenario sc{};
  expect_parity(run_one_paxos(sc, TickMode::kEveryGridPoint),
                run_one_paxos(sc, TickMode::kAtDeadline));
}

TEST(NextDeadlineParity, OnePaxosBatch64Fixed) {
  const Scenario sc{batch64(consensus::BatchPolicy::FlushMode::kFixed)};
  expect_parity(run_one_paxos(sc, TickMode::kEveryGridPoint),
                run_one_paxos(sc, TickMode::kAtDeadline));
}

TEST(NextDeadlineParity, OnePaxosBatch64Adaptive) {
  const Scenario sc{batch64(consensus::BatchPolicy::FlushMode::kAdaptive)};
  expect_parity(run_one_paxos(sc, TickMode::kEveryGridPoint),
                run_one_paxos(sc, TickMode::kAtDeadline));
}

TEST(NextDeadlineParity, OnePaxosLeaderKill) {
  const Scenario sc{batch64(consensus::BatchPolicy::FlushMode::kAdaptive), /*kill=*/0};
  const RunLog grid = run_one_paxos(sc, TickMode::kEveryGridPoint);
  expect_parity(grid, run_one_paxos(sc, TickMode::kAtDeadline));
  // The takeover happened: commands submitted after the kill completed.
  const bool replica2_led = std::any_of(grid.sent.begin(), grid.sent.end(), [](const Sent& s) {
    return s.src == 2 && s.at > 15 * kMillisecond && s.dst == 1 &&
           s.type == MsgType::kOpxBatchAcceptReq;
  });
  EXPECT_TRUE(replica2_led);
  EXPECT_GT(grid.retries, 0u) << "the client's retry timer never fired";
}

TEST(NextDeadlineParity, OnePaxosAcceptorFailure) {
  const Scenario sc{{}, /*kill=*/1};
  const RunLog grid = run_one_paxos(sc, TickMode::kEveryGridPoint);
  expect_parity(grid, run_one_paxos(sc, TickMode::kAtDeadline));
  // The leader moved to the backup acceptor.
  const bool switched = std::any_of(grid.sent.begin(), grid.sent.end(), [](const Sent& s) {
    return s.src == 0 && s.dst == 2 &&
           s.type == MsgType::kOpxBatchAcceptReq;
  });
  EXPECT_TRUE(switched);
}

}  // namespace
}  // namespace ci::core
