// Layer timings from outside: the public functions each layer's hot path
// is made of, timed standalone on inputs drawn from the workload's own
// arrival generator (same keys, op mix and values the live run sends).
// Every value is ns (or ms) per operation, the median of kReps repetitions.
//
//   consensus.encode_ns.<kind>   wire::encode_into into a flat buffer
//   consensus.decode_ns.<kind>   wire::try_decode (+ release of a pooled body)
//     kinds: client_request, client_reply, accept64 (the protocol's
//     64-command accept: OpxBatchAcceptReq for 1Paxos, Phase2BatchReq for
//     Multi-Paxos)
//   consensus.batcher_ns_per_cmd Batcher::push x64 + take, per command
//   consensus.pool_ns            CommandPool alloc(64) + release
//   consensus.apply_ns           MapStateMachine::apply on the workload's keys
//   net.sendring_ns_per_frame    RingFrameWriter encode into a SendRing + drain
//   net.reasm_ns_per_frame       FrameReassembler::feed over 4 KiB chunks
//   qclt.spsc_ns_per_slot        rt::SlotFrameWriter into an SpscQueue + read
//   net.bootstrap_ms             registry + 4-node loopback mesh until ready
//   client.submit_ns.p50/.p99    AsyncClientEngine::submit (probe; only for
//                                workloads whose live run has no Session)
//
// The frame stream for the transport timings is the per-instance mix at
// full batches: 64 client requests, 64 client replies, one 64-command
// accept.
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "client/async_client.hpp"
#include "common/cacheline.hpp"
#include "consensus/command_pool.hpp"
#include "consensus/state_machine.hpp"
#include "consensus/wire_codec.hpp"
#include "net/framing.hpp"
#include "net/net_node.hpp"
#include "net/registry.hpp"
#include "net/send_ring.hpp"
#include "qclt/spsc_queue.hpp"
#include "rt/wire.hpp"
#include "stats.hpp"

namespace wallbench {
namespace {

using ci::Nanos;
using ci::consensus::Command;
using ci::consensus::Message;
using ci::consensus::MsgType;
using ci::consensus::NodeId;
using ci::consensus::Op;
using ci::consensus::ProtoId;

constexpr int kReps = 21;
constexpr int kBatch = 64;
constexpr NodeId kClientNode = 3;
constexpr std::size_t kReasmChunk = 4096;
constexpr int kBootstrapTrials = 3;
constexpr std::int32_t kMeshNodes = 4;  // 3 replicas + 1 session, as the live runs

// Median over kReps of (time for one call of fn) / ops.
template <typename Fn>
double ns_per_op(double ops, Fn&& fn) {
  fn();  // warm caches and pools
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    const Nanos t0 = now_nanos();
    fn();
    reps.push_back(static_cast<double>(now_nanos() - t0) / ops);
  }
  return median(reps);
}

// Keeps the optimizer from discarding a timed result.
volatile std::uint64_t g_sink = 0;

std::vector<Command> workload_commands(const WorkloadDef& w, std::uint64_t seed, int n) {
  ci::harness::ArrivalGen gen(profile_for(w, seed));
  std::vector<Command> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const ci::harness::Arrival a = gen.next();
    Command c;
    c.client = kClientNode;
    c.seq = static_cast<std::uint32_t>(i + 1);
    c.op = a.op == ci::harness::WlOp::kUpdate ? Op::kWrite : Op::kRead;
    c.key = a.key;
    c.value = c.op == Op::kWrite ? static_cast<std::uint64_t>(i + 1) : 0;
    out.push_back(c);
  }
  return out;
}

Message client_request(const Command& c) {
  Message m(MsgType::kClientRequest, ProtoId::kClient, kClientNode, 0);
  m.u.client_request.cmd = c;
  return m;
}

Message client_reply(const Command& c, std::int64_t instance) {
  Message m(MsgType::kClientReply, ProtoId::kClient, 0, kClientNode);
  m.u.client_reply.seq = c.seq;
  m.u.client_reply.result = c.value;
  m.u.client_reply.instance = instance;
  m.u.client_reply.leader_hint = 0;
  m.u.client_reply.lease_epoch = 1;
  return m;
}

// The protocol's 64-command accept; owns one pool block (release_body).
Message accept64(const WorkloadDef& w, const Command* cmds, std::int64_t instance) {
  ci::consensus::ProposalNum pn;
  pn.counter = 1;
  pn.node = 0;
  if (w.protocol == ci::core::Protocol::kMultiPaxos) {
    Message m(MsgType::kPhase2BatchReq, ProtoId::kMultiPaxos, 0, 1);
    m.u.phase2_batch_req.instance = instance;
    m.u.phase2_batch_req.pn = pn;
    m.u.phase2_batch_req.count = kBatch;
    m.u.phase2_batch_req.run.assign(cmds, kBatch);
    return m;
  }
  Message m(MsgType::kOpxBatchAcceptReq, ProtoId::kOnePaxos, 0, 1);
  m.u.opx_batch_accept_req.instance = instance;
  m.u.opx_batch_accept_req.pn = pn;
  m.u.opx_batch_accept_req.count = kBatch;
  m.u.opx_batch_accept_req.run.assign(cmds, kBatch);
  return m;
}

std::vector<unsigned char> encode(const Message& m) {
  std::vector<unsigned char> bytes(ci::wire::frame_size(m));
  ci::wire::BufferWriter w(bytes.data());
  const std::uint32_t n = ci::wire::encode_into(m, w, m.src, m.dst);
  CI_CHECK(n == bytes.size());
  return bytes;
}

void time_codec(const char* kind, const std::vector<Message>& msgs, Report* rep) {
  std::vector<unsigned char> buf(ci::wire::kMaxFrameBytes);
  const double enc = ns_per_op(static_cast<double>(msgs.size()), [&] {
    for (const Message& m : msgs) {
      ci::wire::BufferWriter w(buf.data());
      g_sink = g_sink + ci::wire::encode_into(m, w, m.src, m.dst);
    }
  });
  std::vector<std::vector<unsigned char>> frames;
  for (const Message& m : msgs) frames.push_back(encode(m));
  const double dec = ns_per_op(static_cast<double>(frames.size()), [&] {
    Message out;
    for (const std::vector<unsigned char>& f : frames) {
      const bool ok = ci::wire::try_decode(f.data(), f.size(), &out);
      CI_CHECK(ok);
      ci::wire::release_body(out);
    }
  });
  rep->layer(std::string("consensus.encode_ns.") + kind, enc, "ns");
  rep->layer(std::string("consensus.decode_ns.") + kind, dec, "ns");
}

class NoopEngine final : public ci::consensus::Engine {
 public:
  void on_message(ci::consensus::Context&, const Message&) override {}
};

double bootstrap_ms() {
  std::vector<double> trials;
  for (int t = 0; t < kBootstrapTrials; ++t) {
    const Nanos t0 = now_nanos();
    ci::net::Registry registry(ci::net::Endpoint{}, kMeshNodes);
    CI_CHECK_MSG(registry.ok(), "cannot bind the net registry");
    ci::net::MeshConfig mesh;
    mesh.registry = registry.endpoint();
    mesh.total_nodes = kMeshNodes;
    mesh.ring_bytes = ci::net::ring_bytes_for(batch_policy());
    std::vector<std::unique_ptr<NoopEngine>> engines;
    std::vector<std::unique_ptr<ci::net::NetNode>> nodes;
    for (NodeId n = 0; n < kMeshNodes; ++n) {
      engines.push_back(std::make_unique<NoopEngine>());
      nodes.push_back(std::make_unique<ci::net::NetNode>(n, engines.back().get(), mesh, nullptr));
    }
    for (auto& n : nodes) n->start();
    bool ready = false;
    while (!ready && now_nanos() - t0 < 5 * kSecond) {
      ready = true;
      for (auto& n : nodes) ready = ready && n->ready();
      if (!ready) std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    const Nanos t1 = now_nanos();
    for (auto& n : nodes) n->request_stop();
    for (auto& n : nodes) n->join();
    if (ready) trials.push_back(static_cast<double>(t1 - t0) / 1e6);
  }
  return median(trials);
}

// Session::submit lands in AsyncClientEngine::submit; drive one engine by
// hand (tick sends into a context that drops frames, replies complete the
// window) and time each submit call.
void client_probe(const std::vector<Command>& cmds, Report* rep) {
  struct DropCtx final : ci::consensus::Context {
    NodeId self() const override { return kClientNode; }
    Nanos now() const override { return now_nanos(); }
    void send(NodeId, const Message&) override {}
    void deliver(ci::consensus::Instance, const Command&) override {}
  } ctx;
  ci::client::AsyncClientConfig cfg;
  cfg.base.self = kClientNode;
  cfg.base.num_replicas = 3;
  ci::client::AsyncClientEngine engine(cfg);
  std::vector<double> calls;
  std::vector<ci::client::SubmitHandle> window(kBatch);
  std::uint32_t seq = 0;
  for (std::size_t i = 0; i + kBatch <= cmds.size(); i += kBatch) {
    for (int j = 0; j < kBatch; ++j) {
      const Command& c = cmds[i + static_cast<std::size_t>(j)];
      const Nanos t0 = now_nanos();
      window[static_cast<std::size_t>(j)] = engine.submit(c.op, c.key, c.value);
      calls.push_back(static_cast<double>(now_nanos() - t0));
    }
    engine.tick(ctx);
    for (int j = 0; j < kBatch; ++j) {
      Command c;
      c.seq = ++seq;
      engine.on_message(ctx, client_reply(c, 0));
    }
    for (auto& h : window) h = ci::client::SubmitHandle();
  }
  std::vector<double> a = calls;
  rep->layer("client.submit_ns.p50", percentile(a, 0.50), "ns");
  rep->layer("client.submit_ns.p99", percentile(a, 0.99), "ns");
}

}  // namespace

void measure_layers(const WorkloadDef& w, const Options& o, bool probe_client, Report* rep) {
  const std::vector<Command> cmds = workload_commands(w, o.seed, 4096);
  const ci::consensus::BatchPolicy policy = batch_policy();

  // Codec, per frame kind.
  {
    std::vector<Message> req, rep_msgs, acc;
    for (int i = 0; i < 1024; ++i) {
      req.push_back(client_request(cmds[static_cast<std::size_t>(i)]));
      rep_msgs.push_back(client_reply(cmds[static_cast<std::size_t>(i)], i));
    }
    for (int b = 0; b < 16; ++b) acc.push_back(accept64(w, &cmds[static_cast<std::size_t>(b * kBatch)], b));
    time_codec("client_request", req, rep);
    time_codec("client_reply", rep_msgs, rep);
    time_codec("accept64", acc, rep);
    for (const Message& m : acc) ci::wire::release_body(m);
  }

  // Batcher: a batch's worth of pushes at the workload's arrival spacing,
  // then the take that forms the instance.
  {
    const Nanos gap = w.rate > 0 ? static_cast<Nanos>(1e9 / w.rate) : 4 * kMicrosecond;
    ci::consensus::Batcher b(policy);
    Nanos now = 0;
    std::size_t next = 0;
    const double ns = ns_per_op(64.0 * kBatch, [&] {
      for (int r = 0; r < 64; ++r) {
        for (int j = 0; j < kBatch; ++j) {
          b.push(cmds[next], now += gap);
          next = (next + 1) % cmds.size();
        }
        g_sink = g_sink + b.take().size();
      }
    });
    rep->layer("consensus.batcher_ns_per_cmd", ns, "ns");
  }

  // CommandPool: the out-of-line body of one 64-command batch.
  {
    ci::consensus::CommandPool& pool = ci::consensus::CommandPool::local();
    const double ns = ns_per_op(1024.0, [&] {
      for (int r = 0; r < 1024; ++r) {
        const ci::consensus::BodyRef ref =
            pool.alloc(&cmds[static_cast<std::size_t>((r % 64) * kBatch)], kBatch);
        g_sink = g_sink + pool.data(ref)->key;
        pool.release(ref);
      }
    });
    rep->layer("consensus.pool_ns", ns, "ns");
  }

  // State machine apply over a key space already populated by writes.
  {
    ci::consensus::MapStateMachine sm;
    for (std::uint64_t k = 0; k < kKeySpace; ++k) {
      Command c;
      c.op = Op::kWrite;
      c.key = k;
      c.value = k + 1;
      sm.apply(c);
    }
    const double ns = ns_per_op(static_cast<double>(cmds.size()), [&] {
      for (const Command& c : cmds) g_sink = g_sink + sm.apply(c);
    });
    rep->layer("consensus.apply_ns", ns, "ns");
  }

  // Transport timings over the full-batch frame mix.
  std::vector<Message> mix;
  for (int j = 0; j < kBatch; ++j) mix.push_back(client_request(cmds[static_cast<std::size_t>(j)]));
  for (int j = 0; j < kBatch; ++j) mix.push_back(client_reply(cmds[static_cast<std::size_t>(j)], 7));
  mix.push_back(accept64(w, cmds.data(), 7));

  {
    ci::net::SendRing ring(ci::net::ring_bytes_for(policy));
    const double ns = ns_per_op(16.0 * static_cast<double>(mix.size()), [&] {
      for (int r = 0; r < 16; ++r) {
        for (const Message& m : mix) {
          const std::uint32_t len = static_cast<std::uint32_t>(ci::wire::frame_size(m));
          if (ring.free() < ci::net::kLenPrefixBytes + len) {
            std::size_t n = 0;
            while (ring.readable() > 0) {
              g_sink = g_sink + *ring.peek(&n);
              ring.consume(n);
            }
          }
          ci::net::RingFrameWriter fw(&ring, len);
          ci::wire::encode_into(m, fw, m.src, m.dst);
          fw.finish();
        }
      }
      std::size_t n = 0;
      while (ring.readable() > 0) {
        g_sink = g_sink + *ring.peek(&n);
        ring.consume(n);
      }
    });
    rep->layer("net.sendring_ns_per_frame", ns, "ns");
  }

  {
    std::vector<unsigned char> stream;
    std::size_t frames = 0;
    while (stream.size() < (std::size_t{1} << 18)) {
      for (const Message& m : mix) {
        const std::vector<unsigned char> frame = encode(m);
        unsigned char prefix[ci::net::kLenPrefixBytes];
        ci::net::put_len_prefix(prefix, static_cast<std::uint32_t>(frame.size()));
        stream.insert(stream.end(), prefix, prefix + sizeof(prefix));
        stream.insert(stream.end(), frame.begin(), frame.end());
        ++frames;
      }
    }
    const double ns = ns_per_op(static_cast<double>(frames), [&] {
      ci::net::FrameReassembler reasm(static_cast<std::uint32_t>(ci::wire::kMaxFrameBytes));
      std::size_t seen = 0;
      for (std::size_t off = 0; off < stream.size(); off += kReasmChunk) {
        const std::size_t n = std::min(kReasmChunk, stream.size() - off);
        const bool ok = reasm.feed(stream.data() + off, n,
                                   [&seen](const unsigned char*, std::size_t) { ++seen; });
        CI_CHECK(ok);
      }
      CI_CHECK(seen == frames);
    });
    rep->layer("net.reasm_ns_per_frame", ns, "ns");
  }

  {
    const std::uint32_t cap = ci::rt::slots_for(policy);
    void* mem = std::aligned_alloc(ci::kCacheLineSize,
                                   (ci::qclt::SpscQueue::bytes_required(cap) + ci::kCacheLineSize - 1) /
                                       ci::kCacheLineSize * ci::kCacheLineSize);
    CI_CHECK(mem != nullptr);
    ci::qclt::SpscQueue* q = ci::qclt::SpscQueue::init(mem, cap);
    std::uint64_t slots = 0;
    auto drain = [&] {
      while (const void* s = q->try_front()) {
        g_sink = g_sink + *static_cast<const unsigned char*>(s);
        q->release_read();
      }
    };
    // One pass writes the whole mix; count the slots it takes first.
    for (const Message& m : mix) {
      slots += ci::qclt::wire::fragments_for(static_cast<std::uint32_t>(ci::wire::frame_size(m)));
    }
    const double per_pass = static_cast<double>(slots);
    const double ns = ns_per_op(16.0 * per_pass, [&] {
      for (int r = 0; r < 16; ++r) {
        for (const Message& m : mix) {
          const std::uint32_t len = static_cast<std::uint32_t>(ci::wire::frame_size(m));
          if (q->free_slots() < ci::qclt::wire::fragments_for(len)) drain();
          ci::rt::SlotFrameWriter sw(q, len);
          ci::wire::encode_into(m, sw, m.src, m.dst);
          sw.finish();
        }
      }
      drain();
    });
    std::free(mem);
    rep->layer("qclt.spsc_ns_per_slot", ns, "ns");
  }
  for (const Message& m : mix) ci::wire::release_body(m);

  rep->layer("net.bootstrap_ms", bootstrap_ms(), "ms");
  if (probe_client) client_probe(cmds, rep);
}

}  // namespace wallbench
