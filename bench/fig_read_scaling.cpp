// Read scaling under leader leases (DESIGN.md §1f): what the linearizable
// read fast path buys as the read share of the workload grows.
//
// One G-group MultiPaxos deployment (batch=16 leaders, one pipelined
// session), swept over read mixes P in {0, 0.5, 0.9, 0.99} — two stores:
//   * replicated — leases off: every read takes a log instance and a full
//     agreement round, exactly like a write;
//   * lease      — leases on (--lease-ms, default 5): a leader holding a
//     majority of unexpired grants answers reads from its applied state
//     machine in one round trip, no log entry, no acceptor traffic.
//
// Shape to check: the two stores agree at P=0 (leases change nothing for
// writes), and the lease store pulls away as P grows — at P >= 0.9 it must
// CLEAR the pure single-key write ceiling (fig_txn_crossshard's pipelined
// single-key row, ~913K op/s under the sim cost model), because a fast read
// costs 2 boundary crossings against the batched write path's ~3.5.
//
//   $ ./bench/fig_read_scaling [--backend=sim|rt] [--groups=G]
//                              [--lease-ms=T] [--read-mix=P]
//
// --read-mix appends one extra sweep point (the stock four always run, so
// the committed baseline rows stay comparable).
#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "consensus/multi_paxos.hpp"
#include "common/histogram.hpp"
#include "kv/kv_store.hpp"
#include "support/bench_common.hpp"

namespace {

using namespace ci;
using namespace ci::bench;
using kv::ReplicatedKv;

Nanos store_now(const ReplicatedKv& store) {
  return store.backend() == Backend::kSim ? store.generic().sim_now() : now_nanos();
}

std::uint64_t key_in_group(const ReplicatedKv& store, consensus::GroupId g,
                           std::uint64_t from) {
  for (std::uint64_t k = from;; ++k) {
    if (store.group_of(k) == g) return k;
  }
}

// Fast-path reads served across all groups and replicas. Sim only: between
// session calls virtual time is quiescent, so engine state is safe to read
// (under rt the node threads own it).
std::uint64_t fast_reads(ReplicatedKv& store) {
  if (store.backend() != Backend::kSim) return 0;
  std::uint64_t n = 0;
  for (consensus::GroupId g = 0; g < store.num_groups(); ++g) {
    for (consensus::NodeId r = 0; r < store.num_replicas(); ++r) {
      if (auto* e = store.generic().deployment().group(g).multi_paxos(r)) {
        n += e->lease_reads();
      }
    }
  }
  return n;
}

struct Measured {
  double ops_per_sec = 0;
  double msgs_per_op = 0;
  double bytes_per_op = 0;
  std::uint64_t ops = 0;
  ci::Histogram lat;

  BenchRun as_run() const {
    BenchRun r;
    r.throughput = ops_per_sec;
    r.committed = ops;
    r.messages = static_cast<std::uint64_t>(msgs_per_op * static_cast<double>(ops));
    r.bytes = static_cast<std::uint64_t>(bytes_per_op * static_cast<double>(ops));
    fill_latency(&r, lat);
    return r;
  }
};

template <typename Body>
Measured measure(ReplicatedKv& store, std::uint64_t ops, Body body) {
  const Nanos t0 = store_now(store);
  const std::uint64_t m0 = store.generic().total_messages();
  const std::uint64_t b0 = store.generic().total_bytes();
  Measured out;
  body(&out.lat);
  const Nanos dt = std::max<Nanos>(store_now(store) - t0, 1);
  out.ops = ops;
  out.ops_per_sec = static_cast<double>(ops) * 1e9 / static_cast<double>(dt);
  out.msgs_per_op =
      static_cast<double>(store.generic().total_messages() - m0) / static_cast<double>(ops);
  out.bytes_per_op =
      static_cast<double>(store.generic().total_bytes() - b0) / static_cast<double>(ops);
  return out;
}

// Sliding window of in-flight operations: bounded pipelining with a real
// per-op latency sample for every completion (same shape as the
// fig_txn_crossshard window, generalized over the op).
struct LatencyWindow {
  ReplicatedKv* store;
  ci::Histogram* lat;
  std::size_t depth;
  std::deque<std::pair<client::SubmitHandle, Nanos>> open;

  void submit(client::Session& s, consensus::Op op, std::uint64_t key,
              std::uint64_t value) {
    client::SubmitHandle h = s.submit(op, key, value);
    open.emplace_back(std::move(h), store_now(*store));
    if (open.size() >= depth) drain_one();
  }
  void drain_one() {
    auto [h, start] = std::move(open.front());
    open.pop_front();
    h.wait();
    lat->record(store_now(*store) - start);
  }
  void drain_all() {
    while (!open.empty()) drain_one();
  }
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.groups = 4;
  flags.lease = 5 * kMillisecond;
  flags.read_mix = -1.0;  // no extra mix row unless asked for
  harness::parse_flags(argc, argv,
                       {Flag::kBackend, Flag::kGroups, Flag::kReadMix, Flag::kLeaseMs}, &flags);
  const Backend backend = flags.backend;
  const std::int32_t groups = flags.groups;
  const Nanos lease = flags.lease;
  const double extra_mix = flags.read_mix;

  header("Read scaling: leader leases vs replicated reads",
         "linearizable reads without log entries (DESIGN.md §1f; cf. §7.5)",
         "lease reads clear the batched write ceiling once reads dominate");

  const bool sim = backend == Backend::kSim;
  const std::uint64_t kOps = sim ? 12000 : 6000;
  // One pipelined session is client-bound near the single-key ceiling (it
  // pays ~1 us of client CPU per op in the sim cost model); four sessions
  // expose the SERVER-side difference between the two read paths.
  const std::int32_t kSessions = 4;

  std::vector<double> mixes = {0.0, 0.5, 0.9, 0.99};
  if (extra_mix >= 0.0 &&
      std::find(mixes.begin(), mixes.end(), extra_mix) == mixes.end()) {
    mixes.push_back(extra_mix);
  }

  auto make_store = [&](Nanos lease_duration) {
    ReplicatedKv::Options o;
    o.backend = backend;
    o.groups = groups;
    o.spec.protocol = Protocol::kMultiPaxos;
    if (sim) {
      // Microsecond heartbeats so lease rounds complete well inside the
      // virtual time the measured windows span.
      o.spec.apply(TimeoutProfile::many_core());
      o.spec.workload.request_timeout = 10 * kMillisecond;
    }
    o.spec.engine.batch.max_commands = 16;
    o.spec.engine.lease_duration = lease_duration;
    o.spec.engine.lease_epsilon = lease_duration / 10;
    o.spec.seed = 23;
    o.num_sessions = kSessions;
    return std::make_unique<ReplicatedKv>(o);
  };
  auto replicated = make_store(0);
  auto leased = make_store(lease);

  row("--- backend: %s, %d groups x 3 replicas, MultiPaxos batch=16, lease %lld ms ---",
      core::backend_name(backend), groups,
      static_cast<long long>(lease / kMillisecond));
  row("");
  row("%18s | %12s %10s %10s | %10s %10s", "workload", "op/s", "msgs/op", "bytes/op",
      "p50 us", "p99 us");

  BenchJson json("fig_read_scaling");
  json.set_backend(backend);

  // Key pool: 64 keys per group, shared by both stores (same router).
  std::vector<std::uint64_t> keys;
  {
    std::uint64_t next_key = 1;
    for (int i = 0; i < 64; ++i) {
      for (consensus::GroupId g = 0; g < groups; ++g) {
        const std::uint64_t k = key_in_group(*replicated, g, next_key);
        keys.push_back(k);
        next_key = k + 1;
      }
    }
  }

  // Warm both stores: populate every key and carry the lease store past its
  // first heartbeat/grant rounds so the sweep measures the steady state.
  for (auto* store : {replicated.get(), leased.get()}) {
    for (std::int32_t c = 0; c < kSessions; ++c) {
      auto& s = store->session(c);
      for (int round = 0; round < 2; ++round) {
        for (const std::uint64_t k : keys) s.put_async(k, k);
      }
      s.flush();
    }
  }

  for (const double mix : mixes) {
    const std::string tag = "mix" + std::to_string(static_cast<int>(mix * 100));
    for (auto* store : {replicated.get(), leased.get()}) {
      const bool lease_on = store == leased.get();
      Rng rng(1000 + static_cast<std::uint64_t>(mix * 100));
      const Measured m = measure(*store, kOps, [&](ci::Histogram* lat) {
        LatencyWindow win{store, lat, 512, {}};
        for (std::uint64_t i = 0; i < kOps; ++i) {
          auto& s = store->session(static_cast<std::int32_t>(i % kSessions));
          const std::uint64_t k = keys[static_cast<std::size_t>(i % keys.size())];
          if (rng.next_bool(mix)) {
            win.submit(s.generic(), consensus::Op::kRead, k, 0);
          } else {
            win.submit(s.generic(), consensus::Op::kWrite, k, i);
          }
        }
        win.drain_all();
      });
      const BenchRun r = m.as_run();
      const std::string label = std::string(lease_on ? "lease" : "replicated") + "-" + tag;
      row("%18s | %12.0f %10.2f %10.1f | %10.1f %10.1f", label.c_str(), m.ops_per_sec,
          m.msgs_per_op, m.bytes_per_op, r.p50_latency_us, r.p99_latency_us);
      json.add(label, r);
    }
  }

  if (sim) {
    row("");
    row("lease store served %llu fast-path reads (no log entries).",
        static_cast<unsigned long long>(fast_reads(*leased)));
  }
  row("");
  row("Shape check: replicated and lease rows agree at mix0; replicated reads");
  row("stay at write cost at every mix (a read IS a log entry there), while");
  row("lease reads drop to one leader round trip — by mix90 the lease rows");
  row("clear fig_txn_crossshard's pipelined single-key ceiling (~913K op/s sim).");
  return 0;
}
