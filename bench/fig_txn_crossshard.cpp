// Cross-shard transactions vs single-key traffic over the same sharded
// store: what the §2.2 layering costs and what it leaves intact.
//
// Three workloads over one G-group MultiPaxos deployment (batch=16 leaders,
// pipelined sessions):
//   1. pure single-key — put_async pipelining, the PR 3/4 regime whose
//      leader batching amortizes protocol messages over ~k commands;
//   2. pure cross-shard transactions — 2-key txns whose keys land in two
//      different groups: prepare fan-out, a replicated decide in the home
//      group, commit fan-out (client/txn.hpp), closed loop;
//   3. mixed — every op is a txn with probability P (--txn-mix=P, default
//      0.1), a pipelined single-key put otherwise.
//
// The table reports op/s and msgs-per-op per workload; for the mixed run
// the single-key share's msgs/op is derived by subtracting the pure-txn
// per-txn message cost. Shape to check: that derived number stays near the
// pure single-key one — transaction traffic rides the same logs WITHOUT
// breaking the batching amortization of the single-key stream (txn commands
// join the very same leader batches).
//
//   $ ./bench/fig_txn_crossshard [--backend=sim|rt] [--groups=G] [--txn-mix=P]
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "client/txn.hpp"
#include "common/histogram.hpp"
#include "kv/kv_store.hpp"
#include "support/bench_common.hpp"

namespace {

using namespace ci;
using namespace ci::bench;
using client::TxnState;
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

struct Measured {
  double ops_per_sec = 0;
  double msgs_per_op = 0;
  double bytes_per_op = 0;
  std::uint64_t ops = 0;
  ci::Histogram lat;  // per-op completion latency (submit -> observed commit)

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

// Runs `body` (which performs `ops` completed operations against `store`,
// recording each op's latency into *lat) inside a message/byte/time
// measurement window.
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

// Pipelined submissions keep a bounded window of (handle, submit time)
// pairs; draining the front records the real per-op latency the old
// fire-and-forget put_async lost (its p50/p99 printed as 0).
struct LatencyWindow {
  ReplicatedKv* store;
  ci::Histogram* lat;
  std::size_t depth;
  std::deque<std::pair<client::SubmitHandle, Nanos>> open;

  void submit(client::Session& s, std::uint64_t key, std::uint64_t value) {
    // Stamp AFTER submit returns: submit may block for pipeline room, and
    // that backpressure wait is not part of the op's commit latency.
    client::SubmitHandle h = s.submit(consensus::Op::kWrite, key, value);
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
  flags.txn_mix = 0.1;
  harness::parse_flags(argc, argv, {Flag::kBackend, Flag::kGroups, Flag::kTxnMix}, &flags);
  const Backend backend = flags.backend;
  const std::int32_t groups = flags.groups;
  const double txn_mix = flags.txn_mix;

  header("Cross-shard transactions vs single-key traffic",
         "2PC across groups, each participant a replicated group (§2.2)",
         "txns pay 3 replicated phases; single-key batching amortization survives");

  const bool sim = backend == Backend::kSim;
  const std::uint64_t kSingles = sim ? 12000 : 6000;
  const std::uint64_t kTxns = sim ? 300 : 150;
  const std::uint64_t kMixedOps = sim ? 6000 : 3000;

  ReplicatedKv::Options o;
  o.backend = backend;
  o.groups = groups;
  o.spec.protocol = Protocol::kMultiPaxos;
  o.spec.engine.batch.max_commands = 16;
  o.spec.seed = 21;
  ReplicatedKv store(o);
  auto& s = store.session(0);

  // Key pools: for group g, keys owned by g (cross-shard txns pick two
  // pools apart; singles cycle all groups).
  std::vector<std::vector<std::uint64_t>> pool(static_cast<std::size_t>(groups));
  std::uint64_t next_key = 1;
  for (int i = 0; i < 64; ++i) {
    for (consensus::GroupId g = 0; g < groups; ++g) {
      const std::uint64_t k = key_in_group(store, g, next_key);
      pool[static_cast<std::size_t>(g)].push_back(k);
      next_key = k + 1;
    }
  }
  auto pick = [&](consensus::GroupId g, std::uint64_t i) {
    const auto& p = pool[static_cast<std::size_t>(g)];
    return p[static_cast<std::size_t>(i % p.size())];
  };

  row("--- backend: %s, %d groups x 3 replicas, MultiPaxos batch=16 ---",
      core::backend_name(backend), groups);
  row("");
  row("%22s | %12s %10s %10s | %10s %10s", "workload", "op/s", "msgs/op", "bytes/op",
      "p50 us", "p99 us");

  BenchJson json("fig_txn_crossshard");
  json.set_backend(backend);

  // 1. Pure single-key, pipelined: the amortized baseline. A sliding
  // handle window keeps ~512 commands in flight AND yields a real per-op
  // latency sample for every one of them.
  const Measured singles = measure(store, kSingles, [&](ci::Histogram* lat) {
    LatencyWindow win{&store, lat, 512, {}};
    for (std::uint64_t i = 0; i < kSingles; ++i) {
      win.submit(s.generic(),
                 pick(static_cast<consensus::GroupId>(i % static_cast<std::uint64_t>(
                          groups)),
                      i / static_cast<std::uint64_t>(groups)),
                 i);
    }
    win.drain_all();
  });
  {
    const BenchRun r = singles.as_run();
    row("%22s | %12.0f %10.2f %10.1f | %10.1f %10.1f", "single-key (pipelined)",
        singles.ops_per_sec, singles.msgs_per_op, singles.bytes_per_op, r.p50_latency_us,
        r.p99_latency_us);
    json.add("single-key", r);
  }

  // 2. Pure cross-shard 2-key transactions, closed loop.
  std::uint64_t committed_txns = 0;
  const Measured txns = measure(store, kTxns, [&](ci::Histogram* lat) {
    for (std::uint64_t i = 0; i < kTxns; ++i) {
      const auto g1 = static_cast<consensus::GroupId>(i % static_cast<std::uint64_t>(groups));
      const auto g2 = static_cast<consensus::GroupId>((g1 + 1) %
                                                      groups);
      const Nanos start = store_now(store);
      client::TxnHandle h =
          s.txn().put(pick(g1, i), 7000 + i).put(pick(g2, i), 8000 + i).commit();
      committed_txns += h.wait() == TxnState::kCommitted ? 1 : 0;
      lat->record(store_now(store) - start);
    }
  });
  {
    const BenchRun r = txns.as_run();
    row("%22s | %12.0f %10.2f %10.1f | %10.1f %10.1f", "cross-shard txn",
        txns.ops_per_sec, txns.msgs_per_op, txns.bytes_per_op, r.p50_latency_us,
        r.p99_latency_us);
    json.add("cross-shard-txn", r);
  }

  // 3. Mixed stream at --txn-mix=P. Transactions ride a small outstanding
  // window (commit() launches the prepares immediately; wait() is deferred)
  // so they pipeline with the single-key stream the way a real client
  // would, instead of stalling it for three round trips each.
  Rng rng(99);
  std::uint64_t mixed_singles = 0;
  std::uint64_t mixed_txns = 0;
  // Single-key ops record into their own histogram so the share row below
  // reports real percentiles; it is merged back for the combined row.
  ci::Histogram mixed_single_lat;
  const Measured mixed = measure(store, kMixedOps, [&](ci::Histogram* lat) {
    LatencyWindow win{&store, &mixed_single_lat, 512, {}};
    std::vector<std::pair<client::TxnHandle, Nanos>> open;
    auto drain_txns = [&] {
      for (auto& [h, start] : open) {
        (void)h.wait();
        lat->record(store_now(store) - start);
      }
      open.clear();
    };
    for (std::uint64_t i = 0; i < kMixedOps; ++i) {
      const bool txn = rng.next_bool(txn_mix);
      if (txn) {
        const auto g1 = static_cast<consensus::GroupId>(i % static_cast<std::uint64_t>(groups));
        const auto g2 = static_cast<consensus::GroupId>((g1 + 1) % groups);
        const Nanos start = store_now(store);
        open.emplace_back(s.txn().put(pick(g1, i), i).put(pick(g2, i), i).commit(),
                          start);
        mixed_txns++;
        if (open.size() >= 4) drain_txns();
      } else {
        win.submit(s.generic(),
                   pick(static_cast<consensus::GroupId>(i % static_cast<std::uint64_t>(
                            groups)),
                        i),
                   i);
        mixed_singles++;
      }
    }
    drain_txns();
    win.drain_all();
  });
  // Split the mixed traffic: charge each txn its pure-run message and byte
  // cost; the rest belongs to the single-key share. The share ran inside
  // the same measurement window, so its throughput is the window's, scaled
  // by its op count; its percentiles come from its own histogram.
  const double mixed_total_msgs =
      mixed.msgs_per_op * static_cast<double>(kMixedOps);
  const double single_share_msgs =
      mixed_total_msgs - txns.msgs_per_op * static_cast<double>(mixed_txns);
  const double mixed_single_mpo =
      mixed_singles > 0 ? std::max(single_share_msgs, 0.0) / static_cast<double>(mixed_singles)
                        : 0.0;
  const double mixed_total_bytes =
      mixed.bytes_per_op * static_cast<double>(kMixedOps);
  const double single_share_bytes =
      mixed_total_bytes - txns.bytes_per_op * static_cast<double>(mixed_txns);
  {
    BenchRun r = mixed.as_run();
    ci::Histogram all = mixed_single_lat;  // latency columns span BOTH op classes
    all.merge(mixed.lat);
    fill_latency(&r, all);
    row("%22s | %12.0f %10.2f %10.1f | %10.1f %10.1f",
        ("mixed (P=" + std::to_string(txn_mix).substr(0, 4) + ")").c_str(),
        mixed.ops_per_sec, mixed.msgs_per_op, mixed.bytes_per_op, r.p50_latency_us,
        r.p99_latency_us);
    json.add("mixed", r);
  }
  {
    BenchRun share;
    share.committed = mixed_singles;
    share.messages = static_cast<std::uint64_t>(std::max(single_share_msgs, 0.0));
    share.bytes = static_cast<std::uint64_t>(std::max(single_share_bytes, 0.0));
    share.throughput = mixed.ops_per_sec * static_cast<double>(mixed_singles) /
                       static_cast<double>(kMixedOps);
    fill_latency(&share, mixed_single_lat);
    row("%22s | %12.0f %10.2f %10.1f | %10.1f %10.1f", "  single-key share",
        share.throughput, mixed_single_mpo, share.bytes_per_op(), share.p50_latency_us,
        share.p99_latency_us);
    json.add("mixed-single-key-share", share);
  }

  row("");
  row("committed %llu/%llu pure txns; mixed stream ran %llu singles + %llu txns.",
      static_cast<unsigned long long>(committed_txns),
      static_cast<unsigned long long>(kTxns),
      static_cast<unsigned long long>(mixed_singles),
      static_cast<unsigned long long>(mixed_txns));
  row("");
  row("Shape check: a cross-shard txn costs a small multiple of a single-key op");
  row("(three replicated phases across two groups vs one batched instance), and");
  row("the mixed stream's single-key share keeps msgs/op near the pure pipelined");
  row("row — txn commands join the same leader batches instead of breaking them.");
  return 0;
}
