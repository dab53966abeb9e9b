// A multi-threaded replicated KV workload: several application threads
// drive synchronous sessions against a cluster running the protocol chosen
// on the command line, then verify the replicas converged to identical
// state.
//
// With --groups=N the key space is hash-sharded over N independent
// consensus groups carried by the same transport; sessions route each op to
// its key's group, so the workload code below does not change at all.
//
// With --batch=N each group's leader packs queued commands into
// multi-command instances (consensus/batch.hpp); the writer threads below
// pipeline their puts (put_async + flush) so there is a backlog to pack.
//
// With --txn-mix=P each thread issues a fraction P of its ops as two-key
// CROSS-SHARD transactions (session.txn().put(..).put(..).commit()),
// committed atomically by 2PC across the keys' groups (client/txn.hpp).
//
// The sessions ship whatever puts they have queued for a group in shared
// kClientCmdBatch frames (sender-side coalescing, orthogonal to the
// leader's --batch).
//
//   $ ./examples/replicated_kv [1paxos|multipaxos|basicpaxos|2pc] [num_ops]
//       [--backend=sim|rt|net] [--groups=N]
//       [--placement=group-major|interleaved|colocated] [--batch=N]
//       [--batch-flush-us=T] [--flush-policy=fixed|adaptive]
//       [--txn-mix=P]
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "client/txn.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "harness/flags.hpp"
#include "kv/kv_store.hpp"

int main(int argc, char** argv) {
  using namespace ci;

  harness::Flags flags;
  flags.backend = core::Backend::kRt;
  harness::parse_flags(argc, argv,
                       {harness::Flag::kBackend, harness::Flag::kGroups,
                        harness::Flag::kPlacement, harness::Flag::kBatch,
                        harness::Flag::kBatchFlushUs, harness::Flag::kFlushPolicy,
                        harness::Flag::kTxnMix, harness::Flag::kPositionals},
                       &flags);
  const double txn_mix = flags.txn_mix;

  // Positionals: [protocol] [ops per thread]. Anything unrecognized exits 2
  // rather than silently running the defaults.
  const std::vector<std::string>& positional = flags.positionals;
  kv::Protocol protocol = kv::Protocol::kOnePaxos;
  if (!positional.empty()) {
    const std::string& p = positional[0];
    if (p == "1paxos") {
      protocol = kv::Protocol::kOnePaxos;
    } else if (p == "2pc") {
      protocol = kv::Protocol::kTwoPc;
    } else if (p == "multipaxos") {
      protocol = kv::Protocol::kMultiPaxos;
    } else if (p == "basicpaxos") {
      protocol = kv::Protocol::kBasicPaxos;
    } else {
      std::fprintf(stderr, "unknown protocol '%s' (1paxos|multipaxos|basicpaxos|2pc)\n",
                   p.c_str());
      return 2;
    }
  }
  int ops_per_thread = 2000;
  if (positional.size() > 1) {
    const char* text = positional[1].c_str();
    char* end = nullptr;
    const long n = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || n < 1 || n > 1000000) {
      std::fprintf(stderr, "bad op count '%s' (expected 1 <= num_ops <= 1000000)\n", text);
      return 2;
    }
    ops_per_thread = static_cast<int>(n);
  }
  if (positional.size() > 2) {
    std::fprintf(stderr, "unexpected argument '%s'\n", positional[2].c_str());
    return 2;
  }
  constexpr int kThreads = 4;

  kv::ReplicatedKv::Options opts;
  opts.backend = flags.backend;
  opts.spec.apply_backend_profile(opts.backend);
  opts.spec.protocol = protocol;
  opts.spec.num_replicas = 3;
  opts.num_sessions = kThreads;
  opts.groups = flags.groups;
  opts.placement = flags.placement;
  opts.spec.engine.batch = flags.batch;
  // Only the Paxos-family leaders batch; silently reporting a batch size a
  // 2PC/Basic-Paxos run ignores would mislabel any numbers cut from this
  // output (the same silent-nonsense class --batch=0 is rejected for).
  const bool protocol_batches =
      protocol == kv::Protocol::kMultiPaxos || protocol == kv::Protocol::kOnePaxos;
  if (opts.spec.engine.batch.batching() && !protocol_batches) {
    std::fprintf(stderr, "--batch is ignored by %s (only Multi-Paxos and 1Paxos batch)\n",
                 kv::protocol_name(protocol));
    return 2;
  }
  kv::ReplicatedKv store(opts);

  std::printf(
      "protocol: %s, %d groups x %d replicas (%s), %d writer threads x %d ops, "
      "batch <= %d, %s backend\n",
      kv::protocol_name(protocol), store.num_groups(), store.num_replicas(),
      core::placement_name(opts.placement), kThreads, ops_per_thread,
      protocol_batches ? opts.spec.engine.batch.commands_cap() : 1,
      core::backend_name(opts.backend));

  const Nanos begin = now_nanos();
  std::atomic<std::uint64_t> txns_committed{0};
  std::atomic<std::uint64_t> txns_aborted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &txns_committed, &txns_aborted, t, ops_per_thread,
                          txn_mix] {
      auto& session = store.session(t);
      Rng rng(static_cast<std::uint64_t>(t) + 7);
      for (int i = 1; i <= ops_per_thread; ++i) {
        // Each thread owns a key range; interleaved reads check freshness.
        // Writes are pipelined (the leader batches whatever backlog forms);
        // each read flushes first so it observes the writes before it.
        const std::uint64_t key = static_cast<std::uint64_t>(t) * 1000 +
                                  static_cast<std::uint64_t>(i % 50);
        if (txn_mix > 0 && rng.next_bool(txn_mix)) {
          // A cross-shard transaction pairing this thread's key with a
          // sibling in its transfer range: both writes commit atomically or
          // not at all, whichever groups the keys hash to. (Threads touch
          // disjoint ranges, so aborts only come from this thread's own
          // still-locked earlier txn — i.e. never in this closed loop.)
          const std::uint64_t pair = key + 500;
          const auto state = session.txn()
                                 .put(key, static_cast<std::uint64_t>(i))
                                 .put(pair, static_cast<std::uint64_t>(i))
                                 .commit()
                                 .wait();
          (state == client::TxnState::kCommitted ? txns_committed : txns_aborted)
              .fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        session.put_async(key, static_cast<std::uint64_t>(i));
        if (i % 10 == 0) {
          session.flush();
          const std::uint64_t got = session.get(key);
          if (got != static_cast<std::uint64_t>(i)) {
            std::fprintf(stderr, "consistency violation: key %llu = %llu, want %d\n",
                         static_cast<unsigned long long>(key),
                         static_cast<unsigned long long>(got), i);
          }
        }
      }
      session.flush();
    });
  }
  for (auto& t : threads) t.join();
  const Nanos elapsed = now_nanos() - begin;
  if (txn_mix > 0) {
    std::printf("cross-shard txns: %llu committed, %llu aborted (mix %.2f)\n",
                static_cast<unsigned long long>(txns_committed.load()),
                static_cast<unsigned long long>(txns_aborted.load()), txn_mix);
  }

  const double total_ops = static_cast<double>(kThreads) * ops_per_thread * 1.1;  // + reads
  std::printf("completed %.0f ops in %.1f ms (%.0f op/s)\n", total_ops,
              static_cast<double>(elapsed) / 1e6, total_ops * 1e9 / static_cast<double>(elapsed));

  // Replicas must agree on every key (allow the executed prefix a moment to
  // settle on followers).
  busy_wait(50 * kMillisecond);
  int mismatches = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < 50; ++i) {
      const std::uint64_t key = static_cast<std::uint64_t>(t) * 1000 + static_cast<std::uint64_t>(i);
      const std::uint64_t v0 = store.local_read(0, key);
      for (int r = 1; r < store.num_replicas(); ++r) {
        if (store.local_read(r, key) != v0) mismatches++;
      }
    }
  }
  std::printf("replica state comparison: %s (%d mismatches)\n",
              mismatches == 0 ? "IDENTICAL" : "DIVERGED", mismatches);
  return mismatches == 0 ? 0 : 1;
}
