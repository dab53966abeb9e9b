// Quickstart: a replicated key/value store kept consistent by 1Paxos over
// in-process message passing — the paper's vision of "the cores as nodes of
// a distributed system" in ~30 lines.
//
// The same logic runs on either backend of the cluster harness:
//
//   $ ./examples/quickstart                 # real pinned threads (default)
//   $ ./examples/quickstart --backend=sim   # deterministic simulator
#include <cstdio>

#include "harness/flags.hpp"
#include "kv/kv_store.hpp"

int main(int argc, char** argv) {
  using namespace ci;

  kv::ReplicatedKv::Options opts;
  harness::Flags flags;
  flags.backend = core::Backend::kRt;
  harness::parse_flags(argc, argv, {harness::Flag::kBackend}, &flags);
  opts.backend = flags.backend;
  opts.spec.apply_backend_profile(opts.backend);
  opts.spec.protocol = kv::Protocol::kOnePaxos;  // try kTwoPc or kMultiPaxos too
  opts.spec.num_replicas = 3;
  opts.num_sessions = 1;
  kv::ReplicatedKv store(opts);

  auto& session = store.session(0);

  std::printf("cluster: %d replicas under %s on the %s backend, leader = node %d\n",
              store.num_replicas(), kv::protocol_name(opts.spec.protocol),
              core::backend_name(opts.backend), store.believed_leader());

  session.put(/*key=*/42, /*value=*/1001);
  std::printf("put 42 -> 1001\n");

  const std::uint64_t old_value = session.put(42, 2002);
  std::printf("put 42 -> 2002 (returned old value %llu)\n",
              static_cast<unsigned long long>(old_value));

  const std::uint64_t value = session.get(42);
  std::printf("get 42 = %llu (through consensus: linearizable)\n",
              static_cast<unsigned long long>(value));

  // Every replica executed the same log; local reads show the replicated
  // state (may lag the frontier — relaxed consistency, paper §7.5).
  for (int r = 0; r < store.num_replicas(); ++r) {
    std::printf("replica %d local state: key 42 = %llu\n", r,
                static_cast<unsigned long long>(store.local_read(r, 42)));
  }
  std::printf("done.\n");
  return 0;
}
