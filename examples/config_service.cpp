// A Barrelfish-style replicated configuration service (the paper's §2.1
// motivation: kernel/capability state replicated per core, kept consistent
// in software). Configuration entries are replicated over 1Paxos; readers
// on every "core" consult their local replica; updates go through
// consensus — and the service rides out a slow core, which is exactly what
// the blocking 2PC approach cannot do (§1).
//
//   $ ./examples/config_service [--backend=sim|rt]
#include <cstdio>
#include <thread>

#include "common/time.hpp"
#include "harness/flags.hpp"
#include "kv/kv_store.hpp"

namespace {

// A tiny typed veneer over the replicated map: config keys are small enums.
enum ConfigKey : std::uint64_t {
  kSchedulerQuantumUs = 1,
  kPageSize = 2,
  kIrqAffinityMask = 3,
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ci;

  kv::ReplicatedKv::Options opts;
  harness::Flags flags;
  flags.backend = core::Backend::kRt;
  harness::parse_flags(argc, argv, {harness::Flag::kBackend}, &flags);
  opts.backend = flags.backend;
  opts.spec.apply_backend_profile(opts.backend);
  opts.spec.protocol = kv::Protocol::kOnePaxos;
  opts.spec.num_replicas = 3;
  opts.num_sessions = 2;  // an "admin" updater and an "observer"
  kv::ReplicatedKv store(opts);
  auto& admin = store.session(0);
  auto& observer = store.session(1);

  std::printf("replicated config service over %s (3 kernel replicas, %s backend)\n",
              kv::protocol_name(opts.spec.protocol), core::backend_name(opts.backend));

  admin.put(kSchedulerQuantumUs, 4000);
  admin.put(kPageSize, 4096);
  admin.put(kIrqAffinityMask, 0xff);
  std::printf("admin wrote initial configuration\n");

  std::printf("observer (linearizable): quantum=%llu page=%llu irq=0x%llx\n",
              static_cast<unsigned long long>(observer.get(kSchedulerQuantumUs)),
              static_cast<unsigned long long>(observer.get(kPageSize)),
              static_cast<unsigned long long>(observer.get(kIrqAffinityMask)));

  // Local (relaxed) reads on each core's own replica: no messages at all.
  for (int core = 0; core < store.num_replicas(); ++core) {
    std::printf("core %d local replica: quantum=%llu\n", core,
                static_cast<unsigned long long>(store.local_read(core, kSchedulerQuantumUs)));
  }

  // A core gets overloaded — the non-blocking protocol keeps the service
  // available (the slow core here is the initial leader, the worst case).
  std::printf("\ninjecting a slow core under the leader (node 0)...\n");
  store.throttle_replica(0, 10000);  // ~5 ms per message on that core
  const Nanos begin = now_nanos();
  admin.put(kSchedulerQuantumUs, 8000);  // triggers client retarget + leader change
  admin.put(kIrqAffinityMask, 0x0f);
  const Nanos reconfig_latency = now_nanos() - begin;
  std::printf("config updates committed DESPITE the slow leader in %.2f ms\n",
              static_cast<double>(reconfig_latency) / 1e6);
  std::printf("sessions now talk to node %d (was node 0)\n",
              admin.believed_leader_for(kSchedulerQuantumUs));
  std::printf("observer reads quantum=%llu irq=0x%llx\n",
              static_cast<unsigned long long>(observer.get(kSchedulerQuantumUs)),
              static_cast<unsigned long long>(observer.get(kIrqAffinityMask)));

  store.throttle_replica(0, 1);
  std::printf("core healed; service continued throughout. done.\n");
  return 0;
}
