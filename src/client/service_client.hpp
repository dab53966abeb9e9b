// The public client surface of the repository: one ServiceClient hosts a
// replicated (and optionally sharded) service — ANY consensus::StateMachine,
// chosen by ClusterSpec::state_machine_factory — on either backend, and
// hands out Sessions that talk to it.
//
// A Session owns one AsyncClientEngine per consensus group behind a single
// transport node (the per-group fan-out a transaction coordinator needs,
// made explicit instead of hidden inside a KV facade). Its API is
// async-first: submit() returns a SubmitHandle completion token; execute()
// is the blocking wrapper; txn() opens a cross-shard transaction committed
// by 2PC across groups (client/txn.hpp). Single-key routing hashes the key
// to its owning group.
//
// Backends: under kRt every replica and every session occupies a pinned
// thread exchanging real frames; under kNet those threads exchange the
// same frames over a loopback TCP socket mesh (registry bootstrap, length-
// prefixed streams); under kSim the replicas live in the deterministic
// simulator and blocked sessions pump virtual time from the calling thread
// — the same bridging the synchronous KV sessions always had.
// kv::ReplicatedKv/kv::KvSession are now a thin typed facade over this
// layer.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "client/async_client.hpp"
#include "client/txn.hpp"
#include "core/cluster_spec.hpp"
#include "core/sharded_deployment.hpp"
#include "core/threaded_cluster.hpp"

namespace ci::sim {
class SimNet;
}

namespace ci::client {

using consensus::GroupId;

// The default key->group router: SplitMix64-finalized hash, so small
// sequential keys spread evenly across shards.
GroupId default_router(std::uint64_t key, std::int32_t groups);

class ServiceClient;

// One application handle: per-group async clients sharing one transport
// node. May be driven by one application thread at a time (sessions are
// independent of each other).
class Session {
 public:
  using Router = GroupId (*)(std::uint64_t key, std::int32_t groups);

  // Single-command API, routed by key. submit() never blocks on commits
  // (only for pipeline room); execute() is submit().wait() plus near-cache
  // bookkeeping when the cache is enabled.
  SubmitHandle submit(Op op, std::uint64_t key, std::uint64_t value);
  std::uint64_t execute(Op op, std::uint64_t key, std::uint64_t value);

  // Opt-in near-cache (DESIGN.md §1f): caches read/write results keyed by
  // (key, lease epoch). A cached value is served — as a pre-completed
  // SubmitHandle, no network round trip — only while its epoch equals the
  // newest epoch this session has observed from the group's leader, so any
  // reply that reveals an intervening write invalidates every older entry
  // at once. Gives session-monotonic reads: a cache hit is exactly as fresh
  // as the session's latest observed reply, never fresher.
  void enable_near_cache() {
    near_cache_ = true;
    cache_.resize(per_group_.size());
  }
  std::uint64_t near_cache_hits() const { return near_cache_hits_; }

  // Blocks until everything submitted through this session committed.
  void flush();

  // Opens a cross-shard transaction builder (see txn.hpp).
  Txn txn() { return Txn(this); }

  GroupId group_of(std::uint64_t key) const;
  std::int32_t num_groups() const { return static_cast<std::int32_t>(per_group_.size()); }
  // The replica this session believes leads `key`'s group (group-local id).
  NodeId believed_leader_for(std::uint64_t key) const;
  // The transport node this session occupies.
  NodeId node() const { return node_; }

  // The group's raw engine, for callers that address groups directly (the
  // transaction driver, benches).
  AsyncClientEngine& group_client(GroupId g) {
    return *per_group_[static_cast<std::size_t>(g)];
  }

 private:
  friend class ServiceClient;
  friend class Txn;
  friend class TxnHandle;

  struct CacheEntry {
    std::uint64_t value = 0;
    std::uint32_t epoch = 0;  // 0 = never serve (reply predates leases)
  };
  // Bound per group; overflow clears the map (an epoch-keyed cache rebuilds
  // itself in one round of reads, so eviction policy is not worth state).
  static constexpr std::size_t kNearCacheMaxEntries = 4096;

  void cache_store(GroupId g, std::uint64_t key, std::uint64_t value,
                   std::uint32_t epoch);

  std::vector<std::unique_ptr<AsyncClientEngine>> per_group_;
  Router router_ = &default_router;
  NodeId local_id_ = consensus::kNoNode;  // group-local id (stamps txn ids)
  NodeId node_ = consensus::kNoNode;      // transport node id
  std::uint32_t next_txn_ = 0;
  bool near_cache_ = false;
  std::vector<std::unordered_map<std::uint64_t, CacheEntry>> cache_;  // per group
  std::uint64_t near_cache_hits_ = 0;
};

class ServiceClient {
 public:
  struct Options {
    Options() {
      spec.apply(core::TimeoutProfile::real_threads());
      spec.workload.request_timeout = 10 * kMillisecond;  // session retry timer
      spec.num_clients = 0;  // sessions replace workload clients
    }

    // protocol / num_replicas / engine knobs / state_machine_factory /
    // rt.pin / sim model all come from here; num_clients and the
    // closed-loop workload are ignored (sessions replace them). With
    // groups > 1 this is the per-group template of a ShardSpec.
    core::ClusterSpec spec;
    core::Backend backend = core::Backend::kRt;
    std::int32_t num_sessions = 1;
    std::int32_t groups = 1;
    core::Placement placement = core::Placement::kGroupMajor;
    Session::Router router = nullptr;  // null = default_router
  };

  explicit ServiceClient(const Options& opts);
  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  Session& session(std::int32_t i);
  std::int32_t session_count() const { return static_cast<std::int32_t>(sessions_.size()); }

  // Replica r's applied machine in group g, for relaxed local reads and
  // test introspection (r is a group-local id).
  consensus::StateMachine* state_machine(GroupId g, consensus::NodeId r);
  const consensus::StateMachine* state_machine(GroupId g, consensus::NodeId r) const {
    return const_cast<ServiceClient*>(this)->state_machine(g, r);
  }

  // Fault injection: multiply the per-message cost of replica `r` (a
  // group-local id) of group `g` — or of EVERY group in the one-argument
  // form (under co-location that is one shared node anyway).
  void throttle_replica(consensus::NodeId r, std::uint32_t factor);
  void throttle_replica(GroupId g, consensus::NodeId r, std::uint32_t factor);

  // Fault injection: from now on replica `r`'s local clock runs `rate`
  // times real (or virtual) speed — rate > 1 models the fast clock that
  // would let a deposed leader believe a lease past its true expiry. The
  // lease staleness tests drive this past TimeoutProfile::lease_epsilon.
  void stretch_clock(consensus::NodeId r, double rate);
  void stretch_clock(GroupId g, consensus::NodeId r, double rate);

  // Which replica (group-local id) group `g` currently believes leads it.
  consensus::NodeId believed_leader(GroupId g) const;

  GroupId group_of(std::uint64_t key) const;
  std::int32_t num_groups() const { return dep_.num_groups(); }
  std::int32_t num_replicas() const { return opts_.spec.num_replicas; }
  core::Backend backend() const { return opts_.backend; }

  // Transport traffic so far (boundary-crossing messages / encoded frame
  // bytes) — what the txn benches divide by to get msgs-per-op.
  std::uint64_t total_messages() const;
  std::uint64_t total_bytes() const;
  // Virtual time under sim (0 under rt, where wall clocks apply).
  Nanos sim_now() const;
  // Advances the simulation to virtual time `t` (no-op when t has passed,
  // and on the rt backend, where wall time advances itself). This is the
  // open-loop workload driver's clock: it paces arrivals by running the
  // cluster to each arrival's scheduled instant instead of blocking in a
  // session wait. Call only between session operations (not from a reply
  // callback); concurrent callers serialize on the pump mutex.
  void sim_run_until(Nanos t);

  core::ShardedDeployment& deployment() { return dep_; }
  // The rt or net node threads; null under sim.
  const core::ThreadedMesh* mesh() const { return mesh_.get(); }

 private:
  struct SimState;  // simulator transport + the pump mutex

  Options opts_;
  core::ShardedDeployment dep_;  // replicas only (sessions are wired here, per backend)
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<std::unique_ptr<consensus::GroupDemuxEngine>> session_demux_;

  // rt and net: one node thread per replica node, then one per session
  std::unique_ptr<core::ThreadedMesh> mesh_;

  // sim backend
  std::unique_ptr<SimState> sim_;
};

}  // namespace ci::client
