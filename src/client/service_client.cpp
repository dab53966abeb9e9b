#include "client/service_client.hpp"

#include <mutex>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sim/sim_net.hpp"

namespace ci::client {

GroupId default_router(std::uint64_t key, std::int32_t groups) {
  // Keys are often small sequential integers, so run them through the
  // SplitMix64 finalizer to keep the shards balanced.
  return groups <= 1 ? 0
                     : static_cast<GroupId>(SplitMix64(key).next() %
                                            static_cast<std::uint64_t>(groups));
}

SubmitHandle Session::submit(Op op, std::uint64_t key, std::uint64_t value) {
  const GroupId g = group_of(key);
  AsyncClientEngine& client = *per_group_[static_cast<std::size_t>(g)];
  if (near_cache_ && op == Op::kRead) {
    const auto& map = cache_[static_cast<std::size_t>(g)];
    const auto it = map.find(key);
    // Serve only while the entry's epoch is still the newest this session
    // has seen — one intervening write (any key) observed in any reply
    // advances latest_epoch() and every older entry stops matching.
    if (it != map.end() && it->second.epoch != 0 &&
        it->second.epoch == client.latest_epoch()) {
      ++near_cache_hits_;
      return client.completed_handle(it->second.value, it->second.epoch);
    }
  }
  return client.submit(op, key, value);
}

std::uint64_t Session::execute(Op op, std::uint64_t key, std::uint64_t value) {
  SubmitHandle h = submit(op, key, value);
  const std::uint64_t result = h.wait();
  if (near_cache_ && (op == Op::kRead || op == Op::kWrite)) {
    const std::uint32_t epoch = h.lease_epoch();
    // A write's reply carries the epoch AFTER it applied, so caching the
    // written value under it is a correct read-your-writes fast path.
    if (epoch != 0) {
      cache_store(group_of(key), key, op == Op::kWrite ? value : result, epoch);
    }
  }
  return result;
}

void Session::cache_store(GroupId g, std::uint64_t key, std::uint64_t value,
                          std::uint32_t epoch) {
  auto& map = cache_[static_cast<std::size_t>(g)];
  if (map.size() >= kNearCacheMaxEntries && map.find(key) == map.end()) map.clear();
  map[key] = CacheEntry{value, epoch};
}

void Session::flush() {
  for (auto& client : per_group_) client->flush();
}

GroupId Session::group_of(std::uint64_t key) const {
  return router_(key, num_groups());
}

NodeId Session::believed_leader_for(std::uint64_t key) const {
  return per_group_[static_cast<std::size_t>(group_of(key))]->believed_leader();
}

// Simulator transport for sessions: virtual time only advances while some
// session blocks in a wait, pumping slices through run_until. The mutex
// serializes pumps from concurrent session threads.
struct ServiceClient::SimState {
  static constexpr Nanos kPumpSlice = 50 * kMicrosecond;

  std::mutex mu;
  std::unique_ptr<sim::SimNet> net;

  void pump() {
    std::lock_guard<std::mutex> lock(mu);
    net->run_until(net->now() + kPumpSlice);
  }
};

ServiceClient::ServiceClient(const Options& opts)
    : opts_([&] {
        Options o = opts;
        o.spec.num_clients = 0;  // sessions replace workload clients
        o.spec.joint = false;
        return o;
      }()),
      dep_(core::ShardSpec(opts_.spec, opts_.groups, opts_.placement),
           /*auto_start_clients=*/true) {
  const std::int32_t R = opts_.spec.num_replicas;
  const std::int32_t G = opts_.groups;
  const std::int32_t S = opts_.num_sessions;
  CI_CHECK(G >= 1);
  CI_CHECK(S >= 1);

  const bool is_sim = opts_.backend == core::Backend::kSim;
  if (is_sim) sim_ = std::make_unique<SimState>();

  for (std::int32_t s = 0; s < S; ++s) {
    const core::ShardedDeployment::ExternalSeat seat = dep_.next_external_seat();
    auto session = std::make_unique<Session>();
    session->router_ = opts_.router != nullptr ? opts_.router : &default_router;
    session->local_id_ = seat.local;
    session->node_ = seat.global;
    std::vector<consensus::Engine*> engines;
    for (GroupId g = 0; g < G; ++g) {
      AsyncClientConfig cc;
      cc.base = opts_.spec.engine;
      cc.base.self = seat.local;  // group-local id, same in every group
      cc.base.num_replicas = R;
      cc.base.seed = opts_.spec.seed;
      cc.base.state_machine = nullptr;
      cc.request_timeout = opts_.spec.workload.request_timeout;
      if (is_sim) cc.pump = [state = sim_.get()] { state->pump(); };
      session->per_group_.push_back(std::make_unique<AsyncClientEngine>(cc));
      engines.push_back(session->per_group_.back().get());
    }
    session_demux_.push_back(dep_.make_external_demux(seat.global, seat.local, engines));
    sessions_.push_back(std::move(session));
  }

  // Transport nodes: the replicas' nodes, then one per session.
  std::vector<consensus::Engine*> node_engines;
  for (consensus::NodeId n = 0; n < dep_.num_nodes(); ++n) {
    node_engines.push_back(dep_.node_engine(n));
  }
  for (auto& d : session_demux_) node_engines.push_back(d.get());

  // No deliver hook on any backend: the facade exposes no agreement
  // introspection, and recording every delivery would grow recorder state
  // unboundedly over the service's lifetime (deployments with a bounded
  // run window are where the recorders earn their keep).
  if (is_sim) {
    sim_->net = std::make_unique<sim::SimNet>(opts_.spec.sim.model, opts_.spec.seed,
                                              opts_.spec.sim.tick_period);
    for (consensus::Engine* e : node_engines) sim_->net->add_node(e);
    // Bring the replicas up (leader election, first heartbeats) so the
    // first session op does not pay the cold-start latency.
    sim_->net->run_until(1 * kMillisecond);
    return;
  }
  // Sessions submit on demand (no kStart release: there are no workload
  // clients), so starting the mesh is the whole bring-up.
  mesh_ = std::make_unique<core::ThreadedMesh>(opts_.backend, opts_.spec, node_engines);
  if (opts_.backend == core::Backend::kNet) {
    // A net node sleeps in ppoll until its engine's next deadline; a submit
    // from the application thread wakes the session's node to launch it.
    for (auto& session : sessions_) {
      for (auto& client : session->per_group_) {
        client->set_wake_hook([mesh = mesh_.get(), node = session->node_] { mesh->wake(node); });
      }
    }
  }
  mesh_->start();
}

ServiceClient::~ServiceClient() {
  if (mesh_ != nullptr) mesh_->stop();
}

Session& ServiceClient::session(std::int32_t i) {
  CI_CHECK(i >= 0 && i < session_count());
  return *sessions_[static_cast<std::size_t>(i)];
}

consensus::StateMachine* ServiceClient::state_machine(GroupId g, consensus::NodeId r) {
  CI_CHECK(g >= 0 && g < num_groups());
  CI_CHECK(r >= 0 && r < opts_.spec.num_replicas);
  return dep_.group(g).state_machine(r);
}

GroupId ServiceClient::group_of(std::uint64_t key) const {
  return (opts_.router != nullptr ? opts_.router : &default_router)(key, opts_.groups);
}

void ServiceClient::throttle_replica(consensus::NodeId r, std::uint32_t factor) {
  for (GroupId g = 0; g < opts_.groups; ++g) throttle_replica(g, r, factor);
}

void ServiceClient::throttle_replica(GroupId g, consensus::NodeId r, std::uint32_t factor) {
  CI_CHECK(g >= 0 && g < opts_.groups);
  CI_CHECK(r >= 0 && r < opts_.spec.num_replicas);
  const consensus::NodeId node = dep_.global_node(g, r);
  if (opts_.backend == core::Backend::kSim) {
    std::lock_guard<std::mutex> lock(sim_->mu);
    if (factor <= 1) {
      sim_->net->heal_node(node, sim_->net->now());
    } else {
      sim_->net->slow_node(node, sim_->net->now(), sim_->net->now() + 3600 * kSecond,
                           static_cast<double>(factor));
    }
    return;
  }
  mesh_->set_slow_factor(node, factor);
}

void ServiceClient::stretch_clock(consensus::NodeId r, double rate) {
  for (GroupId g = 0; g < opts_.groups; ++g) stretch_clock(g, r, rate);
}

void ServiceClient::stretch_clock(GroupId g, consensus::NodeId r, double rate) {
  CI_CHECK(g >= 0 && g < opts_.groups);
  CI_CHECK(r >= 0 && r < opts_.spec.num_replicas);
  CI_CHECK(rate > 0.0);
  const consensus::NodeId node = dep_.global_node(g, r);
  if (opts_.backend == core::Backend::kSim) {
    std::lock_guard<std::mutex> lock(sim_->mu);
    sim_->net->stretch_clock(node, rate);
    return;
  }
  mesh_->stretch_clock(node, rate);
}

consensus::NodeId ServiceClient::believed_leader(GroupId g) const {
  CI_CHECK(g >= 0 && g < opts_.groups);
  // Deployment hands out mutable engine pointers; the query is read-only.
  return const_cast<ServiceClient*>(this)->dep_.group(g).replica_engine(0)->believed_leader();
}

std::uint64_t ServiceClient::total_messages() const {
  if (opts_.backend == core::Backend::kSim) {
    std::lock_guard<std::mutex> lock(sim_->mu);
    return sim_->net->total_messages();
  }
  return mesh_->messages_sent();
}

std::uint64_t ServiceClient::total_bytes() const {
  if (opts_.backend == core::Backend::kSim) {
    std::lock_guard<std::mutex> lock(sim_->mu);
    return sim_->net->total_bytes();
  }
  return mesh_->bytes_sent();
}

Nanos ServiceClient::sim_now() const {
  if (opts_.backend != core::Backend::kSim) return 0;
  std::lock_guard<std::mutex> lock(sim_->mu);
  return sim_->net->now();
}

void ServiceClient::sim_run_until(Nanos t) {
  if (opts_.backend != core::Backend::kSim) return;
  std::lock_guard<std::mutex> lock(sim_->mu);
  if (t > sim_->net->now()) sim_->net->run_until(t);
}

}  // namespace ci::client
