#include "core/threaded_cluster.hpp"

#include <chrono>
#include <thread>

#include "common/affinity.hpp"

namespace ci::core {

using consensus::GroupId;
using consensus::NodeId;

ThreadedMesh::ThreadedMesh(Backend backend, const ClusterSpec& spec,
                           const std::vector<consensus::Engine*>& engines, NodeId manager) {
  const auto total = static_cast<std::int32_t>(engines.size());
  if (backend == Backend::kRt) {
    queues_ = std::make_unique<qclt::Network>(rt::slots_for(spec.engine.batch));
    const bool pin = spec.rt.pin && pinning_available();
    for (NodeId n = 0; n < total; ++n) {
      // Transport node ids map straight onto cores, wrapped modulo the
      // machine (the paper used a 48-core box; we report oversubscription).
      // The placement policy decides which group's replicas share a core.
      const int core = !pin ? -1 : n == manager ? online_cores() - 1 : n % online_cores();
      rt_nodes_.push_back(std::make_unique<rt::RtNode>(
          n, total, engines[static_cast<std::size_t>(n)], queues_.get(), core));
    }
    return;
  }
  CI_CHECK_MSG(backend == Backend::kNet, "a threaded mesh runs on rt or net");
  net::Endpoint registry_at;  // loopback ephemeral unless the spec names one
  if (!spec.net.registry.empty()) {
    CI_CHECK_MSG(net::parse_endpoint(spec.net.registry, &registry_at),
                 "bad net.registry endpoint");
  }
  registry_ = std::make_unique<net::Registry>(registry_at, total);
  CI_CHECK_MSG(registry_->ok(), "cannot bind the net registry");
  if (spec.net.io_threads > 0) io_pool_ = std::make_unique<net::IoPool>(spec.net.io_threads);
  net::MeshConfig mesh;
  mesh.registry = registry_->endpoint();
  mesh.total_nodes = total;
  mesh.port_base = spec.net.port_base;
  mesh.ring_bytes = net::ring_bytes_for(spec.engine.batch);
  for (NodeId n = 0; n < total; ++n) {
    net_nodes_.push_back(std::make_unique<net::NetNode>(
        n, engines[static_cast<std::size_t>(n)], mesh, io_pool_.get()));
  }
}

ThreadedMesh::~ThreadedMesh() { stop(); }

void ThreadedMesh::start() {
  each([](auto& node) { node.start(); });
}

void ThreadedMesh::stop() {
  each([](auto& node) { node.request_stop(); });
  each([](auto& node) { node.join(); });
}

void ThreadedMesh::set_slow_factor(NodeId n, std::uint32_t factor) {
  at(n, [factor](auto& node) { node.set_slow_factor(factor); });
}

void ThreadedMesh::stretch_clock(NodeId n, double rate) {
  at(n, [rate](auto& node) { node.stretch_clock(rate); });
}

void ThreadedMesh::kill(NodeId n) {
  CI_CHECK_MSG(static_cast<std::size_t>(n) < net_nodes_.size(),
               "fail-stop exists only on the net backend");
  net_nodes_[static_cast<std::size_t>(n)]->kill();
}

void ThreadedMesh::wake(NodeId n) {
  at(n, [](auto& node) { node.wake(); });
}

net::WakeCounts ThreadedMesh::wake_counts(NodeId n) const {
  CI_CHECK_MSG(static_cast<std::size_t>(n) < net_nodes_.size(),
               "wake counts exist only on the net backend");
  return net_nodes_[static_cast<std::size_t>(n)]->wake_counts();
}

std::uint64_t ThreadedMesh::messages_sent() const {
  std::uint64_t sum = 0;
  each([&sum](const auto& node) { sum += node.messages_sent(); });
  return sum;
}

std::uint64_t ThreadedMesh::bytes_sent() const {
  std::uint64_t sum = 0;
  each([&sum](const auto& node) { sum += node.bytes_sent(); });
  return sum;
}

// The paper's load manager (§7.1, run on core 47): releases all clients
// with a start message once its node is up. Sharded deployments get one
// kStart per (group, client node) so every group's demux can route it.
class ThreadedCluster::LoadManagerEngine final : public consensus::Engine {
 public:
  explicit LoadManagerEngine(std::vector<std::pair<GroupId, NodeId>> targets)
      : targets_(std::move(targets)) {}

  void start(consensus::Context& ctx) override {
    for (const auto& [g, node] : targets_) {
      consensus::Message m(consensus::MsgType::kStart, consensus::ProtoId::kControl,
                           ctx.self(), node);
      m.group = g;
      ctx.send(node, m);
    }
  }

  void on_message(consensus::Context&, const consensus::Message&) override {}

 private:
  std::vector<std::pair<GroupId, NodeId>> targets_;
};

ThreadedCluster::ThreadedCluster(Backend backend, const ShardSpec& shard)
    : dep_(shard, /*auto_start_clients=*/false), faults_(shard.base.faults) {
  for (const FaultEvent& f : shard.base.faults.events) {
    // Silent acceptor reboot is deterministic state surgery; only the
    // simulator can apply it race-free. Slow windows and clock stretches
    // both apply cleanly at wall-clock offsets. (Fail-stop is a separate
    // verb, kill_node, because over sockets it maps to a real connection
    // drop, not a FaultEvent kind.)
    CI_CHECK(f.kind == FaultEvent::Kind::kSlowNode ||
             f.kind == FaultEvent::Kind::kStretchClock);
  }

  delivery_logs_.resize(static_cast<std::size_t>(dep_.num_nodes()));
  dep_.set_deliver_hook([this](NodeId global, GroupId g, NodeId local,
                               consensus::Instance in, const consensus::Command& cmd) {
    delivery_logs_[static_cast<std::size_t>(global)].emplace_back(g, local, in, cmd);
  });

  // Node ids: the deployment's transport nodes, then the load manager.
  std::vector<consensus::Engine*> engines;
  for (NodeId n = 0; n < dep_.num_nodes(); ++n) engines.push_back(dep_.node_engine(n));
  load_manager_ = std::make_unique<LoadManagerEngine>(dep_.client_targets());
  engines.push_back(load_manager_.get());
  mesh_ = std::make_unique<ThreadedMesh>(backend, shard.base, engines,
                                         /*manager=*/dep_.num_nodes());
}

ThreadedCluster::~ThreadedCluster() { stop(); }

void ThreadedCluster::start() {
  CI_CHECK(!started_);
  started_ = true;
  started_at_ = now_nanos();
  mesh_->start();
}

void ThreadedCluster::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  stopped_at_ = now_nanos();
  mesh_->stop();
}

void ThreadedCluster::apply_faults(Nanos elapsed) {
  // Template semantics: a fault hits its group-local node in EVERY group
  // (one shared transport node under co-location).
  faults_.poll(
      elapsed,
      [this](NodeId local, std::uint32_t factor) {
        for (GroupId g = 0; g < dep_.num_groups(); ++g) {
          throttle_node(dep_.global_node(g, local), factor);
        }
      },
      [this](NodeId local, double rate) {
        for (GroupId g = 0; g < dep_.num_groups(); ++g) {
          mesh_->stretch_clock(dep_.global_node(g, local), rate);
        }
      });
}

void ThreadedCluster::drive_until(Nanos wall_deadline) {
  while (now_nanos() < wall_deadline && !clients_done()) {
    tick_faults();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

RunResult ThreadedCluster::run_to_completion(Nanos max_wall) {
  drive_until(now_nanos() + max_wall);
  stop();
  return collect();
}

void ThreadedCluster::replay_delivery_logs() {
  CI_CHECK(stopped_);
  // Feed each node's delivered log into its group's agreement recorder
  // once (the logs are safe to read after join()).
  if (collected_) return;
  collected_ = true;
  for (const auto& log : delivery_logs_) {
    for (const auto& [g, local, in, cmd] : log) {
      dep_.recorder(g).record(local, in, cmd);
    }
  }
}

RunResult ThreadedCluster::collect() {
  replay_delivery_logs();
  RunResult res = dep_.collect();
  res.duration = stopped_at_ - started_at_;
  res.total_messages = live_messages();
  res.total_bytes = live_bytes();
  return res;
}

RunResult ThreadedCluster::collect_group(GroupId g) {
  replay_delivery_logs();
  RunResult res = dep_.collect_group(g);
  res.duration = stopped_at_ - started_at_;
  // total_messages stays 0: transport send counters are per node, and a
  // node's traffic is not attributable to one group (co-location shares
  // nodes across groups). Read collect() for whole-transport counts.
  return res;
}

void ThreadedCluster::throttle_node(NodeId node, std::uint32_t factor) {
  // The load manager's node is a transport node too.
  CI_CHECK(node >= 0 && node <= dep_.num_nodes());
  mesh_->set_slow_factor(node, factor);
}

void ThreadedCluster::kill_node(NodeId node) {
  CI_CHECK(node >= 0 && node < dep_.num_nodes());
  mesh_->kill(node);
}

}  // namespace ci::core
