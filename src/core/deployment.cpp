#include "core/deployment.hpp"

#include "common/check.hpp"
#include "consensus/multi_paxos.hpp"
#include "consensus/two_pc.hpp"
#include "core/one_paxos.hpp"

namespace ci::core {

using consensus::Command;
using consensus::EngineConfig;
using consensus::NodeId;

Deployment::Deployment(const ClusterSpec& spec, bool auto_start_clients)
    : spec_(spec), recorder_(spec.num_replicas) {
  const std::int32_t R = spec_.num_replicas;
  const std::int32_t C = spec_.client_count();
  CI_CHECK(R >= 1);

  auto base_cfg = [&](NodeId self) {
    EngineConfig cfg = spec_.engine;
    cfg.self = self;
    cfg.num_replicas = R;
    cfg.seed = spec_.seed;
    cfg.state_machine = nullptr;
    return cfg;
  };

  ProtocolOptions popts;
  popts.acceptor_count = spec_.acceptor_count;
  for (NodeId r = 0; r < R; ++r) {
    sms_.push_back(spec_.state_machine_factory
                       ? spec_.state_machine_factory(r)
                       : std::make_unique<consensus::MapStateMachine>());
    CI_CHECK_MSG(sms_.back() != nullptr, "state_machine_factory returned null");
    EngineConfig cfg = base_cfg(r);
    cfg.state_machine = sms_.back().get();
    replicas_.push_back(make_replica_engine(spec_.protocol, cfg, popts));
  }

  for (std::int32_t c = 0; c < C; ++c) {
    const NodeId self = spec_.joint ? c : R + c;
    client::ClosedLoopConfig cc;
    cc.engine.base = base_cfg(self);
    cc.engine.initial_target = 0;  // the paper's clients start at core 0
    cc.engine.request_timeout = spec_.workload.request_timeout;
    cc.round_size = spec_.workload.round_size;
    cc.think_time = spec_.workload.think_time;
    cc.read_fraction = spec_.workload.read_fraction;
    cc.total_requests = spec_.workload.requests_per_client;
    cc.auto_start = auto_start_clients;
    if (spec_.joint && spec_.joint_local_reads && spec_.protocol == Protocol::kTwoPc) {
      auto* replica =
          static_cast<consensus::TwoPcEngine*>(replicas_[static_cast<std::size_t>(c)].get());
      auto* sm = sms_[static_cast<std::size_t>(c)].get();
      cc.local_read = [replica, sm](const Command& cmd, std::uint64_t* out) {
        // §7.5: serviceable locally unless the replica sits between the two
        // phases of an ongoing 2PC round.
        if (replica->has_prepared_uncommitted()) return false;
        *out = sm->read(cmd.key);
        return true;
      };
    }
    clients_.push_back(std::make_unique<client::ClosedLoopClient>(cc));
    client_node_ids_.push_back(self);
  }

  if (spec_.joint) {
    for (NodeId r = 0; r < R; ++r) {
      joint_engines_.push_back(std::make_unique<JointEngine>(
          replicas_[static_cast<std::size_t>(r)].get(),
          clients_[static_cast<std::size_t>(r)].get()));
      node_order_.push_back(joint_engines_.back().get());
    }
  } else {
    for (NodeId r = 0; r < R; ++r) node_order_.push_back(replicas_[static_cast<std::size_t>(r)].get());
    for (std::int32_t c = 0; c < C; ++c) node_order_.push_back(clients_[static_cast<std::size_t>(c)].get());
  }
}

Deployment::~Deployment() = default;

OnePaxosEngine* Deployment::one_paxos(NodeId r) {
  if (spec_.protocol != Protocol::kOnePaxos) return nullptr;
  return static_cast<OnePaxosEngine*>(replicas_[static_cast<std::size_t>(r)].get());
}

consensus::MultiPaxosEngine* Deployment::multi_paxos(NodeId r) {
  if (spec_.protocol != Protocol::kMultiPaxos) return nullptr;
  return static_cast<consensus::MultiPaxosEngine*>(replicas_[static_cast<std::size_t>(r)].get());
}

consensus::TwoPcEngine* Deployment::two_pc(NodeId r) {
  if (spec_.protocol != Protocol::kTwoPc) return nullptr;
  return static_cast<consensus::TwoPcEngine*>(replicas_[static_cast<std::size_t>(r)].get());
}

bool Deployment::clients_done() const {
  for (const auto& c : clients_) {
    if (!c->done()) return false;
  }
  return true;
}

std::uint64_t Deployment::total_committed() const {
  std::uint64_t sum = 0;
  for (const auto& c : clients_) sum += c->committed();
  return sum;
}

std::uint64_t Deployment::total_issued() const {
  std::uint64_t sum = 0;
  for (const auto& c : clients_) sum += c->issued();
  return sum;
}

std::uint64_t Deployment::total_local_reads() const {
  std::uint64_t sum = 0;
  for (const auto& c : clients_) sum += c->local_reads();
  return sum;
}

Histogram Deployment::merged_latency() const {
  Histogram h;
  for (const auto& c : clients_) h.merge(c->latency());
  return h;
}

RunResult Deployment::collect() const {
  RunResult res;
  res.committed = total_committed();
  res.issued = total_issued();
  res.local_reads = total_local_reads();
  res.latency = merged_latency();
  res.deliveries = recorder_.deliveries();
  res.consistent = recorder_.consistent();
  return res;
}

}  // namespace ci::core
