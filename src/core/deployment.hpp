// The shared deployment builder: turns a ClusterSpec into wired engines.
//
// It creates the state machines, the replica engines, one closed-loop
// client per spec client (client::ClosedLoopClient: the §7.1 load
// generator over the one client engine, client::AsyncClientEngine), the
// 2PC-Joint local-read hook, and joint co-location. SimCluster and
// core::ThreadedCluster only attach the result to their transport (SimNet
// vs a ThreadedMesh) and drive time.
//
// Node id layout (shared by both backends):
//   * separate:  replicas 0..R-1, clients R..R+C-1
//   * joint:     nodes 0..R-1, each hosting replica r + client r (§7.4)
// Backend-private helpers (the threaded load manager) take ids past
// node_count().
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "client/closed_loop.hpp"
#include "consensus/state_machine.hpp"
#include "core/cluster_spec.hpp"
#include "core/run_result.hpp"

namespace ci::consensus {
class MultiPaxosEngine;
class TwoPcEngine;
}  // namespace ci::consensus

namespace ci::core {

class OnePaxosEngine;

// Cross-node agreement record: instance -> first value delivered; every
// later delivery must match (consistency) and every delivered command must
// have been issued by a client (non-triviality). Backends feed it from
// their delivery paths: sim live from the deliver callback, rt post-join
// from each node's delivered log. Not internally synchronized.
//
// Under batching an instance's value is a run of commands, delivered one by
// one in batch order; each node's deliveries arrive in log order, so a
// per-node cursor recovers the position inside the instance and the record
// compares command-by-command. When a node moves past an instance, the
// batch LENGTH it delivered is checked against the first complete delivery
// too — agreeing on a prefix but not the length is still disagreement.
class AgreementRecorder {
 public:
  explicit AgreementRecorder(std::int32_t num_replicas)
      : delivered_(static_cast<std::size_t>(num_replicas)) {}

  void record(consensus::NodeId node, consensus::Instance in,
              const consensus::Command& cmd) {
    deliveries_++;
    std::int32_t offset = 0;
    if (node >= 0 && node < static_cast<consensus::NodeId>(delivered_.size())) {
      delivered_[static_cast<std::size_t>(node)].push_back(cmd);
      Cursor& cur = cursors_[node];
      if (cur.in == in) {
        offset = ++cur.offset;
      } else {
        if (cur.in != consensus::kNoInstance) finalize_length(cur.in, cur.offset + 1);
        cur.in = in;
        cur.offset = 0;
      }
    }
    auto& slots = decided_[in];
    if (offset < static_cast<std::int32_t>(slots.size())) {
      if (!(slots[static_cast<std::size_t>(offset)] == cmd)) consistent_ = false;
    } else if (offset == static_cast<std::int32_t>(slots.size())) {
      slots.push_back(cmd);
    } else {
      consistent_ = false;  // a delivery skipped a slot: orders diverged
    }
    if (!cmd.is_noop() && cmd.client == consensus::kNoNode) consistent_ = false;
  }

  bool consistent() const { return consistent_; }
  std::uint64_t deliveries() const { return deliveries_; }

  // Decided values by instance (each a batch of >= 1 commands).
  const std::map<consensus::Instance, std::vector<consensus::Command>>& decided() const {
    return decided_;
  }

  // The decided commands flattened in (instance, batch-position) order —
  // the canonical command sequence parity tests compare.
  std::vector<consensus::Command> decided_sequence() const {
    std::vector<consensus::Command> out;
    for (const auto& [in, slots] : decided_) out.insert(out.end(), slots.begin(), slots.end());
    return out;
  }

  // Per-replica delivered sequences, for prefix checks.
  const std::vector<std::vector<consensus::Command>>& delivered_by_node() const {
    return delivered_;
  }

 private:
  struct Cursor {
    consensus::Instance in = consensus::kNoInstance;
    std::int32_t offset = 0;
  };

  void finalize_length(consensus::Instance in, std::int32_t length) {
    auto [it, inserted] = lengths_.emplace(in, length);
    if (!inserted && it->second != length) consistent_ = false;
  }

  std::map<consensus::Instance, std::vector<consensus::Command>> decided_;
  std::map<consensus::Instance, std::int32_t> lengths_;  // first finalized batch length
  std::map<consensus::NodeId, Cursor> cursors_;
  std::vector<std::vector<consensus::Command>> delivered_;
  bool consistent_ = true;
  std::uint64_t deliveries_ = 0;
};

class Deployment {
 public:
  // auto_start_clients: sim clients self-start at t=0; rt and net clients
  // wait for the load manager's kStart (§7.1).
  Deployment(const ClusterSpec& spec, bool auto_start_clients);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const ClusterSpec& spec() const { return spec_; }
  std::int32_t num_replicas() const { return spec_.num_replicas; }
  std::int32_t num_nodes() const { return spec_.node_count(); }

  // The engine a transport should host on node `id` (a JointEngine on joint
  // deployments).
  consensus::Engine* node_engine(consensus::NodeId id) {
    return node_order_[static_cast<std::size_t>(id)];
  }

  // Node ids that host a client (targets of the load manager's kStart).
  const std::vector<consensus::NodeId>& client_node_ids() const {
    return client_node_ids_;
  }

  consensus::Engine* replica_engine(consensus::NodeId r) {
    return replicas_[static_cast<std::size_t>(r)].get();
  }
  // The replica's applied machine (whatever spec.state_machine_factory
  // built; MapStateMachine by default). Callers that configured a custom
  // factory know the concrete type.
  consensus::StateMachine* state_machine(consensus::NodeId r) {
    return sms_[static_cast<std::size_t>(r)].get();
  }
  client::ClosedLoopClient* client(std::int32_t i) {
    return clients_[static_cast<std::size_t>(i)].get();
  }
  std::int32_t client_count() const { return static_cast<std::int32_t>(clients_.size()); }

  // Protocol-specific accessors (null when the spec runs another protocol).
  OnePaxosEngine* one_paxos(consensus::NodeId r);
  consensus::MultiPaxosEngine* multi_paxos(consensus::NodeId r);
  consensus::TwoPcEngine* two_pc(consensus::NodeId r);

  // ---- Client-side aggregation (live-readable: counters are atomics) ----
  bool clients_done() const;
  std::uint64_t total_committed() const;
  std::uint64_t total_issued() const;
  std::uint64_t total_local_reads() const;
  Histogram merged_latency() const;

  AgreementRecorder& recorder() { return recorder_; }
  const AgreementRecorder& recorder() const { return recorder_; }

  // Client + agreement side of a RunResult; the backend fills duration and
  // total_messages.
  RunResult collect() const;

 private:
  ClusterSpec spec_;
  std::vector<std::unique_ptr<consensus::StateMachine>> sms_;  // one per replica
  std::vector<std::unique_ptr<consensus::Engine>> replicas_;      // protocol engines
  std::vector<std::unique_ptr<client::ClosedLoopClient>> clients_;
  std::vector<std::unique_ptr<consensus::Engine>> joint_engines_;
  std::vector<consensus::Engine*> node_order_;  // what the transport hosts
  std::vector<consensus::NodeId> client_node_ids_;
  AgreementRecorder recorder_;
};

}  // namespace ci::core
