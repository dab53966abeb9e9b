// The net backend under its own name: core::ThreadedCluster over a TCP
// socket mesh bootstrapped by an in-process registry (spec.net), with
// kill_node() as a genuine fail-stop — the node drops every socket and its
// peers see EOF. See core/threaded_cluster.hpp.
#pragma once

#include "core/threaded_cluster.hpp"

namespace ci::net {

using core::ClusterSpec;
using core::RunResult;
using core::ShardSpec;

class NetCluster : public core::ThreadedCluster {
 public:
  explicit NetCluster(const ClusterSpec& spec) : NetCluster(ShardSpec(spec)) {}
  explicit NetCluster(const ShardSpec& shard)
      : ThreadedCluster(core::Backend::kNet, shard) {}
};

}  // namespace ci::net
