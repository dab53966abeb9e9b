// The rt backend under its own name: core::ThreadedCluster over QC-libtask
// message passing between pinned OS threads, mirroring the paper's setup
// (§7.1): replica nodes pinned to cores 0..R-1, clients on the following
// cores, and a load manager on the last core that releases the clients
// with a start message. See core/threaded_cluster.hpp.
#pragma once

#include "core/threaded_cluster.hpp"

namespace ci::rt {

using consensus::GroupId;
using core::ClusterSpec;
using core::Protocol;
using core::protocol_name;
using core::RunResult;
using core::ShardSpec;

class RtCluster : public core::ThreadedCluster {
 public:
  explicit RtCluster(const ClusterSpec& spec) : RtCluster(ShardSpec(spec)) {}
  explicit RtCluster(const ShardSpec& shard)
      : ThreadedCluster(core::Backend::kRt, shard) {}
};

}  // namespace ci::rt
