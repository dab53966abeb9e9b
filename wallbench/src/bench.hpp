// Shared types of the wall-clock benchmark: command-line options, the
// workload table, the report every run fills, and the write log that backs
// the correctness gate.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/time.hpp"
#include "consensus/batch.hpp"
#include "core/cluster_spec.hpp"
#include "harness/workload.hpp"
#include "trace.hpp"

namespace wallbench {

using ci::kMicrosecond;
using ci::kMillisecond;
using ci::kSecond;
using ci::now_nanos;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::int32_t seconds = 10;  // length of the measured window
  bool trace = false;         // per-layer run: spans, counters, layer timings
  std::string trace_out;      // where the traced run writes its spans (CSV)
  // Self-test fault: once measuring starts, stall every replica so no op
  // can complete. The run must still end inside its wall-time cap, with the
  // stuck ops counted as failed.
  bool inject_stall = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;       // human-readable lines for the log
  std::vector<std::string> violations;  // correctness failures (any => exit 1)
  std::string invalid;                  // non-empty: the measurement is void

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void violation(const std::string& what) {
    correct = false;
    if (violations.size() < 20) violations.push_back(what);
  }
};

// How a workload offers load.
enum class Loop {
  kOpen,        // Poisson arrivals on a fixed schedule (harness::ArrivalGen)
  kClosed,      // `depth` ops always in flight on one conduit
  kLeaderKill,  // net::NetCluster closed-loop client, leader fail-stopped
};

struct WorkloadDef {
  const char* name;
  ci::core::Backend backend;
  ci::core::Protocol protocol;
  Loop loop;
  char ycsb;                    // YCSB preset (A: 50/50, B: 95/5 read/update)
  double rate;                  // open loop: arrivals per second
  std::int32_t depth;           // closed loop: ops in flight
  ci::Nanos lease;              // leader lease (0 = off)
};

const WorkloadDef* find_workload(const std::string& name);

// Every workload's arrival generator: zipf 0.99 over kKeySpace keys,
// 1000 logical sessions, 8-byte values (one command per op).
inline constexpr std::uint64_t kKeySpace = 20000;
ci::harness::WorkloadProfile profile_for(const WorkloadDef& w, std::uint64_t seed);

// The leader batch policy every workload runs: up to 64 commands per
// instance, adaptive flush with a 200 us hold budget.
ci::consensus::BatchPolicy batch_policy();

// The engine knobs a workload sets: batch_policy(), and its leader lease
// (epsilon a tenth of it) when it has one.
void configure_engine(const WorkloadDef& w, ci::consensus::EngineConfig* e);

// Correctness gate: every written value is unique to one write, so a read
// result (or a write's returned previous value) is checkable exactly — it
// must be 0 or the value of some issued write to the same key. The log
// grows in fixed blocks, never by copying, so recording a write costs the
// load thread the same at any point of a run.
class WriteLog {
 public:
  // Registers a write to `key`; returns the value it must carry.
  std::uint64_t next_value(std::uint64_t key) {
    CI_CHECK(key <= UINT32_MAX);
    if (size_ % kBlock == 0) blocks_.emplace_back(new std::uint32_t[kBlock]);
    blocks_[size_ / kBlock][size_ % kBlock] = static_cast<std::uint32_t>(key);
    return ++size_;  // values are 1-based write indices
  }
  bool plausible(std::uint64_t key, std::uint64_t result) const {
    if (result == 0) return true;
    if (result > size_) return false;
    const std::uint64_t i = result - 1;
    return blocks_[i / kBlock][i % kBlock] == key;
  }

 private:
  static constexpr std::uint64_t kBlock = std::uint64_t{1} << 20;
  std::vector<std::unique_ptr<std::uint32_t[]>> blocks_;
  std::uint64_t size_ = 0;
};

// The three ways a run is driven (service_load.cpp, leader_kill.cpp) and
// the standalone layer timings every traced run adds (layers.cpp).
void run_service(const WorkloadDef& w, const Options& o, Report* rep);
void run_leader_kill(const WorkloadDef& w, const Options& o, Report* rep);
// Median failover (ms) over a few leader-kill trials of w's protocol
// configuration on the net mesh; the service workloads' failover_ms.
double failover_probe(const WorkloadDef& w, const Options& o, Report* rep);
// `client_probe` adds client.submit_ns from a standalone AsyncClientEngine
// for workloads whose live run makes no Session::submit call.
void measure_layers(const WorkloadDef& w, const Options& o, bool client_probe, Report* rep);

// Process CPU time minus the calling thread's, in ns: the service's share
// of the CPU while the load thread spins on the schedule.
ci::Nanos service_cpu_ns();
ci::Nanos thread_cpu_ns();

}  // namespace wallbench
