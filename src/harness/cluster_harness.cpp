#include "harness/cluster_harness.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/check.hpp"
#include "core/threaded_cluster.hpp"
#include "sim/sim_cluster.hpp"

namespace ci::harness {
namespace {

// The single source of truth for the harness's flags (all value-taking:
// the space form consumes the next argv slot). flag_value() refuses names
// missing from this table, so the strict scanners below cannot drift from
// the parsers.
constexpr const char* kValueFlags[] = {"--backend", "--groups", "--placement",
                                       "--batch", "--batch-flush-us",
                                       "--flush-policy", "--client-coalesce",
                                       "--txn-mix", "--read-mix", "--lease-ms",
                                       "--sessions", "--target-rate", "--zipf",
                                       "--workload", "--value-bytes",
                                       "--net-port-base", "--net-registry",
                                       "--net-io-threads"};
// Valueless flags: presence is the whole message. --help is recognized by
// the strict scanners (print usage, exit 0) and always legal, so binaries
// need not list it in their consumed sets.
constexpr const char* kBoolFlags[] = {"--sweep-diff", "--help"};

bool is_harness_flag(const char* name) {
  for (const char* flag : kValueFlags) {
    if (std::strcmp(name, flag) == 0) return true;
  }
  return false;
}

// The one matcher both scanners share: how (if at all) `arg` invokes flag
// `name`. kSpace means the value sits in the NEXT argv slot.
enum class FlagForm { kNone, kEquals, kSpace };

FlagForm flag_form(const char* arg, const char* name) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return FlagForm::kNone;
  if (arg[n] == '=') return FlagForm::kEquals;
  if (arg[n] == '\0') return FlagForm::kSpace;
  return FlagForm::kNone;  // longer flag sharing the prefix (--groupsize)
}

RunResult run_sim_backend(const ShardSpec& shard, const RunPlan& plan) {
  sim::SimCluster c(shard);
  c.run(plan.warmup);
  const std::uint64_t committed_warm = c.total_committed();
  const std::uint64_t issued_warm = c.total_issued();
  const std::uint64_t local_reads_warm = c.sharded().total_local_reads();
  const std::uint64_t messages_warm = c.net().total_messages();
  const std::uint64_t bytes_warm = c.net().total_bytes();
  c.run(plan.warmup + plan.duration);
  const Nanos measured = std::max<Nanos>(c.net().now() - plan.warmup, 1);
  RunResult res = c.result(measured);
  res.committed -= committed_warm;
  res.issued -= issued_warm;
  res.local_reads -= local_reads_warm;
  res.total_messages -= messages_warm;
  res.total_bytes -= bytes_warm;
  return res;
}

// On rt and net alike: warm up, snapshot the live counters, measure, and
// subtract. On net, total_messages/total_bytes count actual frames and
// socket bytes (length prefix included), so msgs/op and bytes/op rows are
// honest wire numbers.
RunResult run_threaded_backend(Backend b, const ShardSpec& shard, const RunPlan& plan) {
  core::ThreadedCluster c(b, shard);
  c.start();
  const Nanos t0 = now_nanos();
  c.drive_until(t0 + plan.warmup);
  const std::uint64_t committed_warm = c.live_committed();
  const std::uint64_t issued_warm = c.live_issued();
  const std::uint64_t local_reads_warm = c.live_local_reads();
  const std::uint64_t messages_warm = c.live_messages();
  const std::uint64_t bytes_warm = c.live_bytes();
  const Nanos measure_start = now_nanos();
  c.drive_until(t0 + std::min(plan.warmup + plan.duration, plan.max_wall));
  const Nanos measured = std::max<Nanos>(now_nanos() - measure_start, 1);
  c.stop();
  RunResult res = c.collect();
  res.committed -= committed_warm;
  res.issued -= issued_warm;
  res.local_reads -= local_reads_warm;
  res.total_messages -= messages_warm;
  res.total_bytes -= bytes_warm;
  res.duration = measured;
  return res;
}

// Scans argv for `--name=value` or `--name value`. Returns the value, or
// nullptr when absent. A flag present without a value sets *malformed.
const char* flag_value(int argc, char** argv, const char* name, bool* malformed) {
  CI_CHECK_MSG(is_harness_flag(name), "flag not registered in kValueFlags");
  const char* found = nullptr;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    switch (flag_form(arg, name)) {
      case FlagForm::kNone:
        break;
      case FlagForm::kEquals:
        found = arg + std::strlen(name) + 1;
        break;
      case FlagForm::kSpace:
        if (i + 1 >= argc) {
          *malformed = true;
          return nullptr;
        }
        found = argv[++i];
        break;
    }
  }
  return found;
}

[[noreturn]] void usage_exit(const char* err) {
  std::fprintf(stderr, "%s\n", err);
  std::exit(2);
}

}  // namespace

bool parse_backend(const char* s, Backend* out) {
  if (std::strcmp(s, "sim") == 0) {
    *out = Backend::kSim;
    return true;
  }
  if (std::strcmp(s, "rt") == 0) {
    *out = Backend::kRt;
    return true;
  }
  if (std::strcmp(s, "net") == 0) {
    *out = Backend::kNet;
    return true;
  }
  return false;
}

bool parse_placement(const char* s, Placement* out) {
  if (std::strcmp(s, "group-major") == 0) {
    *out = Placement::kGroupMajor;
    return true;
  }
  if (std::strcmp(s, "interleaved") == 0) {
    *out = Placement::kInterleaved;
    return true;
  }
  if (std::strcmp(s, "colocated") == 0) {
    *out = Placement::kCoLocated;
    return true;
  }
  return false;
}

bool try_backend_from_args(int argc, char** argv, Backend def, Backend* out,
                           std::string* err) {
  *out = def;
  bool malformed = false;
  const char* value = flag_value(argc, argv, "--backend", &malformed);
  if (malformed) {
    *err = "--backend requires a value (expected --backend=sim|rt|net)";
    return false;
  }
  if (value == nullptr) return true;
  if (!parse_backend(value, out)) {
    *err = std::string("unknown backend '") + value +
           "' (expected --backend=sim|rt|net)";
    return false;
  }
  return true;
}

Backend backend_from_args(int argc, char** argv, Backend def) {
  Backend b = def;
  std::string err;
  if (!try_backend_from_args(argc, argv, def, &b, &err)) usage_exit(err.c_str());
  return b;
}

std::int32_t groups_from_args(int argc, char** argv, std::int32_t def) {
  bool malformed = false;
  const char* value = flag_value(argc, argv, "--groups", &malformed);
  if (malformed) usage_exit("--groups requires a value (expected --groups=N)");
  if (value == nullptr) return def;
  char* end = nullptr;
  const long n = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || n < 1 ||
      n > std::numeric_limits<std::int32_t>::max()) {
    std::fprintf(stderr, "bad group count '%s' (expected --groups=N, N >= 1)\n", value);
    std::exit(2);
  }
  return static_cast<std::int32_t>(n);
}

Placement placement_from_args(int argc, char** argv, Placement def) {
  bool malformed = false;
  const char* value = flag_value(argc, argv, "--placement", &malformed);
  if (malformed) {
    usage_exit("--placement requires a value (group-major|interleaved|colocated)");
  }
  if (value == nullptr) return def;
  Placement p = def;
  if (!parse_placement(value, &p)) {
    std::fprintf(stderr,
                 "unknown placement '%s' (expected group-major|interleaved|colocated)\n",
                 value);
    std::exit(2);
  }
  return p;
}

ShardSpec shard_from_args(int argc, char** argv, const ClusterSpec& base) {
  return ShardSpec(base, groups_from_args(argc, argv), placement_from_args(argc, argv));
}

bool try_batch_from_args(int argc, char** argv, std::int32_t def, std::int32_t* out,
                         std::string* err) {
  *out = def;
  bool malformed = false;
  const char* value = flag_value(argc, argv, "--batch", &malformed);
  if (malformed) {
    *err = "--batch requires a value (expected --batch=N, 1 <= N <= " +
           std::to_string(consensus::kMaxCommandsPerBatch) + ")";
    return false;
  }
  if (value == nullptr) return true;
  char* end = nullptr;
  const long n = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || n < 1 || n > consensus::kMaxCommandsPerBatch) {
    *err = std::string("bad batch size '") + value + "' (expected --batch=N, 1 <= N <= " +
           std::to_string(consensus::kMaxCommandsPerBatch) + ")";
    return false;
  }
  *out = static_cast<std::int32_t>(n);
  return true;
}

std::int32_t batch_from_args(int argc, char** argv, std::int32_t def) {
  std::int32_t n = def;
  std::string err;
  if (!try_batch_from_args(argc, argv, def, &n, &err)) usage_exit(err.c_str());
  return n;
}

bool try_batch_flush_from_args(int argc, char** argv, Nanos def, Nanos* out,
                               std::string* err) {
  *out = def;
  bool malformed = false;
  const char* value = flag_value(argc, argv, "--batch-flush-us", &malformed);
  if (malformed) {
    *err = "--batch-flush-us requires a value (expected --batch-flush-us=T, T >= 0)";
    return false;
  }
  if (value == nullptr) return true;
  char* end = nullptr;
  const long long t = std::strtoll(value, &end, 10);
  // Bounded so the microsecond->nanosecond multiply cannot overflow (and
  // strtoll's silent clamp to LLONG_MAX cannot sneak through): an hour is
  // far beyond any sane flush timer.
  constexpr long long kMaxFlushUs = 3600LL * 1000 * 1000;
  if (end == value || *end != '\0' || t < 0 || t > kMaxFlushUs) {
    *err = std::string("bad flush timeout '") + value +
           "' (expected --batch-flush-us=T microseconds, 0 <= T <= 3600000000)";
    return false;
  }
  *out = static_cast<Nanos>(t) * kMicrosecond;
  return true;
}

Nanos batch_flush_from_args(int argc, char** argv, Nanos def) {
  Nanos t = def;
  std::string err;
  if (!try_batch_flush_from_args(argc, argv, def, &t, &err)) usage_exit(err.c_str());
  return t;
}

bool try_flush_policy_from_args(int argc, char** argv,
                                consensus::BatchPolicy::FlushMode def,
                                consensus::BatchPolicy::FlushMode* out,
                                std::string* err) {
  *out = def;
  bool malformed = false;
  const char* value = flag_value(argc, argv, "--flush-policy", &malformed);
  if (malformed) {
    *err = "--flush-policy requires a value (expected --flush-policy=fixed|adaptive)";
    return false;
  }
  if (value == nullptr) return true;
  if (std::strcmp(value, "fixed") == 0) {
    *out = consensus::BatchPolicy::FlushMode::kFixed;
    return true;
  }
  if (std::strcmp(value, "adaptive") == 0) {
    *out = consensus::BatchPolicy::FlushMode::kAdaptive;
    return true;
  }
  *err = std::string("unknown flush policy '") + value +
         "' (expected --flush-policy=fixed|adaptive)";
  return false;
}

consensus::BatchPolicy::FlushMode flush_policy_from_args(
    int argc, char** argv, consensus::BatchPolicy::FlushMode def) {
  consensus::BatchPolicy::FlushMode m = def;
  std::string err;
  if (!try_flush_policy_from_args(argc, argv, def, &m, &err)) usage_exit(err.c_str());
  return m;
}

consensus::BatchPolicy batch_policy_from_args(int argc, char** argv) {
  consensus::BatchPolicy policy;
  policy.max_commands = batch_from_args(argc, argv);
  policy.flush_after = batch_flush_from_args(argc, argv);
  policy.flush_mode = flush_policy_from_args(argc, argv);
  return policy;
}

bool try_client_coalesce_from_args(int argc, char** argv, std::int32_t def,
                                   std::int32_t* out, std::string* err) {
  *out = def;
  bool malformed = false;
  const char* value = flag_value(argc, argv, "--client-coalesce", &malformed);
  if (malformed) {
    *err = "--client-coalesce requires a value (expected --client-coalesce=N, 1 <= N <= " +
           std::to_string(consensus::kMaxClientBatchCommands) + ")";
    return false;
  }
  if (value == nullptr) return true;
  char* end = nullptr;
  const long n = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || n < 1 || n > consensus::kMaxClientBatchCommands) {
    *err = std::string("bad coalesce window '") + value +
           "' (expected --client-coalesce=N, 1 <= N <= " +
           std::to_string(consensus::kMaxClientBatchCommands) + ")";
    return false;
  }
  *out = static_cast<std::int32_t>(n);
  return true;
}

std::int32_t client_coalesce_from_args(int argc, char** argv, std::int32_t def) {
  std::int32_t n = def;
  std::string err;
  if (!try_client_coalesce_from_args(argc, argv, def, &n, &err)) usage_exit(err.c_str());
  return n;
}

bool try_txn_mix_from_args(int argc, char** argv, double def, double* out,
                          std::string* err) {
  *out = def;
  bool malformed = false;
  const char* value = flag_value(argc, argv, "--txn-mix", &malformed);
  if (malformed) {
    *err = "--txn-mix requires a value (expected --txn-mix=P, 0 <= P <= 1)";
    return false;
  }
  if (value == nullptr) return true;
  char* end = nullptr;
  const double p = std::strtod(value, &end);
  if (end == value || *end != '\0' || !(p >= 0.0) || !(p <= 1.0)) {
    *err = std::string("bad txn mix '") + value +
           "' (expected --txn-mix=P, a fraction 0 <= P <= 1)";
    return false;
  }
  *out = p;
  return true;
}

double txn_mix_from_args(int argc, char** argv, double def) {
  double p = def;
  std::string err;
  if (!try_txn_mix_from_args(argc, argv, def, &p, &err)) usage_exit(err.c_str());
  return p;
}

bool try_read_mix_from_args(int argc, char** argv, double def, double* out,
                            std::string* err) {
  *out = def;
  bool malformed = false;
  const char* value = flag_value(argc, argv, "--read-mix", &malformed);
  if (malformed) {
    *err = "--read-mix requires a value (expected --read-mix=P, 0 <= P <= 1)";
    return false;
  }
  if (value == nullptr) return true;
  char* end = nullptr;
  const double p = std::strtod(value, &end);
  // !(p >= 0) also rejects NaN, which every ordered comparison fails.
  if (end == value || *end != '\0' || !(p >= 0.0) || !(p <= 1.0)) {
    *err = std::string("bad read mix '") + value +
           "' (expected --read-mix=P, a fraction 0 <= P <= 1)";
    return false;
  }
  *out = p;
  return true;
}

double read_mix_from_args(int argc, char** argv, double def) {
  double p = def;
  std::string err;
  if (!try_read_mix_from_args(argc, argv, def, &p, &err)) usage_exit(err.c_str());
  return p;
}

bool try_lease_ms_from_args(int argc, char** argv, Nanos def, Nanos* out,
                            std::string* err) {
  *out = def;
  bool malformed = false;
  const char* value = flag_value(argc, argv, "--lease-ms", &malformed);
  if (malformed) {
    *err = "--lease-ms requires a value (expected --lease-ms=T, T >= 0)";
    return false;
  }
  if (value == nullptr) return true;
  char* end = nullptr;
  const long long t = std::strtoll(value, &end, 10);
  // Bounded so the millisecond->nanosecond multiply cannot overflow (and a
  // strtoll clamp to LLONG_MAX cannot sneak through); an hour-long lease is
  // far beyond any sane failover budget.
  constexpr long long kMaxLeaseMs = 3600LL * 1000;
  if (end == value || *end != '\0' || t < 0 || t > kMaxLeaseMs) {
    *err = std::string("bad lease duration '") + value +
           "' (expected --lease-ms=T milliseconds, 0 <= T <= 3600000; 0 = off)";
    return false;
  }
  *out = static_cast<Nanos>(t) * kMillisecond;
  return true;
}

Nanos lease_ms_from_args(int argc, char** argv, Nanos def) {
  Nanos t = def;
  std::string err;
  if (!try_lease_ms_from_args(argc, argv, def, &t, &err)) usage_exit(err.c_str());
  return t;
}

bool try_sessions_from_args(int argc, char** argv, std::int64_t def,
                            std::int64_t* out, std::string* err) {
  *out = def;
  bool malformed = false;
  const char* value = flag_value(argc, argv, "--sessions", &malformed);
  if (malformed) {
    *err = "--sessions requires a value (expected --sessions=N, 1 <= N <= 1000000)";
    return false;
  }
  if (value == nullptr) return true;
  char* end = nullptr;
  const long long n = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0' || n < 1 || n > 1000000) {
    *err = std::string("bad session count '") + value +
           "' (expected --sessions=N, 1 <= N <= 1000000)";
    return false;
  }
  *out = static_cast<std::int64_t>(n);
  return true;
}

std::int64_t sessions_from_args(int argc, char** argv, std::int64_t def) {
  std::int64_t n = def;
  std::string err;
  if (!try_sessions_from_args(argc, argv, def, &n, &err)) usage_exit(err.c_str());
  return n;
}

bool try_target_rate_from_args(int argc, char** argv, double def, double* out,
                               std::string* err) {
  *out = def;
  bool malformed = false;
  const char* value = flag_value(argc, argv, "--target-rate", &malformed);
  if (malformed) {
    *err = "--target-rate requires a value (expected --target-rate=R ops/sec, "
           "0 <= R <= 1e9; 0 = closed loop)";
    return false;
  }
  if (value == nullptr) return true;
  char* end = nullptr;
  const double r = std::strtod(value, &end);
  // !(r >= 0) also rejects NaN; the ceiling keeps nanosecond gap math sane
  // (1e9 ops/sec is already a 1 ns inter-arrival).
  if (end == value || *end != '\0' || !(r >= 0.0) || !(r <= 1e9)) {
    *err = std::string("bad target rate '") + value +
           "' (expected --target-rate=R ops/sec, 0 <= R <= 1e9; 0 = closed loop)";
    return false;
  }
  *out = r;
  return true;
}

double target_rate_from_args(int argc, char** argv, double def) {
  double r = def;
  std::string err;
  if (!try_target_rate_from_args(argc, argv, def, &r, &err)) usage_exit(err.c_str());
  return r;
}

bool try_zipf_from_args(int argc, char** argv, double def, double* out,
                        std::string* err) {
  *out = def;
  bool malformed = false;
  const char* value = flag_value(argc, argv, "--zipf", &malformed);
  if (malformed) {
    *err = "--zipf requires a value (expected --zipf=T, 0 <= T < 1)";
    return false;
  }
  if (value == nullptr) return true;
  char* end = nullptr;
  const double t = std::strtod(value, &end);
  // The zeta-series formula diverges at theta = 1, so the bound is strict.
  if (end == value || *end != '\0' || !(t >= 0.0) || !(t < 1.0)) {
    *err = std::string("bad zipf theta '") + value +
           "' (expected --zipf=T, 0 <= T < 1; 0 = uniform)";
    return false;
  }
  *out = t;
  return true;
}

double zipf_from_args(int argc, char** argv, double def) {
  double t = def;
  std::string err;
  if (!try_zipf_from_args(argc, argv, def, &t, &err)) usage_exit(err.c_str());
  return t;
}

bool try_workload_from_args(int argc, char** argv, char def, char* out,
                            std::string* err) {
  *out = def;
  bool malformed = false;
  const char* value = flag_value(argc, argv, "--workload", &malformed);
  if (malformed) {
    *err = "--workload requires a value (expected --workload=A..F)";
    return false;
  }
  if (value == nullptr) return true;
  if (value[0] < 'A' || value[0] > 'F' || value[1] != '\0') {
    *err = std::string("unknown workload preset '") + value +
           "' (expected --workload=A..F, the YCSB presets)";
    return false;
  }
  *out = value[0];
  return true;
}

char workload_from_args(int argc, char** argv, char def) {
  char w = def;
  std::string err;
  if (!try_workload_from_args(argc, argv, def, &w, &err)) usage_exit(err.c_str());
  return w;
}

bool try_value_bytes_from_args(int argc, char** argv, std::int32_t def,
                               std::int32_t* out, std::string* err) {
  *out = def;
  bool malformed = false;
  const char* value = flag_value(argc, argv, "--value-bytes", &malformed);
  if (malformed) {
    *err = "--value-bytes requires a value (expected --value-bytes=V, 1 <= V <= 128)";
    return false;
  }
  if (value == nullptr) return true;
  char* end = nullptr;
  const long v = std::strtol(value, &end, 10);
  // 128 = 8 fragment commands of 16 payload bytes, the widest record one
  // client batch frame can carry (harness/workload.hpp).
  if (end == value || *end != '\0' || v < 1 || v > 128) {
    *err = std::string("bad value size '") + value +
           "' (expected --value-bytes=V, 1 <= V <= 128)";
    return false;
  }
  *out = static_cast<std::int32_t>(v);
  return true;
}

std::int32_t value_bytes_from_args(int argc, char** argv, std::int32_t def) {
  std::int32_t v = def;
  std::string err;
  if (!try_value_bytes_from_args(argc, argv, def, &v, &err)) usage_exit(err.c_str());
  return v;
}

bool try_net_port_base_from_args(int argc, char** argv, std::int32_t def,
                                 std::int32_t* out, std::string* err) {
  *out = def;
  bool malformed = false;
  const char* value = flag_value(argc, argv, "--net-port-base", &malformed);
  if (malformed) {
    *err = "--net-port-base requires a value (expected --net-port-base=P, "
           "0 <= P <= 65535; 0 = ephemeral)";
    return false;
  }
  if (value == nullptr) return true;
  char* end = nullptr;
  const long p = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || p < 0 || p > 65535) {
    *err = std::string("bad net port base '") + value +
           "' (expected --net-port-base=P, 0 <= P <= 65535; 0 = ephemeral)";
    return false;
  }
  *out = static_cast<std::int32_t>(p);
  return true;
}

std::int32_t net_port_base_from_args(int argc, char** argv, std::int32_t def) {
  std::int32_t p = def;
  std::string err;
  if (!try_net_port_base_from_args(argc, argv, def, &p, &err)) usage_exit(err.c_str());
  return p;
}

bool try_net_registry_from_args(int argc, char** argv, const std::string& def,
                                std::string* out, std::string* err) {
  *out = def;
  bool malformed = false;
  const char* value = flag_value(argc, argv, "--net-registry", &malformed);
  if (malformed) {
    *err = "--net-registry requires a value (expected --net-registry=host:port)";
    return false;
  }
  if (value == nullptr) return true;
  net::Endpoint ep;
  if (!net::parse_endpoint(value, &ep)) {
    *err = std::string("bad registry endpoint '") + value +
           "' (expected --net-registry=host:port)";
    return false;
  }
  *out = value;
  return true;
}

std::string net_registry_from_args(int argc, char** argv, const std::string& def) {
  std::string at = def;
  std::string err;
  if (!try_net_registry_from_args(argc, argv, def, &at, &err)) usage_exit(err.c_str());
  return at;
}

bool try_net_io_threads_from_args(int argc, char** argv, std::int32_t def,
                                  std::int32_t* out, std::string* err) {
  *out = def;
  bool malformed = false;
  const char* value = flag_value(argc, argv, "--net-io-threads", &malformed);
  if (malformed) {
    *err = "--net-io-threads requires a value (expected --net-io-threads=N, "
           "0 <= N <= 64; 0 = nodes flush their own sockets)";
    return false;
  }
  if (value == nullptr) return true;
  char* end = nullptr;
  const long n = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || n < 0 || n > 64) {
    *err = std::string("bad io-thread count '") + value +
           "' (expected --net-io-threads=N, 0 <= N <= 64; 0 = nodes flush "
           "their own sockets)";
    return false;
  }
  *out = static_cast<std::int32_t>(n);
  return true;
}

std::int32_t net_io_threads_from_args(int argc, char** argv, std::int32_t def) {
  std::int32_t n = def;
  std::string err;
  if (!try_net_io_threads_from_args(argc, argv, def, &n, &err)) usage_exit(err.c_str());
  return n;
}

core::NetParams net_params_from_args(int argc, char** argv) {
  core::NetParams net;
  net.port_base = static_cast<std::uint16_t>(net_port_base_from_args(argc, argv));
  net.registry = net_registry_from_args(argc, argv);
  net.io_threads = net_io_threads_from_args(argc, argv);
  return net;
}

const char* usage_text() {
  return
      "harness flags (all binaries in bench/ and examples/ accept the subset\n"
      "they consume; anything else exits 2):\n"
      "  --backend=sim|rt|net      runtime: deterministic simulator, pinned\n"
      "                            threads, or a TCP socket mesh\n"
      "  --groups=N                consensus groups to shard over (N >= 1)\n"
      "  --placement=group-major|interleaved|colocated\n"
      "                            how groups map onto transport nodes\n"
      "  --batch=N                 commands per agreement instance (1 <= N <= 64)\n"
      "  --batch-flush-us=T        max microseconds a partial batch waits (T >= 0)\n"
      "  --flush-policy=fixed|adaptive\n"
      "                            partial-batch hold rule: full timer, or flush\n"
      "                            early when arrivals look sparse\n"
      "  --client-coalesce=N       commands per client-side kClientCmdBatch frame\n"
      "                            (1 <= N <= 8; 1 = legacy per-command frames)\n"
      "  --txn-mix=P               fraction of ops issued as cross-shard\n"
      "                            transactions (0 <= P <= 1)\n"
      "  --read-mix=P              fraction of workload ops issued as reads\n"
      "                            (0 <= P <= 1)\n"
      "  --lease-ms=T              leader lease duration in milliseconds\n"
      "                            (T >= 0; 0 = leases off, reads replicate)\n"
      "  --sessions=N              logical open-loop sessions to emulate\n"
      "                            (1 <= N <= 1000000)\n"
      "  --target-rate=R           aggregate open-loop arrival rate in ops/sec\n"
      "                            (0 <= R <= 1e9; 0 = closed loop)\n"
      "  --zipf=T                  zipfian key-skew theta (0 <= T < 1; 0 = uniform)\n"
      "  --workload=A..F           YCSB preset selecting the op mix\n"
      "  --value-bytes=V           record payload size in bytes (1 <= V <= 128)\n"
      "  --net-port-base=P         net backend: node i listens on port P + i\n"
      "                            (0 <= P <= 65535; 0 = ephemeral ports)\n"
      "  --net-registry=host:port  net backend: where the bootstrap registry\n"
      "                            binds (default: loopback, ephemeral port)\n"
      "  --net-io-threads=N        net backend: dedicated socket-flusher threads\n"
      "                            (0 <= N <= 64; 0 = nodes flush their own)\n"
      "  --sweep-diff              also run the spec on the other backends and\n"
      "                            diff the result shapes\n"
      "  --help                    print this text and exit\n"
      "Flags take --name=value or --name value form; the last occurrence wins.\n";
}

namespace {

// Walks argv once; calls on_positional for every non-flag argument and
// exits(2) on a dash-prefixed argument that is not a harness flag, a flag
// missing its space-form value, or (with a non-empty `consumed` list) a
// harness flag the binary never reads.
template <typename Fn>
void scan_args(int argc, char** argv, std::initializer_list<const char*> consumed,
               Fn on_positional) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (arg[0] != '-') {
      on_positional(arg);
      continue;
    }
    if (std::strcmp(arg, "--help") == 0) {
      std::fputs(usage_text(), stdout);
      std::exit(0);
    }
    bool known = false;
    for (const char* flag : kBoolFlags) {
      if (std::strcmp(arg, flag) != 0) continue;
      if (consumed.size() > 0 &&
          std::find_if(consumed.begin(), consumed.end(), [flag](const char* c) {
            return std::strcmp(c, flag) == 0;
          }) == consumed.end()) {
        std::fprintf(stderr, "flag '%s' is not used by this binary\n", flag);
        std::exit(2);
      }
      known = true;
      break;
    }
    for (const char* flag : kValueFlags) {
      if (known) break;
      const FlagForm form = flag_form(arg, flag);
      if (form == FlagForm::kNone) continue;
      if (consumed.size() > 0 &&
          std::find_if(consumed.begin(), consumed.end(), [flag](const char* c) {
            return std::strcmp(c, flag) == 0;
          }) == consumed.end()) {
        std::fprintf(stderr, "flag '%s' is not used by this binary\n", flag);
        std::exit(2);
      }
      if (form == FlagForm::kSpace) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "%s requires a value\n", flag);
          std::exit(2);
        }
        ++i;  // skip its value
      }
      known = true;
      break;
    }
    if (!known) {
      std::fprintf(stderr,
                   "unknown flag '%s' (harness flags: --backend, --groups, --placement, "
                   "--batch, --batch-flush-us, --flush-policy, --client-coalesce, "
                   "--txn-mix, --read-mix, --lease-ms, --sessions, --target-rate, "
                   "--zipf, --workload, --value-bytes, --net-port-base, "
                   "--net-registry, --net-io-threads, --sweep-diff, --help)\n",
                   arg);
      std::exit(2);
    }
  }
}

}  // namespace

std::vector<std::string> positional_args(int argc, char** argv) {
  std::vector<std::string> out;
  scan_args(argc, argv, {}, [&out](const char* arg) { out.emplace_back(arg); });
  return out;
}

void require_harness_flags_only(int argc, char** argv,
                                std::initializer_list<const char*> consumed) {
  scan_args(argc, argv, consumed, [](const char*) {});
}

RunResult run(Backend b, const ShardSpec& shard, const RunPlan& plan) {
  return b == Backend::kSim ? run_sim_backend(shard, plan)
                            : run_threaded_backend(b, shard, plan);
}

RunResult run(Backend b, const ClusterSpec& spec, const RunPlan& plan) {
  return run(b, ShardSpec(spec), plan);
}

bool sweep_diff_from_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sweep-diff") == 0) return true;
  }
  return false;
}

namespace {

// One formatted complaint; keeps the shape checks below readable.
void mismatch(std::vector<std::string>* out, const std::string& what) {
  out->push_back(what);
}

}  // namespace

SweepDiffN sweep_diff(const std::vector<Backend>& backends, const ShardSpec& shard,
                      const RunPlan& plan) {
  CI_CHECK_MSG(!backends.empty(), "sweep_diff needs at least one backend");
  for (std::size_t i = 0; i < backends.size(); ++i) {
    for (std::size_t j = i + 1; j < backends.size(); ++j) {
      CI_CHECK_MSG(backends[i] != backends[j], "duplicate backend in sweep_diff list");
    }
  }

  SweepDiffN d;
  // One logical spec, one runtime per requested backend. Each side gets its
  // backend's timeout profile (virtual microsecond timers vs real
  // oversubscribed threads/sockets) — the same adaptation every
  // cross-backend comparison in the repo makes.
  for (const Backend b : backends) {
    ShardSpec side = shard;
    side.base.apply_backend_profile(b);
    d.runs.push_back({b, run(b, side, plan)});
  }
  auto* m = &d.mismatches;

  const std::uint64_t per_client = shard.base.workload.requests_per_client;
  for (const BackendRun& r : d.runs) {
    const std::string who = core::backend_name(r.backend);

    // Safety shape: agreement must hold on every backend, full stop.
    if (!r.result.consistent) {
      mismatch(m, who + " run inconsistent (cross-replica disagreement)");
    }

    // Liveness shape: every backend makes progress on the same spec.
    if (r.result.committed == 0) mismatch(m, who + " committed nothing");

    // Quota shape: a closed-loop request quota must complete on every side —
    // the one throughput-independent count the backends can agree on exactly.
    if (per_client > 0) {
      const std::uint64_t quota = per_client *
                                  static_cast<std::uint64_t>(shard.base.client_count()) *
                                  static_cast<std::uint64_t>(shard.groups);
      if (r.result.committed != quota) {
        mismatch(m, who + " committed " + std::to_string(r.result.committed) +
                        " of a " + std::to_string(quota) + "-request quota");
      }
    }
  }

  // Amortization shape: messages per committed op is a structural property
  // of the protocol/batch configuration, not of the clock — every backend
  // must land within an order of magnitude of the FIRST one (by convention
  // sim, the deterministic reference; rt/net retries under an oversubscribed
  // machine account for the slack — trust shapes, not numbers).
  const BackendRun& ref = d.runs.front();
  if (ref.result.committed > 0) {
    const double ref_mpo = static_cast<double>(ref.result.total_messages) /
                           static_cast<double>(ref.result.committed);
    for (std::size_t i = 1; i < d.runs.size(); ++i) {
      const BackendRun& r = d.runs[i];
      if (r.result.committed == 0) continue;
      const double mpo = static_cast<double>(r.result.total_messages) /
                         static_cast<double>(r.result.committed);
      if (ref_mpo > 0 && mpo > 0 && (mpo / ref_mpo > 10.0 || ref_mpo / mpo > 10.0)) {
        mismatch(m, std::string("msgs/op diverged: ") + core::backend_name(ref.backend) +
                        " " + std::to_string(ref_mpo) + " vs " +
                        core::backend_name(r.backend) + " " + std::to_string(mpo));
      }
    }
  }
  return d;
}

SweepDiff sweep_diff(const ShardSpec& shard, const RunPlan& plan) {
  SweepDiffN n = sweep_diff({Backend::kSim, Backend::kRt}, shard, plan);
  SweepDiff d;
  d.sim = n.runs[0].result;
  d.rt = n.runs[1].result;
  d.mismatches = std::move(n.mismatches);
  return d;
}

}  // namespace ci::harness
