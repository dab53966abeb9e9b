// wallbench: wall-clock service benchmark on the real `net` and `rt`
// backends. One run = one workload, one seed, one measured window:
//
//   wallbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--inject-stall]
//   wallbench --list
//
// The run prints a human-readable table, then, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exit codes:
// 0 ok; 1 a correctness violation or an op never acknowledged (the JSON
// line is still printed); 2 bad arguments; 3 the measurement is void (the
// generator fell behind its schedule, or the service never came up).
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

#include "bench.hpp"

namespace wallbench {

namespace {

const std::vector<WorkloadDef> kWorkloads = {
    {"ycsb-a-1paxos", ci::core::Backend::kNet, ci::core::Protocol::kOnePaxos, Loop::kOpen,
     'A', 20000.0, 0, 0},
    {"lease-reads-sparse", ci::core::Backend::kNet, ci::core::Protocol::kMultiPaxos,
     Loop::kOpen, 'B', 2000.0, 0, 50 * kMillisecond},
    {"peak-rt", ci::core::Backend::kRt, ci::core::Protocol::kOnePaxos, Loop::kClosed, 'A',
     0.0, 64, 0},
    {"leader-kill", ci::core::Backend::kNet, ci::core::Protocol::kOnePaxos,
     Loop::kLeaderKill, 'A', 0.0, 1, 0},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "wallbench: %s\n"
               "usage: wallbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                 [--trace-out FILE] [--inject-stall]\n"
               "       wallbench --list\n",
               why);
  std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t v = 0;
    if (a == "--list") {
      for (const WorkloadDef& w : kWorkloads) std::printf("%s\n", w.name);
      std::exit(0);
    } else if (a == "--inject-stall") {
      o.inject_stall = true;
      continue;
    } else if (next == nullptr) {
      usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      o.workload = next;
      have_workload = true;
    } else if (a == "--seed") {
      if (!parse_u64(next, &v)) usage("--seed needs a non-negative integer");
      o.seed = v;
      have_seed = true;
    } else if (a == "--seconds") {
      if (!parse_u64(next, &v) || v < 1 || v > 600) usage("--seconds needs 1..600");
      o.seconds = static_cast<std::int32_t>(v);
      have_seconds = true;
    } else if (a == "--trace") {
      if (std::strcmp(next, "0") != 0 && std::strcmp(next, "1") != 0) {
        usage("--trace needs 0 or 1");
      }
      o.trace = next[0] == '1';
      have_trace = true;
    } else if (a == "--trace-out") {
      o.trace_out = next;
    } else {
      usage(("unknown argument " + a).c_str());
    }
    ++i;
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (find_workload(o.workload) == nullptr) usage(("unknown workload " + o.workload).c_str());
  return o;
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_json(const Report& rep, const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              rep.correct ? "true" : "false", static_cast<long long>(rep.attempted),
              static_cast<long long>(rep.failed));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

Nanos clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<Nanos>(ts.tv_sec) * kSecond + ts.tv_nsec;
}

}  // namespace

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

ci::harness::WorkloadProfile profile_for(const WorkloadDef& w, std::uint64_t seed) {
  ci::harness::WorkloadProfile p = ci::harness::WorkloadProfile::preset(w.ycsb);
  p.sessions = 1000;
  p.target_rate = w.rate;
  p.zipf_theta = 0.99;
  p.key_space = kKeySpace;
  p.value_bytes = 8;
  p.seed = seed;
  return p;
}

ci::consensus::BatchPolicy batch_policy() {
  ci::consensus::BatchPolicy b;
  b.max_commands = 64;
  b.flush_after = 200 * kMicrosecond;
  b.flush_mode = ci::consensus::BatchPolicy::FlushMode::kAdaptive;
  return b;
}

void configure_engine(const WorkloadDef& w, ci::consensus::EngineConfig* e) {
  e->batch = batch_policy();
  if (w.lease > 0) {
    e->lease_duration = w.lease;
    e->lease_epsilon = w.lease / 10;
  }
}

Nanos thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
Nanos service_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID) - thread_cpu_ns(); }

}  // namespace wallbench

int main(int argc, char** argv) {
  using namespace wallbench;
  const Options o = parse(argc, argv);
  const WorkloadDef& w = *find_workload(o.workload);
  std::printf("wallbench workload=%s seed=%llu seconds=%d trace=%d\n", w.name,
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  std::fflush(stdout);

  Report rep;
  if (w.loop == Loop::kLeaderKill) {
    run_leader_kill(w, o, &rep);
  } else {
    run_service(w, o, &rep);
  }
  if (o.trace && rep.invalid.empty()) {
    measure_layers(w, o, /*client_probe=*/w.loop == Loop::kLeaderKill, &rep);
  }

  for (const std::string& n : rep.notes) std::printf("note: %s\n", n.c_str());
  if (!rep.invalid.empty()) {
    std::fprintf(stderr, "wallbench: invalid run: %s\n", rep.invalid.c_str());
    return 3;
  }
  print_table("end-to-end", rep.end_to_end);
  if (o.trace) print_table("per-layer", rep.per_layer);
  for (const std::string& v : rep.violations) {
    std::fprintf(stderr, "wallbench: correctness violation: %s\n", v.c_str());
  }
  if (rep.failed > 0) {
    std::fprintf(stderr, "wallbench: %lld of %lld ops never acknowledged\n",
                 static_cast<long long>(rep.failed), static_cast<long long>(rep.attempted));
  }
  print_json(rep, o.trace ? rep.per_layer : rep.end_to_end);
  std::fflush(stdout);
  return rep.correct && rep.failed == 0 ? 0 : 1;
}
