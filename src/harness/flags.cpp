#include "harness/flags.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string_view>

#include "common/check.hpp"
#include "net/endpoint.hpp"

namespace ci::harness {
namespace {

enum class Kind { kInt, kDouble, kEnum, kEndpoint, kBool };

// One parsed value, before it lands in its Flags field.
struct Value {
  long long i = 0;          // kInt (already scaled), kEnum (choice index), kBool (1)
  double d = 0;             // kDouble
  const char* s = nullptr;  // kEndpoint
};

struct Row {
  Flag id;
  const char* name;
  Kind kind;
  // The value's placeholder in messages and help ("N", "P", "T", ...);
  // for kEnum, the '|'-separated choices, matched exactly.
  const char* shape = "";
  // Inclusive bounds (kInt, kDouble), in the unit the user types.
  double lo = 0;
  double hi = 0;
  // kInt: multiplier from the typed unit to the field's (µs/ms -> ns).
  long long scale = 1;
  const char* help;
  void (*store)(const Value&, Flags*);
};

constexpr Backend kBackends[] = {Backend::kSim, Backend::kRt, Backend::kNet};
constexpr Placement kPlacements[] = {Placement::kGroupMajor, Placement::kInterleaved,
                                     Placement::kCoLocated};
constexpr consensus::BatchPolicy::FlushMode kFlushModes[] = {
    consensus::BatchPolicy::FlushMode::kFixed, consensus::BatchPolicy::FlushMode::kAdaptive};

// The single source of truth for the command line: parsing, error
// messages, the unknown-flag list and --help are all generated from it.
constexpr Row kTable[] = {
    {.id = Flag::kBackend, .name = "--backend", .kind = Kind::kEnum, .shape = "sim|rt|net",
     .help = "runtime: deterministic simulator, pinned threads, or a TCP socket mesh",
     .store = [](const Value& v, Flags* f) { f->backend = kBackends[v.i]; }},
    {.id = Flag::kGroups, .name = "--groups", .kind = Kind::kInt, .shape = "N", .lo = 1,
     .hi = std::numeric_limits<std::int32_t>::max(),
     .help = "consensus groups to shard over",
     .store = [](const Value& v, Flags* f) { f->groups = static_cast<std::int32_t>(v.i); }},
    {.id = Flag::kPlacement, .name = "--placement", .kind = Kind::kEnum,
     .shape = "group-major|interleaved|colocated",
     .help = "how groups map onto transport nodes",
     .store = [](const Value& v, Flags* f) { f->placement = kPlacements[v.i]; }},
    {.id = Flag::kBatch, .name = "--batch", .kind = Kind::kInt, .shape = "N", .lo = 1,
     .hi = consensus::kMaxCommandsPerBatch,
     .help = "commands per agreement instance; 1 = unbatched",
     .store = [](const Value& v, Flags* f) {
       f->batch.max_commands = static_cast<std::int32_t>(v.i);
     }},
    // Bounded so the µs -> ns multiply cannot overflow: an hour is far
    // beyond any sane flush timer.
    {.id = Flag::kBatchFlushUs, .name = "--batch-flush-us", .kind = Kind::kInt, .shape = "T",
     .lo = 0, .hi = 3600.0 * 1000 * 1000, .scale = kMicrosecond,
     .help = "microseconds a partial batch may wait; 0 = flush at once",
     .store = [](const Value& v, Flags* f) { f->batch.flush_after = v.i; }},
    {.id = Flag::kFlushPolicy, .name = "--flush-policy", .kind = Kind::kEnum,
     .shape = "fixed|adaptive",
     .help = "partial-batch hold: the full timer, or flush early when arrivals look sparse",
     .store = [](const Value& v, Flags* f) { f->batch.flush_mode = kFlushModes[v.i]; }},
    {.id = Flag::kTxnMix, .name = "--txn-mix", .kind = Kind::kDouble, .shape = "P", .lo = 0,
     .hi = 1, .help = "fraction of ops issued as cross-shard transactions",
     .store = [](const Value& v, Flags* f) { f->txn_mix = v.d; }},
    {.id = Flag::kReadMix, .name = "--read-mix", .kind = Kind::kDouble, .shape = "P",
     .lo = 0, .hi = 1, .help = "fraction of workload ops issued as reads",
     .store = [](const Value& v, Flags* f) { f->read_mix = v.d; }},
    // Bounded like --batch-flush-us: an hour-long lease is far beyond any
    // sane failover budget.
    {.id = Flag::kLeaseMs, .name = "--lease-ms", .kind = Kind::kInt, .shape = "T", .lo = 0,
     .hi = 3600.0 * 1000, .scale = kMillisecond,
     .help = "leader lease in milliseconds; 0 = leases off, reads replicate",
     .store = [](const Value& v, Flags* f) { f->lease = v.i; }},
    {.id = Flag::kSessions, .name = "--sessions", .kind = Kind::kInt, .shape = "N", .lo = 1,
     .hi = 1000000, .help = "logical open-loop sessions to emulate",
     .store = [](const Value& v, Flags* f) { f->sessions = v.i; }},
    {.id = Flag::kNetPortBase, .name = "--net-port-base", .kind = Kind::kInt, .shape = "P",
     .lo = 0, .hi = 65535,
     .help = "net backend: node i listens on port P + i; 0 = ephemeral ports",
     .store = [](const Value& v, Flags* f) {
       f->net.port_base = static_cast<std::uint16_t>(v.i);
     }},
    {.id = Flag::kNetRegistry, .name = "--net-registry", .kind = Kind::kEndpoint,
     .shape = "host:port",
     .help = "net backend: where the bootstrap registry binds; default loopback, "
             "ephemeral port",
     .store = [](const Value& v, Flags* f) { f->net.registry = v.s; }},
    {.id = Flag::kNetIoThreads, .name = "--net-io-threads", .kind = Kind::kInt, .shape = "N",
     .lo = 0, .hi = 64,
     .help = "net backend: dedicated socket-flusher threads; 0 = nodes flush their own",
     .store = [](const Value& v, Flags* f) {
       f->net.io_threads = static_cast<std::int32_t>(v.i);
     }},
    {.id = Flag::kSweepDiff, .name = "--sweep-diff", .kind = Kind::kBool,
     .help = "also run the spec on the other backends and diff the result shapes",
     .store = [](const Value&, Flags* f) { f->sweep_diff = true; }},
    {.id = Flag::kHelp, .name = "--help", .kind = Kind::kBool,
     .help = "print this text and exit",
     .store = [](const Value&, Flags* f) { f->help = true; }},
};

const Row* find_row(std::string_view name) {
  for (const Row& r : kTable) {
    if (name == r.name) return &r;
  }
  return nullptr;
}

const Row& row_of(Flag id) {
  for (const Row& r : kTable) {
    if (r.id == id) return r;
  }
  CI_CHECK_MSG(false, "flag id missing from the table");
  return kTable[0];
}

bool consumes(const std::vector<Flag>& consumed, Flag id) {
  return id == Flag::kHelp || std::find(consumed.begin(), consumed.end(), id) != consumed.end();
}

std::string bound(const Row& r, double x) {
  if (r.kind == Kind::kInt) return std::to_string(static_cast<long long>(x));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", x);
  return buf;
}

// The flag as typed: --batch=N, --backend=sim|rt|net, or a bare --sweep-diff.
std::string invocation(const Row& r) {
  return r.kind == Kind::kBool ? r.name : std::string(r.name) + "=" + r.shape;
}

// 1 <= N <= 64 for the bounded kinds, empty otherwise.
std::string bounds(const Row& r) {
  if (r.kind != Kind::kInt && r.kind != Kind::kDouble) return "";
  return bound(r, r.lo) + " <= " + r.shape + " <= " + bound(r, r.hi);
}

std::string expected(const Row& r) {
  const std::string b = bounds(r);
  return "(expected " + invocation(r) + (b.empty() ? "" : ", " + b) + ")";
}

// The consumed set as a parenthesized list, --help included.
std::string accepted(const std::vector<Flag>& consumed) {
  std::string out = "(this binary reads:";
  const char* sep = " ";
  for (const Row& r : kTable) {
    if (!consumes(consumed, r.id)) continue;
    out += sep;
    out += r.name;
    sep = ", ";
  }
  return out + ")";
}

bool parse_value(const Row& r, const char* text, Value* v) {
  char* end = nullptr;
  switch (r.kind) {
    case Kind::kInt: {
      errno = 0;
      const long long n = std::strtoll(text, &end, 10);
      // Out-of-range input clamps to LLONG_MIN/MAX with ERANGE; reject it
      // rather than let the clamp pass the bounds check.
      if (end == text || *end != '\0' || errno == ERANGE ||
          static_cast<double>(n) < r.lo || static_cast<double>(n) > r.hi) {
        return false;
      }
      v->i = n * r.scale;
      return true;
    }
    case Kind::kDouble: {
      const double d = std::strtod(text, &end);
      // !(d >= lo) also rejects NaN, which every ordered comparison fails.
      if (end == text || *end != '\0' || !(d >= r.lo) || !(d <= r.hi)) return false;
      v->d = d;
      return true;
    }
    case Kind::kEnum: {
      const std::string_view want(text);
      std::string_view choices(r.shape);
      for (long long idx = 0;; ++idx) {
        const std::size_t bar = choices.find('|');
        if (choices.substr(0, bar) == want) {
          v->i = idx;
          return true;
        }
        if (bar == std::string_view::npos) return false;
        choices.remove_prefix(bar + 1);
      }
    }
    case Kind::kEndpoint: {
      net::Endpoint ep;
      if (!net::parse_endpoint(text, &ep)) return false;
      v->s = text;
      return true;
    }
    case Kind::kBool:
      break;
  }
  return false;
}

}  // namespace

bool try_parse_flags(int argc, char** argv, const std::vector<Flag>& consumed, Flags* out,
                     std::string* err) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (arg[0] != '-') {
      if (!consumes(consumed, Flag::kPositionals)) {
        *err = "unexpected argument '" + std::string(arg) +
               "': this binary takes no positional arguments " + accepted(consumed);
        return false;
      }
      out->positionals.emplace_back(arg);
      continue;
    }
    // Exact name match, so a longer flag sharing a prefix (--groupsize)
    // is unknown rather than --groups.
    const char* eq = std::strchr(arg, '=');
    const std::string name = eq != nullptr ? std::string(arg, eq) : std::string(arg);
    const Row* r = find_row(name);
    if (r == nullptr) {
      *err = "unknown flag '" + std::string(arg) + "' " + accepted(consumed);
      return false;
    }
    if (!consumes(consumed, r->id)) {
      *err = "flag '" + name + "' is not used by this binary " + accepted(consumed);
      return false;
    }
    if (r->kind == Kind::kBool) {
      if (eq != nullptr) {
        *err = name + " takes no value";
        return false;
      }
      r->store(Value{.i = 1}, out);
      if (r->id == Flag::kHelp) return true;
      continue;
    }
    const char* text = eq != nullptr ? eq + 1 : nullptr;
    if (text == nullptr) {
      if (i + 1 >= argc) {
        *err = name + " requires a value " + expected(*r);
        return false;
      }
      text = argv[++i];
    }
    Value v;
    if (!parse_value(*r, text, &v)) {
      *err = "bad value '" + std::string(text) + "' for " + name + " " + expected(*r);
      return false;
    }
    r->store(v, out);
  }
  return true;
}

void parse_flags(int argc, char** argv, const std::vector<Flag>& consumed, Flags* out) {
  std::string err;
  if (!try_parse_flags(argc, argv, consumed, out, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    std::exit(2);
  }
  if (out->help) {
    std::fputs(help_text(consumed).c_str(), stdout);
    std::exit(0);
  }
}

std::string help_text(const std::vector<Flag>& consumed) {
  constexpr std::size_t kColumn = 28;
  std::string out =
      "flags (--name=value or --name value; the last occurrence wins; any other flag "
      "exits 2):\n";
  for (const Row& r : kTable) {
    if (!consumes(consumed, r.id)) continue;
    std::string line = "  " + invocation(r);
    line += std::string(line.size() < kColumn ? kColumn - line.size() : 2, ' ');
    line += r.help;
    const std::string b = bounds(r);
    if (!b.empty()) line += " (" + b + ")";
    out += line + "\n";
  }
  return out;
}

bool parse_backend(const char* s, Backend* out) {
  Value v;
  if (!parse_value(row_of(Flag::kBackend), s, &v)) return false;
  *out = kBackends[v.i];
  return true;
}

}  // namespace ci::harness
