// Unit tests for the harness command line (harness/flags.hpp). Every flag
// must reject a malformed value loudly instead of silently running the
// default: a sweep that asked for rt, --batch=0 or a 150% read mix and got
// sim, unbatched or a clamped 100% would report the wrong machine's numbers.
//
// The cases are one table: {argv, consumed flags, expected field | expected
// error}. Only the two exit codes go through a death test; everything else
// drives the non-exiting try_parse_flags.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "harness/flags.hpp"

namespace ci::harness {
namespace {

// argv helper: materializes writable argv from strings.
class Args {
 public:
  explicit Args(std::vector<std::string> args) : store_(std::move(args)) {
    ptrs_.push_back(prog_);
    for (auto& s : store_) ptrs_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  char prog_[5] = "test";
  std::vector<std::string> store_;
  std::vector<char*> ptrs_;
};

// The Flags field a flag sets, as text (durations in nanoseconds).
std::string field(const Flags& f, Flag id) {
  char buf[32];
  switch (id) {
    case Flag::kBackend:
      return core::backend_name(f.backend);
    case Flag::kGroups:
      return std::to_string(f.groups);
    case Flag::kPlacement:
      return core::placement_name(f.placement);
    case Flag::kBatch:
      return std::to_string(f.batch.max_commands);
    case Flag::kBatchFlushUs:
      return std::to_string(f.batch.flush_after);
    case Flag::kFlushPolicy:
      return f.batch.adaptive() ? "adaptive" : "fixed";
    case Flag::kTxnMix:
      std::snprintf(buf, sizeof(buf), "%g", f.txn_mix);
      return buf;
    case Flag::kReadMix:
      std::snprintf(buf, sizeof(buf), "%g", f.read_mix);
      return buf;
    case Flag::kLeaseMs:
      return std::to_string(f.lease);
    case Flag::kSessions:
      return std::to_string(f.sessions);
    case Flag::kNetPortBase:
      return std::to_string(f.net.port_base);
    case Flag::kNetRegistry:
      return f.net.registry;
    case Flag::kNetIoThreads:
      return std::to_string(f.net.io_threads);
    case Flag::kSweepDiff:
      return f.sweep_diff ? "true" : "false";
    case Flag::kHelp:
      return f.help ? "true" : "false";
    case Flag::kPositionals: {
      std::string words;
      for (const std::string& w : f.positionals) words += (words.empty() ? "" : " ") + w;
      return words;
    }
  }
  return "?";
}

struct Case {
  std::vector<std::string> args;
  std::vector<Flag> consumed;  // field() checks the first
  std::string want;            // the field after a successful parse
  std::string error;           // non-empty: the parse fails with this substring
};

Case ok(std::vector<std::string> args, std::vector<Flag> consumed, std::string want) {
  return {std::move(args), std::move(consumed), std::move(want), ""};
}

Case bad(std::vector<std::string> args, std::vector<Flag> consumed, std::string error) {
  return {std::move(args), std::move(consumed), "", std::move(error)};
}

std::string describe(const Case& c) {
  std::string out = "argv:";
  for (const std::string& a : c.args) out += " [" + a + "]";
  return out;
}

const std::vector<Case> kCases = {
    // --backend: both forms, default, last wins, offender named, missing value.
    ok({}, {Flag::kBackend}, "sim"),
    ok({"--backend=rt"}, {Flag::kBackend}, "rt"),
    ok({"--backend", "net"}, {Flag::kBackend}, "net"),
    ok({"--backend=rt", "--backend=sim"}, {Flag::kBackend}, "sim"),
    bad({"--backend=fast"}, {Flag::kBackend},
        "bad value 'fast' for --backend (expected --backend=sim|rt|net)"),
    bad({"--backend=SIM"}, {Flag::kBackend}, "'SIM'"),
    bad({"--backend"}, {Flag::kBackend}, "--backend requires a value"),

    // --groups: bounds at both edges, garbage, strtoll clamping, prefix safety.
    ok({"--groups=4"}, {Flag::kGroups}, "4"),
    ok({"--groups", "2147483647"}, {Flag::kGroups}, "2147483647"),
    ok({}, {Flag::kGroups}, "1"),
    bad({"--groups=0"}, {Flag::kGroups}, "bad value '0' for --groups"),
    bad({"--groups=2147483648"}, {Flag::kGroups}, "1 <= N <= 2147483647"),
    bad({"--groups=99999999999999999999"}, {Flag::kGroups}, "bad value"),
    bad({"--groups=4x"}, {Flag::kGroups}, "bad value"),
    bad({"--groups"}, {Flag::kGroups}, "--groups requires a value"),
    bad({"--groupsize=3"}, {Flag::kGroups}, "unknown flag '--groupsize=3'"),
    bad({"--group=4"}, {Flag::kGroups}, "unknown flag"),

    // --placement.
    ok({"--placement=group-major"}, {Flag::kPlacement}, "group-major"),
    ok({"--placement", "interleaved"}, {Flag::kPlacement}, "interleaved"),
    ok({"--placement=colocated"}, {Flag::kPlacement}, "colocated"),
    bad({"--placement=striped"}, {Flag::kPlacement},
        "(expected --placement=group-major|interleaved|colocated)"),
    bad({"--placement=group"}, {Flag::kPlacement}, "bad value 'group'"),

    // --batch: --batch=0 must not silently run unbatched.
    ok({"--batch=8"}, {Flag::kBatch}, "8"),
    ok({"--batch", "64"}, {Flag::kBatch}, "64"),
    ok({}, {Flag::kBatch}, "1"),
    bad({"--batch=0"}, {Flag::kBatch}, "bad value '0' for --batch (expected --batch=N, 1 <= N <= 64)"),
    bad({"--batch=-3"}, {Flag::kBatch}, "'-3'"),
    bad({"--batch=lots"}, {Flag::kBatch}, "'lots'"),
    bad({"--batch=65"}, {Flag::kBatch}, "'65'"),
    bad({"--batch"}, {Flag::kBatch}, "requires a value"),

    // --batch-flush-us: microseconds in, nanoseconds stored.
    ok({"--batch-flush-us=50"}, {Flag::kBatchFlushUs}, std::to_string(50 * kMicrosecond)),
    ok({"--batch-flush-us", "3600000000"}, {Flag::kBatchFlushUs},
       std::to_string(3600 * kSecond)),
    ok({}, {Flag::kBatchFlushUs}, "0"),
    bad({"--batch-flush-us=-1"}, {Flag::kBatchFlushUs}, "0 <= T <= 3600000000"),
    bad({"--batch-flush-us=3600000001"}, {Flag::kBatchFlushUs}, "bad value"),
    // strtoll would clamp silently; the bound keeps the multiply in range.
    bad({"--batch-flush-us=9223372036854775807"}, {Flag::kBatchFlushUs}, "bad value"),
    bad({"--batch-flush-us"}, {Flag::kBatchFlushUs}, "requires a value"),
    bad({"--batch-flush-us=5"}, {Flag::kBatch}, "not used by this binary"),

    // --flush-policy: a typo must not silently run the fixed timer.
    ok({"--flush-policy=adaptive"}, {Flag::kFlushPolicy}, "adaptive"),
    ok({"--flush-policy", "fixed"}, {Flag::kFlushPolicy}, "fixed"),
    ok({}, {Flag::kFlushPolicy}, "fixed"),
    bad({"--flush-policy=adptive"}, {Flag::kFlushPolicy}, "fixed|adaptive"),
    bad({"--flush-policy=auto"}, {Flag::kFlushPolicy}, "'auto'"),
    bad({"--flush-policy=FIXED"}, {Flag::kFlushPolicy}, "'FIXED'"),
    bad({"--flush-policy"}, {Flag::kFlushPolicy}, "requires a value"),

    // --txn-mix and --read-mix: fractions; NaN fails every comparison.
    ok({"--txn-mix=0.25"}, {Flag::kTxnMix}, "0.25"),
    ok({"--txn-mix", "1"}, {Flag::kTxnMix}, "1"),
    ok({"--txn-mix=0"}, {Flag::kTxnMix}, "0"),
    bad({"--txn-mix=1.5"}, {Flag::kTxnMix}, "0 <= P <= 1"),
    bad({"--txn-mix=-0.1"}, {Flag::kTxnMix}, "bad value"),
    bad({"--txn-mix=nan"}, {Flag::kTxnMix}, "bad value"),
    bad({"--txn-mix=lots"}, {Flag::kTxnMix}, "bad value"),
    bad({"--txn-mix=0.5x"}, {Flag::kTxnMix}, "bad value"),
    bad({"--txn-mix"}, {Flag::kTxnMix}, "requires a value"),
    ok({"--read-mix=0.9"}, {Flag::kReadMix}, "0.9"),
    ok({"--read-mix", "1"}, {Flag::kReadMix}, "1"),
    bad({"--read-mix=1.5"}, {Flag::kReadMix}, "0 <= P <= 1"),
    bad({"--read-mix=-0.1"}, {Flag::kReadMix}, "bad value"),
    bad({"--read-mix=nan"}, {Flag::kReadMix}, "bad value"),
    bad({"--read-mix=inf"}, {Flag::kReadMix}, "bad value"),
    bad({"--read-mix=lots"}, {Flag::kReadMix}, "bad value"),
    bad({"--read-mix=0.5x"}, {Flag::kReadMix}, "bad value"),
    bad({"--read-mix"}, {Flag::kReadMix}, "requires a value"),

    // --lease-ms: milliseconds in, nanoseconds stored; 0 = leases off.
    ok({"--lease-ms=50"}, {Flag::kLeaseMs}, std::to_string(50 * kMillisecond)),
    ok({"--lease-ms", "0"}, {Flag::kLeaseMs}, "0"),
    ok({"--lease-ms=3600000"}, {Flag::kLeaseMs}, std::to_string(3600 * kSecond)),
    bad({"--lease-ms=-1"}, {Flag::kLeaseMs}, "0 <= T <= 3600000"),
    bad({"--lease-ms=3600001"}, {Flag::kLeaseMs}, "bad value"),
    bad({"--lease-ms=forever"}, {Flag::kLeaseMs}, "bad value"),
    bad({"--lease-ms=5s"}, {Flag::kLeaseMs}, "bad value"),
    bad({"--lease-ms=9223372036854775807"}, {Flag::kLeaseMs}, "bad value"),
    bad({"--lease-ms"}, {Flag::kLeaseMs}, "requires a value"),

    // --sessions.
    ok({"--sessions=50000"}, {Flag::kSessions}, "50000"),
    ok({"--sessions", "1000000"}, {Flag::kSessions}, "1000000"),
    ok({"--sessions=1"}, {Flag::kSessions}, "1"),
    bad({"--sessions=0"}, {Flag::kSessions}, "1 <= N <= 1000000"),
    bad({"--sessions=-5"}, {Flag::kSessions}, "bad value"),
    bad({"--sessions=1000001"}, {Flag::kSessions}, "bad value"),
    bad({"--sessions=many"}, {Flag::kSessions}, "bad value"),
    bad({"--sessions=1e6"}, {Flag::kSessions}, "bad value"),
    bad({"--sessions"}, {Flag::kSessions}, "requires a value"),

    // --net-port-base, --net-registry, --net-io-threads. A registry the
    // mesh can never reach must fail at the flag, not as a bootstrap
    // timeout later.
    ok({"--net-port-base=15000"}, {Flag::kNetPortBase}, "15000"),
    ok({"--net-port-base", "0"}, {Flag::kNetPortBase}, "0"),
    ok({"--net-port-base=65535"}, {Flag::kNetPortBase}, "65535"),
    bad({"--net-port-base=-1"}, {Flag::kNetPortBase}, "0 <= P <= 65535"),
    bad({"--net-port-base=65536"}, {Flag::kNetPortBase}, "bad value"),
    bad({"--net-port-base=http"}, {Flag::kNetPortBase}, "bad value"),
    bad({"--net-port-base=80x"}, {Flag::kNetPortBase}, "bad value"),
    bad({"--net-port-base"}, {Flag::kNetPortBase}, "requires a value"),
    ok({"--net-registry=127.0.0.1:19000"}, {Flag::kNetRegistry}, "127.0.0.1:19000"),
    ok({"--net-registry", "localhost:0"}, {Flag::kNetRegistry}, "localhost:0"),
    ok({}, {Flag::kNetRegistry}, ""),
    bad({"--net-registry=localhost"}, {Flag::kNetRegistry},
        "(expected --net-registry=host:port)"),
    bad({"--net-registry=:9000"}, {Flag::kNetRegistry}, "bad value"),
    bad({"--net-registry=host:notaport"}, {Flag::kNetRegistry}, "bad value"),
    bad({"--net-registry=host:70000"}, {Flag::kNetRegistry}, "bad value"),
    bad({"--net-registry"}, {Flag::kNetRegistry}, "requires a value"),
    ok({"--net-io-threads=2"}, {Flag::kNetIoThreads}, "2"),
    ok({"--net-io-threads", "0"}, {Flag::kNetIoThreads}, "0"),
    ok({"--net-io-threads=64"}, {Flag::kNetIoThreads}, "64"),
    bad({"--net-io-threads=-1"}, {Flag::kNetIoThreads}, "0 <= N <= 64"),
    bad({"--net-io-threads=65"}, {Flag::kNetIoThreads}, "bad value"),
    bad({"--net-io-threads=all"}, {Flag::kNetIoThreads}, "bad value"),
    bad({"--net-io-threads=2.5"}, {Flag::kNetIoThreads}, "bad value"),
    bad({"--net-io-threads"}, {Flag::kNetIoThreads}, "requires a value"),

    // Valueless flags.
    ok({"--sweep-diff"}, {Flag::kSweepDiff}, "true"),
    ok({"--backend=sim"}, {Flag::kSweepDiff, Flag::kBackend}, "false"),
    bad({"--sweep-diff=1"}, {Flag::kSweepDiff}, "--sweep-diff takes no value"),
    // --help is always accepted and stops the scan where it stands.
    ok({"--help", "--no-such-flag"}, {Flag::kHelp}, "true"),
    bad({"--no-such-flag", "--help"}, {}, "unknown flag"),

    // The consumed set: a known flag the binary does not read is an error
    // (passing --groups to a bench that sweeps group counts itself must not
    // silently no-op), and the message lists what the binary does read.
    bad({"--groups=4"}, {Flag::kBackend},
        "flag '--groups' is not used by this binary (this binary reads: --backend, --help)"),
    bad({"--backend=sim"}, {}, "(this binary reads: --help)"),
    bad({"--txnmix=0.5"}, {Flag::kTxnMix},
        "unknown flag '--txnmix=0.5' (this binary reads: --txn-mix, --help)"),
    bad({"--colocated"}, {Flag::kPlacement}, "unknown flag"),
    bad({"-x"}, {Flag::kBackend}, "unknown flag '-x'"),

    // Positionals: a stray word is an error unless the binary takes them
    // (`fig9_replication_degree rt` must not silently run sim), and a
    // space-form value is the flag's, not a positional.
    bad({"rt"}, {}, "unexpected argument 'rt': this binary takes no positional arguments"),
    bad({"--backend", "rt", "net"}, {Flag::kBackend}, "unexpected argument 'net'"),
    bad({"multipaxos", "--backend=rt"}, {Flag::kBackend},
        "unexpected argument 'multipaxos'"),
    ok({"multipaxos", "--backend", "rt", "300"}, {Flag::kPositionals, Flag::kBackend},
       "multipaxos 300"),
    // The four open-loop knobs the table dropped are unknown now.
    bad({"--target-rate=1000"}, {Flag::kSessions}, "unknown flag"),
    bad({"--zipf=0.9"}, {Flag::kSessions}, "unknown flag"),
    bad({"--workload=A"}, {Flag::kSessions}, "unknown flag"),
    bad({"--value-bytes=64"}, {Flag::kSessions}, "unknown flag"),
};

TEST(Flags, TableCases) {
  for (const Case& c : kCases) {
    SCOPED_TRACE(describe(c));
    Args a(c.args);
    Flags f;
    std::string err;
    const bool parsed = try_parse_flags(a.argc(), a.argv(), c.consumed, &f, &err);
    if (c.error.empty()) {
      ASSERT_TRUE(parsed) << err;
      ASSERT_FALSE(c.consumed.empty());
      EXPECT_EQ(field(f, c.consumed.front()), c.want);
    } else {
      EXPECT_FALSE(parsed);
      EXPECT_NE(err.find(c.error), std::string::npos) << "error was: " << err;
    }
  }
}

TEST(Flags, AbsentFlagsKeepTheBinarysDefaults) {
  Args a({"--groups=2"});
  Flags f;
  f.backend = Backend::kRt;
  f.txn_mix = 0.1;
  f.read_mix = -1.0;
  f.lease = 5 * kMillisecond;
  f.sessions = 10000;
  std::string err;
  ASSERT_TRUE(try_parse_flags(a.argc(), a.argv(),
                              {Flag::kBackend, Flag::kGroups, Flag::kTxnMix, Flag::kReadMix,
                               Flag::kLeaseMs, Flag::kSessions},
                              &f, &err))
      << err;
  EXPECT_EQ(f.groups, 2);
  EXPECT_EQ(f.backend, Backend::kRt);
  EXPECT_DOUBLE_EQ(f.txn_mix, 0.1);
  EXPECT_DOUBLE_EQ(f.read_mix, -1.0);
  EXPECT_EQ(f.lease, 5 * kMillisecond);
  EXPECT_EQ(f.sessions, 10000);
}

TEST(Flags, PositionalsSkipFlagsAndTheirSpaceFormValues) {
  Args a({"multipaxos", "--backend", "rt", "300", "--groups=4", "--placement", "colocated",
          "--batch", "8", "--batch-flush-us=10", "--txn-mix", "0.3",
          "--read-mix", "0.9", "--lease-ms=50", "--sessions", "50000", "--flush-policy=adaptive",
          "--net-port-base", "14000", "--net-registry=127.0.0.1:0", "--net-io-threads", "2",
          "keep"});
  Flags f;
  std::string err;
  ASSERT_TRUE(try_parse_flags(
      a.argc(), a.argv(),
      {Flag::kBackend, Flag::kGroups, Flag::kPlacement, Flag::kBatch, Flag::kBatchFlushUs,
       Flag::kTxnMix, Flag::kReadMix, Flag::kLeaseMs, Flag::kSessions,
       Flag::kFlushPolicy, Flag::kNetPortBase, Flag::kNetRegistry, Flag::kNetIoThreads,
       Flag::kPositionals},
      &f, &err))
      << err;
  EXPECT_EQ(f.positionals, (std::vector<std::string>{"multipaxos", "300", "keep"}));
  // The bundled fields land together.
  EXPECT_EQ(f.batch.max_commands, 8);
  EXPECT_EQ(f.batch.flush_after, 10 * kMicrosecond);
  EXPECT_TRUE(f.batch.adaptive());
  EXPECT_EQ(f.net.port_base, 14000);
  EXPECT_EQ(f.net.registry, "127.0.0.1:0");
  EXPECT_EQ(f.net.io_threads, 2);
}

TEST(Flags, ParseBackendNamesEveryBackend) {
  Backend b = Backend::kRt;
  EXPECT_TRUE(parse_backend("sim", &b));
  EXPECT_EQ(b, Backend::kSim);
  EXPECT_TRUE(parse_backend("rt", &b));
  EXPECT_EQ(b, Backend::kRt);
  EXPECT_TRUE(parse_backend("net", &b));
  EXPECT_EQ(b, Backend::kNet);
  EXPECT_FALSE(parse_backend("simulator", &b));
  EXPECT_FALSE(parse_backend("", &b));
  EXPECT_FALSE(parse_backend("SIM", &b));
  EXPECT_EQ(b, Backend::kNet);  // untouched on failure
}

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

// The help text is generated from the table, so it cannot drift from it:
// every Flag adds exactly one line naming a flag, and all lines differ.
TEST(Flags, HelpListsEveryTableRow) {
  const std::size_t base = lines(help_text({})).size();
  std::vector<Flag> all;
  for (int i = 0; i <= static_cast<int>(Flag::kHelp); ++i) {
    const Flag f = static_cast<Flag>(i);
    all.push_back(f);
    if (f == Flag::kHelp) continue;  // always listed
    const std::vector<std::string> with = lines(help_text({f}));
    ASSERT_EQ(with.size(), base + 1) << "flag #" << i;
    EXPECT_EQ(with[1].rfind("  --", 0), 0u) << with[1];
  }
  const std::vector<std::string> every = lines(help_text(all));
  EXPECT_EQ(every.size(), base + all.size() - 1);
  for (std::size_t i = 1; i < every.size(); ++i) {
    for (std::size_t j = i + 1; j < every.size(); ++j) EXPECT_NE(every[i], every[j]);
  }
  EXPECT_NE(help_text(all).find("--batch=N"), std::string::npos);
  EXPECT_NE(help_text(all).find("(1 <= N <= 64)"), std::string::npos);
}

// The exiting form: --help prints and exits 0 whatever the consumed set...
TEST(Flags, HelpExitsZero) {
  Args a({"--help"});
  Flags f;
  EXPECT_EXIT(parse_flags(a.argc(), a.argv(), {Flag::kBackend}, &f),
              ::testing::ExitedWithCode(0), "");
}

// ...and a flag the binary does not read exits 2 — also for a binary that
// takes positionals (replicated_kv's set, which has no --lease-ms).
TEST(Flags, UnconsumedFlagBesidePositionalsExitsTwo) {
  Args a({"multipaxos", "300", "--lease-ms=5"});
  Flags f;
  EXPECT_EXIT(parse_flags(a.argc(), a.argv(),
                          {Flag::kBackend, Flag::kGroups, Flag::kPlacement, Flag::kBatch,
                           Flag::kBatchFlushUs, Flag::kFlushPolicy, Flag::kTxnMix,
                           Flag::kPositionals},
                          &f),
              ::testing::ExitedWithCode(2), "flag '--lease-ms' is not used by this binary");
}

}  // namespace
}  // namespace ci::harness
