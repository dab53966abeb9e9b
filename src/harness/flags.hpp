// The harness command line: one declarative table of flags (flags.cpp), one
// parser over it, one plain struct of parsed values. Every binary in bench/
// and examples/ sets its own defaults in a Flags, then makes ONE call:
//
//   harness::Flags flags;
//   flags.backend = Backend::kRt;  // this binary's default
//   harness::parse_flags(argc, argv, {harness::Flag::kBackend}, &flags);
//
// Flags take `--name=value` or `--name value` form; the last occurrence
// wins. A binary lists the flags it reads; any other flag — unknown, or
// known but not read by this binary — exits 2, so a typo or a knob the
// binary ignores never silently runs the default configuration. The same
// holds for non-dash words: only a binary that lists Flag::kPositionals
// takes them. `--help` prints the binary's flags (generated from the table)
// and exits 0.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "consensus/batch.hpp"
#include "core/cluster_spec.hpp"

namespace ci::harness {

using core::Backend;
using core::Placement;

// One id per table row; binaries name the flags they read with these.
enum class Flag {
  kBackend,         // --backend=sim|rt|net
  kGroups,          // --groups=N
  kPlacement,       // --placement=group-major|interleaved|colocated
  kBatch,           // --batch=N (BatchPolicy::max_commands)
  kBatchFlushUs,    // --batch-flush-us=T (BatchPolicy::flush_after)
  kFlushPolicy,     // --flush-policy=fixed|adaptive (BatchPolicy::flush_mode)
  kTxnMix,          // --txn-mix=P
  kReadMix,         // --read-mix=P
  kLeaseMs,         // --lease-ms=T
  kSessions,        // --sessions=N
  kNetPortBase,     // --net-port-base=P (NetParams::port_base)
  kNetRegistry,     // --net-registry=host:port (NetParams::registry)
  kNetIoThreads,    // --net-io-threads=N (NetParams::io_threads)
  kSweepDiff,       // --sweep-diff
  kHelp,            // --help (always accepted)
  kPositionals,     // takes non-dash arguments (listed only; no table row)
};

// Every value the command line can set, in its natural type. A flag absent
// from argv leaves its field at whatever the binary put there.
struct Flags {
  Backend backend = Backend::kSim;
  std::int32_t groups = 1;
  Placement placement = Placement::kGroupMajor;
  consensus::BatchPolicy batch;  // unbatched, fixed flush
  double txn_mix = 0.0;
  double read_mix = 0.0;
  Nanos lease = 0;  // 0 = leases off
  std::int64_t sessions = 1;
  core::NetParams net;  // loopback ephemeral registry and ports, self-flushing nodes
  bool sweep_diff = false;
  bool help = false;
  std::vector<std::string> positionals;  // non-dash arguments, in order (kPositionals)
};

// Walks argv once into *out. Returns false with a message naming the flag
// (and its expected shape and bounds) on an unknown flag, a flag not in
// `consumed`, a missing value, a value the table rejects, or a non-dash
// word when `consumed` lacks kPositionals. Stops at `--help`, setting
// out->help.
bool try_parse_flags(int argc, char** argv, const std::vector<Flag>& consumed, Flags* out,
                     std::string* err);

// The exiting form every binary calls: prints the error and exits 2, or
// prints help_text(consumed) and exits 0 on `--help`.
void parse_flags(int argc, char** argv, const std::vector<Flag>& consumed, Flags* out);

// The rows of `consumed` (plus --help), one line each: name, value shape,
// what it sets, and its bounds.
std::string help_text(const std::vector<Flag>& consumed);

// "sim" / "rt" / "net" -> Backend (for binaries taking backends as
// positionals). Returns false on anything else, leaving *out alone.
bool parse_backend(const char* s, Backend* out);

}  // namespace ci::harness
