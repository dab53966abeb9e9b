// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark's own load thread around its calls into the library (no
// probes inside src/): name, parent, the id shared by every span of one op or set-up
// trial, and wall start/end in now_nanos() time. Nothing is written while
// the run measures; write_csv() dumps the buffer once the run is over.
//
// An op's spans tile its wl.op span exactly — harness.wait (schedule ->
// issue), client.submit (the Session::submit call), client.rtt (submit
// return -> SubmitHandle::completed_at) — so the per-layer table adds up to
// the end-to-end latency with no unexplained remainder.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace wallbench {

using ci::Nanos;

enum class SpanName : std::uint8_t {
  kNone,
  kWlOp,
  kHarnessWait,
  kClientSubmit,
  kClientRtt,
  kSetupConstruct,
  kSetupFirstCommit,
  kFaultGap,
};

inline const char* span_name(SpanName s) {
  switch (s) {
    case SpanName::kNone: return "";
    case SpanName::kWlOp: return "wl.op";
    case SpanName::kHarnessWait: return "harness.wait";
    case SpanName::kClientSubmit: return "client.submit";
    case SpanName::kClientRtt: return "client.rtt";
    case SpanName::kSetupConstruct: return "setup.construct";
    case SpanName::kSetupFirstCommit: return "setup.first_commit";
    case SpanName::kFaultGap: return "fault.gap";
  }
  return "?";
}

struct Span {
  std::uint64_t id = 0;
  Nanos start = 0;
  Nanos end = 0;
  SpanName name = SpanName::kNone;
  SpanName parent = SpanName::kNone;
};

class Tracer {
 public:
  // A disabled tracer records nothing (the untraced run); an enabled one
  // keeps at most `capacity` spans and counts the rest as dropped.
  explicit Tracer(bool enabled, std::size_t capacity = std::size_t{1} << 20)
      : enabled_(enabled), capacity_(capacity) {
    if (enabled_) spans_.reserve(capacity_);
  }

  bool enabled() const { return enabled_; }

  void record(SpanName name, SpanName parent, std::uint64_t id, Nanos start, Nanos end) {
    if (!enabled_) return;
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    spans_.push_back(Span{id, start, end, name, parent});
  }

  // Durations (ns) of every recorded span with this name.
  std::vector<double> durations(SpanName name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(static_cast<double>(s.end - s.start));
    }
    return out;
  }

  std::size_t size() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }

  // One line per span: name,parent,id,start_ns,end_ns. Returns false when
  // the file cannot be written.
  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("span,parent,id,start_ns,end_ns\n", f);
    for (const Span& s : spans_) {
      std::fprintf(f, "%s,%s,%llu,%lld,%lld\n", span_name(s.name), span_name(s.parent),
                   static_cast<unsigned long long>(s.id), static_cast<long long>(s.start),
                   static_cast<long long>(s.end));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

}  // namespace wallbench
