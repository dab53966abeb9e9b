#include "consensus/wire_codec.hpp"

#include <cstring>
#include <new>

#include "common/check.hpp"

namespace ci::wire {

using consensus::Command;
using consensus::CommandPool;
using consensus::CommandRun;
using consensus::kMessageHeaderBytes;
using consensus::Message;
using consensus::Tail;
using consensus::WireRow;

namespace {

// The CommandRun of a kRun kind: its commands follow the fixed fields on
// the wire, where the fixed-size cmds[] array used to sit.
const CommandRun& run_of(const WireRow& r, const Message& m) {
  return *std::launder(reinterpret_cast<const CommandRun*>(
      reinterpret_cast<const unsigned char*>(&m.u) + r.fixed));
}

}  // namespace

CopyStats& copy_stats() {
  thread_local CopyStats stats;
  return stats;
}

void BufferWriter::do_append(const void* data, std::size_t n) {
  std::memcpy(buf_ + n_, data, n);
  n_ += static_cast<std::uint32_t>(n);
}

std::uint32_t encode_into(const Message& m, FrameWriter& w, consensus::NodeId src,
                          consensus::NodeId dst) {
  // The stamped header is rebuilt on the stack (16 bytes) so the source
  // Message stays const and no destination fix-up pass is needed.
  unsigned char hdr[kMessageHeaderBytes];
  std::memcpy(hdr, &m, kMessageHeaderBytes);
  std::memcpy(hdr + offsetof(Message, src), &src, sizeof(src));
  std::memcpy(hdr + offsetof(Message, dst), &dst, sizeof(dst));
  const auto* body = reinterpret_cast<const unsigned char*>(&m) + kMessageHeaderBytes;
  const WireRow* row = consensus::wire_row(m.type);
  if (row != nullptr && row->tail == Tail::kRun) {
    const std::int32_t count = row->count(m);
    CI_CHECK_MSG(count >= row->min_count && count <= row->max_count,
                 "encoding a batched frame with a bogus count");
    const std::size_t cmds = static_cast<std::size_t>(count) * sizeof(Command);
    w.append(hdr, kMessageHeaderBytes);
    w.append(body, row->fixed);
    // Pooled runs are read straight out of the pool block here — the one
    // and only copy of the body after the sender packed it.
    w.append(run_of(*row, m).data(count), cmds);
    return static_cast<std::uint32_t>(kMessageHeaderBytes + row->fixed + cmds);
  }
  const std::size_t n = consensus::wire_size(m);
  CI_CHECK(n <= kMaxFrameBytes);
  w.append(hdr, kMessageHeaderBytes);
  w.append(body, n - kMessageHeaderBytes);
  return static_cast<std::uint32_t>(n);
}

std::uint32_t encode(const Message& m, unsigned char* buf) {
  BufferWriter w(buf);
  return encode_into(m, w, m.src, m.dst);
}

bool try_decode(const unsigned char* buf, std::size_t n, Message* out) {
  if (n < kMessageHeaderBytes || n > kMaxFrameBytes) return false;
  Message m;  // zero-filled payload: undelivered frame bytes read as zeroes
  std::memcpy(static_cast<void*>(&m), buf, kMessageHeaderBytes);
  const WireRow* row = consensus::wire_row(m.type);
  if (row == nullptr) return false;
  if (row->tail == Tail::kRun) {
    const std::size_t fixed = kMessageHeaderBytes + row->fixed;
    if (n < fixed) return false;
    std::memcpy(static_cast<void*>(&m), buf, fixed);
    // Bounds the count and checks the frame holds the whole run.
    if (!consensus::wire_validate(m, n)) return false;
    // All checks passed: materialize the run (may allocate a pool block the
    // caller now owns through *out).
    const_cast<CommandRun&>(run_of(*row, m))
        .assign(reinterpret_cast<const Command*>(buf + fixed), row->count(m));
    *out = m;
    return true;
  }
  if (n > sizeof(Message)) return false;  // other frames are struct prefixes
  std::memcpy(static_cast<void*>(&m), buf, n);
  if (!consensus::wire_validate(m, n)) return false;
  *out = m;
  return true;
}

void release_body(const Message& m) {
  const WireRow* row = consensus::wire_row(m.type);
  if (row == nullptr || row->tail != Tail::kRun) return;
  const CommandRun& run = run_of(*row, m);
  if (row->count(m) > consensus::kInlineBatchCommands && run.ref) {
    CommandPool::local().release(run.ref);
  }
}

std::uint32_t max_frame_bytes(const consensus::BatchPolicy& policy) {
  return static_cast<std::uint32_t>(max_frame_bytes(policy.commands_cap()));
}

}  // namespace ci::wire
