// wire::Codec — the one seam between in-memory Messages and wire frames.
//
// A frame is the 16-byte message header followed by the payload's compact
// encoding: fixed fields, then any variable-length tail (proposal arrays,
// command runs) truncated to its used prefix. For every message whose
// payload is stored contiguously in the Message this is a plain prefix copy.
// Run payloads differ only in memory (their command run may live in the
// CommandPool): the codec serializes the fixed fields at their pinned
// offsets and appends the `count` commands right after them.
//
// Both backends speak frames through this codec: the rt transport encodes
// into SPSC slots (rt/wire.hpp delegates here), the simulator charges
// frame_size() bytes per send, and a future LAN-socket backend would write
// these very frames to a socket — the codec is the seam it plugs into.
//
// Custody rules for pooled bodies (CommandRun::ref, thread-local pool):
//   * building a batched message (CommandRun::assign / pack_batch) hands
//     the block's single reference to that message;
//   * ctx.send() CONSUMES the reference — the transport either encodes the
//     frame immediately (rt, net, sim) or holds the message and releases
//     after delivery (FakeNet); the sender must not touch the run after
//     send();
//   * decode() allocates a fresh block for long runs on the receiving side;
//     the transport releases it (release_body) once the handler returns —
//     engines copy commands out inside on_message and never retain refs;
//   * encode_into() writes a pooled run's commands STRAIGHT from the pool
//     block into the destination (an SPSC slot, a pooled sim event body) —
//     the body is read exactly once at encode and never copied again, which
//     is why send paths release it immediately after encoding.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "consensus/batch.hpp"
#include "consensus/message.hpp"

namespace ci::wire {

// Largest fixed-field region among the run-carrying kinds (the codec
// writes commands immediately after it).
inline constexpr std::size_t kMaxBatchFixedBytes = [] {
  std::size_t n = 0;
  for (const consensus::WireRow& r : consensus::kWireRows) {
    if (r.tail == consensus::Tail::kRun) n = std::max(n, r.fixed);
  }
  return n;
}();

// Largest frame any kind can put on the wire when protocol batches are
// capped at `batch_cap` commands.
constexpr std::size_t max_frame_bytes(std::int32_t batch_cap) {
  std::size_t n = 0;
  for (const consensus::WireRow& r : consensus::kWireRows) n = std::max(n, r.max_bytes(batch_cap));
  return consensus::kMessageHeaderBytes + n;
}

// Upper bound on any encoded frame: a full-capacity batched frame.
// Transport buffers and queue sizing derive from this — NOT from
// sizeof(Message), which no longer bounds a frame now that command runs
// live out of line.
inline constexpr std::size_t kMaxFrameBytes = max_frame_bytes(consensus::kMaxCommandsPerBatch);
static_assert(kMaxFrameBytes == consensus::kMessageHeaderBytes + kMaxBatchFixedBytes +
                                    consensus::kMaxCommandsPerBatch * sizeof(consensus::Command));

// Encoded size of `m`'s frame (== consensus::wire_size).
inline std::size_t frame_size(const consensus::Message& m) { return consensus::wire_size(m); }

// Per-thread send-path copy accounting: every FrameWriter::append bumps
// these, so tests can pin "bytes copied == frame bytes" — exactly one pass,
// source fields to destination memory, per encoded frame (the WireBudgets
// suite asserts the bound).
struct CopyStats {
  std::uint64_t bytes = 0;
  std::uint64_t appends = 0;
  void reset() { *this = CopyStats{}; }
};
CopyStats& copy_stats();

// Destination-agnostic frame sink. encode_into() appends the stamped header
// and the payload fields straight into wherever the transport wants the
// frame — an rt SPSC slot span (rt::SlotFrameWriter), a pooled SimNet event
// body, a backlog vector — so the encode IS the only copy; there is no
// intermediate stack Message or scratch buffer. Appends arrive in wire
// order and their sizes sum to the frame length the encode call returns.
class FrameWriter {
 public:
  virtual ~FrameWriter() = default;

  void append(const void* data, std::size_t n) {
    CopyStats& s = copy_stats();
    s.bytes += n;
    s.appends++;
    do_append(data, n);
  }

 private:
  virtual void do_append(const void* data, std::size_t n) = 0;
};

// FrameWriter over a contiguous buffer (capacity >= kMaxFrameBytes).
class BufferWriter final : public FrameWriter {
 public:
  explicit BufferWriter(unsigned char* buf) : buf_(buf) {}
  std::uint32_t written() const { return n_; }

 private:
  void do_append(const void* data, std::size_t n) override;

  unsigned char* buf_;
  std::uint32_t n_ = 0;
};

// Encodes `m` into `w` with src/dst stamped into the frame header (the
// in-memory message is not touched — transports stamp at encode time, so
// the same Message can be encoded toward several destinations). Returns the
// frame length. Does NOT release a pooled body — callers that consume the
// message (transport send paths) pair this with release_body().
std::uint32_t encode_into(const consensus::Message& m, FrameWriter& w,
                          consensus::NodeId src, consensus::NodeId dst);

// Encodes `m` into `buf` (capacity >= kMaxFrameBytes); returns the frame
// length. Header src/dst are taken from the message unchanged. Same custody
// note as encode_into.
std::uint32_t encode(const consensus::Message& m, unsigned char* buf);

// Decodes a frame. Returns false on anything malformed — short buffers,
// unknown types, bogus counts, truncated command runs — without leaking
// pool blocks. On success *out owns any pooled body decode allocated.
bool try_decode(const unsigned char* buf, std::size_t n, consensus::Message* out);

// Returns the pooled body (if any) of a message back to the pool. The
// transport-side half of the custody rules above; harmless on messages
// whose run is inline or absent.
void release_body(const consensus::Message& m);

// Largest frame a deployment with this batch policy can put on the wire
// (max_frame_bytes at its commands_cap()). rt queue sizing uses this
// instead of sizeof(Message).
std::uint32_t max_frame_bytes(const consensus::BatchPolicy& policy);

}  // namespace ci::wire
