// Per-connection outbound byte ring + the FrameWriter that encodes into it.
//
// SendRing is a single-producer/single-consumer byte ring: the node thread
// produces (frame encodes and backlog promotion), exactly one flusher
// consumes (the node thread itself by default, or the IoPool worker that
// owns the node under `--net-io-threads`). RingFrameWriter extends PR 7's
// SlotFrameWriter pattern from SPSC queue slots to socket rings: the
// length prefix goes in first, then wire::encode_into lays the frame's
// field bytes straight into the ring — the ring write IS the only copy on
// the send path; there is no intermediate frame buffer.
//
// Custody: the caller (NetNode::write, on the node loop's send path) checks
// free() >= prefix + frame up front and encodes; the loop then releases the
// message's pooled body — same rule as the rt slot path: send() consumes
// the body, the encode is its one read.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/check.hpp"
#include "consensus/wire_codec.hpp"
#include "net/framing.hpp"

namespace ci::net {

class SendRing {
 public:
  // `capacity` is rounded up to a power of two; it must hold at least one
  // prefixed max-size frame or the fast path could never engage.
  explicit SendRing(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    buf_.resize(cap);
    mask_ = cap - 1;
  }

  std::size_t capacity() const { return buf_.size(); }

  // Producer view: bytes that can be pushed right now.
  std::size_t free() const {
    return capacity() - (head_.load(std::memory_order_relaxed) -
                         tail_.load(std::memory_order_acquire));
  }

  // Consumer view: bytes awaiting the socket.
  std::size_t readable() const {
    return head_.load(std::memory_order_acquire) - tail_.load(std::memory_order_relaxed);
  }

  // Producer: append `n` bytes (caller checked free() >= n).
  void push(const void* data, std::size_t n) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    CI_CHECK(capacity() - (head - tail_.load(std::memory_order_acquire)) >= n);
    const auto* src = static_cast<const unsigned char*>(data);
    const std::size_t at = static_cast<std::size_t>(head) & mask_;
    const std::size_t first = std::min(n, capacity() - at);
    std::memcpy(buf_.data() + at, src, first);
    std::memcpy(buf_.data(), src + first, n - first);
    head_.store(head + n, std::memory_order_release);
  }

  // Consumer: largest contiguous readable span (empty span when drained).
  const unsigned char* peek(std::size_t* n) const {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::size_t avail = static_cast<std::size_t>(head - tail);
    const std::size_t at = static_cast<std::size_t>(tail) & mask_;
    *n = std::min(avail, capacity() - at);
    return buf_.data() + at;
  }

  // Consumer: retire `n` bytes the socket accepted.
  void consume(std::size_t n) {
    tail_.store(tail_.load(std::memory_order_relaxed) + n, std::memory_order_release);
  }

 private:
  std::vector<unsigned char> buf_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};  // produced
  std::atomic<std::uint64_t> tail_{0};  // consumed
};

// FrameWriter that lays [len prefix][frame bytes] into a SendRing. The
// caller reserves capacity up front (free() >= kLenPrefixBytes + frame_len),
// so pushes never fail; finish() asserts the codec produced exactly the
// promised frame length before the bytes go live toward the socket.
class RingFrameWriter final : public wire::FrameWriter {
 public:
  RingFrameWriter(SendRing* ring, std::uint32_t frame_len) : ring_(ring), len_(frame_len) {
    unsigned char prefix[kLenPrefixBytes];
    put_len_prefix(prefix, frame_len);
    ring_->push(prefix, sizeof(prefix));
  }

  void finish() { CI_CHECK_MSG(written_ == len_, "frame length mismatch at finish"); }

 private:
  void do_append(const void* data, std::size_t n) override {
    ring_->push(data, n);
    written_ += static_cast<std::uint32_t>(n);
  }

  SendRing* ring_;
  const std::uint32_t len_;
  std::uint32_t written_ = 0;
};

}  // namespace ci::net
