// Frame (de)serialization for the QC-libtask transport — a thin veneer over
// the shared wire::Codec (consensus/wire_codec.hpp), which both backends
// and any future socket backend speak. Fast-path messages occupy a single
// 128-byte queue slot; batched frames and reconfiguration entries span a
// few fragments.
//
// Everything here is sized from the codec's real frame bytes, NOT from
// sizeof(Message): in-memory messages keep long command runs out of line,
// so the two quantities are independent.
#pragma once

#include <algorithm>
#include <cstring>

#include "common/check.hpp"
#include "consensus/batch.hpp"
#include "consensus/wire_codec.hpp"
#include "qclt/connection.hpp"

namespace ci::rt {

// Encode/read buffer capacity: the largest frame the codec can produce.
inline constexpr std::size_t kWireBufBytes = wire::kMaxFrameBytes;

// Queue slots per connection: the paper's seven suffice for unbatched
// traffic, but RtNode never blocks on a full queue — it writes a frame
// only once every fragment fits at once — so batching deployments size
// their queues from the codec's largest frame under the policy, plus
// headroom for the small control traffic behind it.
inline std::uint32_t slots_for(const consensus::BatchPolicy& policy) {
  if (!policy.batching()) return qclt::kDefaultSlots;
  return std::max(qclt::kDefaultSlots,
                  qclt::wire::fragments_for(wire::max_frame_bytes(policy)) + 2);
}

// FrameWriter that lays a frame straight into SPSC queue slots, stamping
// fragment headers as it crosses slot boundaries — the zero-copy half of
// RtNode's send path: field bytes go from the in-memory Message (or its
// pooled run) directly into the shared-memory slot, with no intermediate
// frame buffer. The caller reserves capacity up front (free_slots() >=
// fragments_for(frame_len)); acquiring a slot then never fails, so the
// whole frame publishes, slot by slot, in one pass. finish() commits the
// trailing partial slot.
class SlotFrameWriter final : public wire::FrameWriter {
 public:
  SlotFrameWriter(qclt::SpscQueue* q, std::uint32_t frame_len) : q_(q), len_(frame_len) {}

  void finish() {
    CI_CHECK_MSG(written_ == len_, "frame length mismatch at finish");
    if (slot_ != nullptr) {
      q_->commit_write();
      slot_ = nullptr;
    }
  }

 private:
  void do_append(const void* data, std::size_t n) override {
    const auto* src = static_cast<const unsigned char*>(data);
    while (n > 0) {
      if (slot_ == nullptr) {
        slot_ = static_cast<unsigned char*>(q_->try_acquire_slot());
        CI_CHECK_MSG(slot_ != nullptr, "caller reserved too few slots");
        auto* hdr = reinterpret_cast<qclt::wire::FragmentHeader*>(slot_);
        hdr->msg_len = len_;
        hdr->frag_index = frag_index_++;
        hdr->reserved = 0;
        slot_off_ = 0;
      }
      const std::size_t chunk = std::min(n, qclt::wire::kFragPayload - slot_off_);
      std::memcpy(slot_ + sizeof(qclt::wire::FragmentHeader) + slot_off_, src, chunk);
      slot_off_ += chunk;
      src += chunk;
      n -= chunk;
      written_ += static_cast<std::uint32_t>(chunk);
      if (slot_off_ == qclt::wire::kFragPayload) {
        q_->commit_write();
        slot_ = nullptr;
      }
    }
  }

  qclt::SpscQueue* q_;
  const std::uint32_t len_;
  std::uint32_t written_ = 0;
  unsigned char* slot_ = nullptr;
  std::size_t slot_off_ = 0;
  std::uint16_t frag_index_ = 0;
};

}  // namespace ci::rt
