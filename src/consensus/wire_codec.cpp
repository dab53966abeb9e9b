#include "consensus/wire_codec.hpp"

#include <cstring>

#include "common/check.hpp"

namespace ci::wire {

using consensus::Command;
using consensus::CommandPool;
using consensus::CommandRun;
using consensus::kMaxCommandsPerBatch;
using consensus::kMessageHeaderBytes;
using consensus::Message;
using consensus::MsgType;

namespace {

// The batched payloads all follow one shape: fixed fields, a count, and a
// CommandRun. This view erases the per-type struct so encode/decode handle
// them uniformly; fixed is the payload-relative offset of the run (pinned
// by static_asserts in message.hpp). min_count/max_count bound the legal
// run per type: protocol batches need >= 2 (singles use legacy frames),
// client coalescing tolerates 1, learn runs cap at the catch-up window.
struct RunView {
  std::size_t fixed = 0;
  CommandRun* run = nullptr;
  std::int32_t count = 0;
  std::int32_t min_count = 2;
  std::int32_t max_count = kMaxCommandsPerBatch;
};

// Non-const so decode can assign into the run; encode uses it read-only.
bool run_view(Message& m, RunView* v) {
  switch (m.type) {
    case MsgType::kPhase2BatchReq:
      *v = {offsetof(consensus::Phase2BatchReq, run), &m.u.phase2_batch_req.run,
            m.u.phase2_batch_req.count};
      return true;
    case MsgType::kPhase2BatchAcked:
      *v = {offsetof(consensus::Phase2BatchAcked, run), &m.u.phase2_batch_acked.run,
            m.u.phase2_batch_acked.count};
      return true;
    case MsgType::kPhase1BatchResp:
      *v = {offsetof(consensus::Phase1BatchResp, run), &m.u.phase1_batch_resp.run,
            m.u.phase1_batch_resp.count, /*min_count=*/1, kMaxCommandsPerBatch};
      return true;
    case MsgType::kOpxBatchAcceptReq:
      *v = {offsetof(consensus::OpxBatchAcceptReq, run), &m.u.opx_batch_accept_req.run,
            m.u.opx_batch_accept_req.count};
      return true;
    case MsgType::kOpxBatchLearn:
      *v = {offsetof(consensus::OpxBatchLearn, run), &m.u.opx_batch_learn.run,
            m.u.opx_batch_learn.count};
      return true;
    case MsgType::kOpxPrepareBatchResp:
      *v = {offsetof(consensus::OpxPrepareBatchResp, run), &m.u.opx_prepare_batch_resp.run,
            m.u.opx_prepare_batch_resp.count};
      return true;
    case MsgType::kOpxWindowBody:
      *v = {offsetof(consensus::OpxWindowBody, run), &m.u.opx_window_body.run,
            m.u.opx_window_body.count};
      return true;
    case MsgType::kClientCmdBatch:
      *v = {offsetof(consensus::ClientCmdBatch, run), &m.u.client_cmd_batch.run,
            m.u.client_cmd_batch.count, /*min_count=*/1, consensus::kMaxClientBatchCommands};
      return true;
    case MsgType::kOpxLearnRun:
      *v = {offsetof(consensus::OpxLearnRun, run), &m.u.opx_learn_run.run,
            m.u.opx_learn_run.count, /*min_count=*/2, consensus::kMaxLearnRunCommands};
      return true;
    default:
      return false;
  }
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
  RunView v;
  if (run_view(const_cast<Message&>(m), &v)) {
    CI_CHECK_MSG(v.count >= v.min_count && v.count <= v.max_count,
                 "encoding a batched frame with a bogus count");
    const std::size_t cmds = static_cast<std::size_t>(v.count) * sizeof(Command);
    w.append(hdr, kMessageHeaderBytes);
    w.append(body, v.fixed);
    // Pooled runs are read straight out of the pool block here — the one
    // and only copy of the body after the sender packed it.
    w.append(v.run->data(v.count), cmds);
    return static_cast<std::uint32_t>(kMessageHeaderBytes + v.fixed + cmds);
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
  RunView v;
  if (run_view(m, &v)) {
    const std::size_t fixed = kMessageHeaderBytes + v.fixed;
    if (n < fixed) return false;
    std::memcpy(static_cast<void*>(&m), buf, fixed);
    if (!run_view(m, &v)) return false;  // re-read with the real count
    if (v.count < v.min_count || v.count > v.max_count) return false;
    const std::size_t cmds = static_cast<std::size_t>(v.count) * sizeof(Command);
    if (n < fixed + cmds) return false;  // truncated command run
    if (!consensus::wire_validate(m, n)) return false;
    // All checks passed: materialize the run (may allocate a pool block the
    // caller now owns through *out).
    v.run->assign(reinterpret_cast<const Command*>(buf + fixed), v.count);
    *out = m;
    return true;
  }
  if (n > sizeof(Message)) return false;  // legacy frames are struct prefixes
  std::memcpy(static_cast<void*>(&m), buf, n);
  if (!consensus::wire_validate(m, n)) return false;
  *out = m;
  return true;
}

void release_body(const Message& m) {
  RunView v;
  if (!run_view(const_cast<Message&>(m), &v)) return;
  if (v.count > consensus::kInlineBatchCommands && v.run->ref) {
    CommandPool::local().release(v.run->ref);
  }
}

std::uint32_t max_frame_bytes(const consensus::BatchPolicy& policy) {
  const std::size_t batch_frame =
      kMessageHeaderBytes + kMaxBatchFixedBytes +
      static_cast<std::size_t>(policy.commands_cap()) * sizeof(Command);
  const std::size_t entry_frame = kMessageHeaderBytes +
                                  offsetof(consensus::UtilPhase1Resp, accepted) +
                                  sizeof(consensus::UtilityEntry);
  // Catch-up learn runs are policy-independent: even a batch=1 deployment
  // can coalesce up to kMaxLearnRunCommands decided singles in one frame.
  const std::size_t learn_run_frame =
      kMessageHeaderBytes + offsetof(consensus::OpxLearnRun, run) +
      static_cast<std::size_t>(consensus::kMaxLearnRunCommands) * sizeof(Command);
  return static_cast<std::uint32_t>(std::max({batch_frame, entry_frame, learn_run_frame}));
}

}  // namespace ci::wire
