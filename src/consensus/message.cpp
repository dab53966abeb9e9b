#include "consensus/message.hpp"

namespace ci::consensus {

namespace {

std::size_t entry_bytes(const UtilityEntry& e) {
  // Entries without batched proposals keep the pre-batching layout: the
  // appended batched[] region is never serialized, so legacy traffic is
  // unchanged byte for byte (receivers zero-fill, so num_batched reads 0).
  if (e.num_batched == 0) {
    return offsetof(UtilityEntry, proposals) +
           static_cast<std::size_t>(e.num_proposals) * sizeof(Proposal);
  }
  return offsetof(UtilityEntry, batched) +
         static_cast<std::size_t>(e.num_batched) * sizeof(BatchedProposalRef);
}

// Count-prefixed Command runs: the fixed fields (everything before the
// in-memory CommandRun) + `count` commands. The codec serializes the run's
// commands at this offset, where the fixed-size cmds[] array used to sit,
// so the frame bytes are unchanged.
template <typename P>
std::size_t batch_bytes(const P& p) {
  return offsetof(P, run) + static_cast<std::size_t>(p.count) * sizeof(Command);
}

std::size_t payload_bytes(const Message& m) {
  switch (m.type) {
    case MsgType::kNone:
    case MsgType::kStart:
    case MsgType::kStop:
    case MsgType::kPing:
      return 0;
    case MsgType::kHeartbeat:
    case MsgType::kPong:
      // A pong answers a liveness probe with the responder's commit
      // frontier (Heartbeat-shaped payload): recovery polls read it, so the
      // frame must carry it — a 0-byte pong would silently truncate the
      // frontier to zero on decode.
      return sizeof(Heartbeat);
    case MsgType::kClientRequest:
      return sizeof(ClientRequest);
    case MsgType::kClientReply:
      return sizeof(ClientReply);
    case MsgType::kTwoPcPrepare:
      return sizeof(TwoPcPrepare);
    case MsgType::kTwoPcPrepareAck:
    case MsgType::kTwoPcPrepareNack:
    case MsgType::kTwoPcCommit:
    case MsgType::kTwoPcCommitAck:
    case MsgType::kTwoPcRollback:
      return sizeof(TwoPcAck);
    case MsgType::kPhase1Req:
      return sizeof(Phase1Req);
    case MsgType::kPhase1Resp:
      return offsetof(Phase1Resp, proposals) +
             static_cast<std::size_t>(m.u.phase1_resp.num_proposals) * sizeof(Proposal);
    case MsgType::kPhase2Req:
      return sizeof(Phase2Req);
    case MsgType::kPhase2Acked:
      return sizeof(Phase2Acked);
    case MsgType::kNack:
      return sizeof(Nack);
    case MsgType::kOpxPrepareReq:
      return sizeof(OpxPrepareReq);
    case MsgType::kOpxPrepareResp:
      return offsetof(OpxPrepareResp, accepted) +
             static_cast<std::size_t>(m.u.opx_prepare_resp.num_accepted) * sizeof(Proposal);
    case MsgType::kOpxAcceptReq:
      return sizeof(OpxAcceptReq);
    case MsgType::kOpxAbandon:
      return sizeof(OpxAbandon);
    case MsgType::kOpxLearn:
      return sizeof(OpxLearn);
    case MsgType::kOpxCatchupReq:
      return sizeof(OpxCatchupReq);
    case MsgType::kUtilPhase1Req:
      return sizeof(UtilPhase1Req);
    case MsgType::kUtilPhase1Resp:
      return offsetof(UtilPhase1Resp, accepted) + entry_bytes(m.u.util_phase1_resp.accepted);
    case MsgType::kUtilPhase2Req:
      return offsetof(UtilPhase2Req, entry) + entry_bytes(m.u.util_phase2_req.entry);
    case MsgType::kUtilAccepted:
      return offsetof(UtilAccepted, entry) + entry_bytes(m.u.util_accepted.entry);
    case MsgType::kUtilNack:
      return sizeof(UtilNack);
    case MsgType::kPhase2BatchReq:
      return batch_bytes(m.u.phase2_batch_req);
    case MsgType::kPhase2BatchAcked:
      return batch_bytes(m.u.phase2_batch_acked);
    case MsgType::kPhase1BatchResp:
      return batch_bytes(m.u.phase1_batch_resp);
    case MsgType::kOpxBatchAcceptReq:
      return batch_bytes(m.u.opx_batch_accept_req);
    case MsgType::kOpxBatchLearn:
      return batch_bytes(m.u.opx_batch_learn);
    case MsgType::kOpxPrepareBatchResp:
      return batch_bytes(m.u.opx_prepare_batch_resp);
    case MsgType::kOpxWindowBody:
      return batch_bytes(m.u.opx_window_body);
    case MsgType::kOpxWindowFetchReq:
      return sizeof(OpxWindowFetchReq);
    case MsgType::kClientCmdBatch:
      return batch_bytes(m.u.client_cmd_batch);
    case MsgType::kOpxLearnRun:
      return batch_bytes(m.u.opx_learn_run);
    case MsgType::kLeaseGrant:
      return sizeof(LeaseGrant);
  }
  return sizeof(Message::Payload);  // unknown: be conservative
}

bool count_ok(std::int32_t n) { return n >= 0 && n <= kMaxProposalsPerMsg; }

bool known_type(MsgType t) {
  switch (t) {
    case MsgType::kNone:
    case MsgType::kStart:
    case MsgType::kStop:
    case MsgType::kHeartbeat:
    case MsgType::kPing:
    case MsgType::kPong:
    case MsgType::kClientRequest:
    case MsgType::kClientReply:
    case MsgType::kTwoPcPrepare:
    case MsgType::kTwoPcPrepareAck:
    case MsgType::kTwoPcPrepareNack:
    case MsgType::kTwoPcCommit:
    case MsgType::kTwoPcCommitAck:
    case MsgType::kTwoPcRollback:
    case MsgType::kPhase1Req:
    case MsgType::kPhase1Resp:
    case MsgType::kPhase2Req:
    case MsgType::kPhase2Acked:
    case MsgType::kNack:
    case MsgType::kOpxPrepareReq:
    case MsgType::kOpxPrepareResp:
    case MsgType::kOpxAcceptReq:
    case MsgType::kOpxAbandon:
    case MsgType::kOpxLearn:
    case MsgType::kOpxCatchupReq:
    case MsgType::kUtilPhase1Req:
    case MsgType::kUtilPhase1Resp:
    case MsgType::kUtilPhase2Req:
    case MsgType::kUtilAccepted:
    case MsgType::kUtilNack:
    case MsgType::kPhase2BatchReq:
    case MsgType::kPhase2BatchAcked:
    case MsgType::kPhase1BatchResp:
    case MsgType::kOpxBatchAcceptReq:
    case MsgType::kOpxBatchLearn:
    case MsgType::kOpxPrepareBatchResp:
    case MsgType::kOpxWindowBody:
    case MsgType::kOpxWindowFetchReq:
    case MsgType::kClientCmdBatch:
    case MsgType::kOpxLearnRun:
    case MsgType::kLeaseGrant:
      return true;
  }
  return false;
}

// A batched frame must carry at least 2 commands (count-1 values use the
// legacy single-command frames) and at most the compile-time ceiling.
bool batch_count_ok(std::int32_t n) { return n >= 2 && n <= kMaxCommandsPerBatch; }

bool entry_ok(const UtilityEntry& e) {
  if (!count_ok(e.num_proposals)) return false;
  if (e.num_batched < 0 || e.num_batched > kMaxBatchedPerEntry) return false;
  for (std::int32_t i = 0; i < e.num_batched; ++i) {
    if (!batch_count_ok(e.batched[i].count)) return false;
  }
  return true;
}

}  // namespace

std::size_t wire_size(const Message& m) { return kMessageHeaderBytes + payload_bytes(m); }

bool wire_validate(const Message& m, std::size_t bytes) {
  if (bytes < kMessageHeaderBytes) return false;
  if (!known_type(m.type)) return false;
  if (m.group < 0) return false;
  switch (m.type) {
    case MsgType::kPhase1Resp:
      if (!count_ok(m.u.phase1_resp.num_proposals)) return false;
      if (m.u.phase1_resp.num_batched < 0) return false;
      break;
    case MsgType::kOpxPrepareResp:
      if (!count_ok(m.u.opx_prepare_resp.num_accepted)) return false;
      if (m.u.opx_prepare_resp.num_batched < 0) return false;
      break;
    case MsgType::kUtilPhase1Resp:
      if (!entry_ok(m.u.util_phase1_resp.accepted)) return false;
      break;
    case MsgType::kUtilPhase2Req:
      if (!entry_ok(m.u.util_phase2_req.entry)) return false;
      break;
    case MsgType::kUtilAccepted:
      if (!entry_ok(m.u.util_accepted.entry)) return false;
      break;
    case MsgType::kPhase2BatchReq:
      if (!batch_count_ok(m.u.phase2_batch_req.count)) return false;
      break;
    case MsgType::kPhase2BatchAcked:
      if (!batch_count_ok(m.u.phase2_batch_acked.count)) return false;
      break;
    case MsgType::kPhase1BatchResp:
      // The one batched frame that may carry a single command: the overflow
      // of a full Phase1Resp array.
      if (m.u.phase1_batch_resp.count < 1 ||
          m.u.phase1_batch_resp.count > kMaxCommandsPerBatch) {
        return false;
      }
      break;
    case MsgType::kOpxBatchAcceptReq:
      if (!batch_count_ok(m.u.opx_batch_accept_req.count)) return false;
      break;
    case MsgType::kOpxBatchLearn:
      if (!batch_count_ok(m.u.opx_batch_learn.count)) return false;
      break;
    case MsgType::kOpxPrepareBatchResp:
      if (!batch_count_ok(m.u.opx_prepare_batch_resp.count)) return false;
      break;
    case MsgType::kOpxWindowBody:
      if (!batch_count_ok(m.u.opx_window_body.count)) return false;
      break;
    case MsgType::kClientCmdBatch:
      // Tighter cap than the protocol batches: client runs stay inline.
      // count == 1 is legal (a coalescing window can close with one
      // command queued); senders still prefer the legacy kClientRequest
      // frame for singles, so default wire traffic is unchanged.
      if (m.u.client_cmd_batch.count < 1 ||
          m.u.client_cmd_batch.count > kMaxClientBatchCommands) {
        return false;
      }
      break;
    case MsgType::kOpxLearnRun:
      // Runs of 1 use the legacy kOpxLearn frame; the cap is the catch-up
      // window, tighter than the batch ceiling.
      if (m.u.opx_learn_run.count < 2 ||
          m.u.opx_learn_run.count > kMaxLearnRunCommands) {
        return false;
      }
      break;
    default:
      break;
  }
  return bytes >= wire_size(m);
}

}  // namespace ci::consensus
