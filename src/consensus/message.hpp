// Wire messages for every protocol in the repository.
//
// One trivially-copyable Message struct carries a small header plus a union
// payload. The in-memory Message is deliberately decoupled from the wire:
// batched command runs longer than the inline buffer live out of line in
// the CommandPool (command_pool.hpp) and the wire::Codec (wire_codec.hpp)
// produces compact variable-length frames, so sizeof(Message) stays within
// the budget pinned below instead of growing with the worst-case batch.
// wire_size() returns the encoded frame size for a given message; every
// fast-path message fits a single 128-byte QC-libtask slot, while batched
// frames and the rare 1Paxos reconfiguration entries span a few fragments
// (paper §5.2: the backup-acceptor machinery stays off the fast path).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>

#include "common/check.hpp"
#include "consensus/command_pool.hpp"
#include "consensus/types.hpp"

namespace ci::consensus {

enum class ProtoId : std::uint8_t {
  kNone = 0,
  kControl,   // start/stop/heartbeat/ping
  kClient,    // request/reply
  kTwoPc,
  kBasicPaxos,
  kMultiPaxos,
  kOnePaxos,
  kUtility,   // PaxosUtility configuration consensus
};

enum class MsgType : std::uint8_t {
  kNone = 0,

  // Control plane.
  kStart,        // load manager -> clients: begin issuing requests
  kStop,         // load manager -> everyone: drain and stop
  kHeartbeat,    // leader -> replicas (failure detection)
  kPing,         // liveness probe (leader -> active acceptor)
  kPong,

  // Client traffic.
  kClientRequest,
  kClientReply,

  // 2PC (§2.2).
  kTwoPcPrepare,
  kTwoPcPrepareAck,
  kTwoPcPrepareNack,
  kTwoPcCommit,
  kTwoPcCommitAck,
  kTwoPcRollback,

  // Paxos phases (Basic- and Multi-Paxos, §2.3).
  kPhase1Req,    // prepare request
  kPhase1Resp,   // promise, carrying accepted proposals
  kNack,         // reject with higher ballot

  // 1Paxos (§5, Appendix A).
  kOpxPrepareReq,
  kOpxPrepareResp,
  kOpxAbandon,
  kOpxCatchupReq,  // lagging learner -> leader: re-send decided values

  // PaxosUtility (§5.2).
  kUtilPhase1Req,
  kUtilPhase1Resp,
  kUtilPhase2Req,
  kUtilAccepted,
  kUtilNack,

  // The agreement fast path: one instance deciding a run of 1..64
  // commands (a Batch, consensus/batch.hpp). A single command is a run of
  // one, so each protocol has one accept frame and one learn frame.
  kPhase2BatchReq,     // Multi-Paxos accept request
  kPhase2BatchAcked,   // acceptor -> learners broadcast / decided catch-up
  kOpxBatchAcceptReq,  // 1Paxos accept request
  kOpxBatchLearn,      // single active acceptor -> all learners

  // Batched recovery sidecars: one per batched accepted-but-undecided
  // instance, sent BEFORE the main phase-1 / prepare response, which counts
  // them (num_batched) so the adopter can tell a complete report from a
  // reordered or partially-lost one and wait (or retry) instead of
  // recovering half a window.
  kPhase1BatchResp,
  kOpxPrepareBatchResp,

  // Out-of-line batched-window bodies (1Paxos reconfiguration). An
  // AcceptorChange entry identifies its batched uncommitted values by
  // (instance, count, digest); the command bodies are published to every
  // replica as kOpxWindowBody frames when the change is proposed, and an
  // adopter missing one fetches it with kOpxWindowFetchReq (fetch-on-adopt,
  // DESIGN.md §1c). This keeps the consensus value itself small and
  // self-contained instead of appending a worst-case command pool to it.
  kOpxWindowBody,
  kOpxWindowFetchReq,

  // Client-side command batching (cross-shard transactions and session
  // coalescing, client/txn.hpp + client/async_client.hpp): one frame
  // carrying a run of 1..kInlineBatchCommands commands from one client to
  // one group's replica. The GroupDemuxEngine on the receiving node
  // decomposes the run into ordinary kClientRequest deliveries, so every
  // protocol engine handles the commands without knowing the frame exists;
  // replies stay per-command. Coalescing senders send a lone command as a
  // kClientRequest; a run of one is legal too.
  kClientCmdBatch,

  // Catch-up run (1Paxos): a run of count (1..16) CONSECUTIVE instances
  // starting at first_instance, each of which decided exactly ONE command
  // (cmds[i] is the whole value of first_instance + i). A lagging
  // learner's kOpxCatchupReq is answered with these, so one header
  // amortizes over the run. Instances that decided multi-command batches
  // ride kOpxBatchLearn.
  kOpxLearnRun,

  // Leader-lease grant (follower -> leader): the follower promises not to
  // start (or support) a takeover for lease_duration after receiving the
  // heartbeat that carried lease_seq; the grant echoes that seq so the
  // leader can bound each grant by its OWN send time (no cross-node clock
  // is ever compared). Leases exist only when EngineConfig::lease_duration
  // > 0 — heartbeats then carry a nonzero lease_seq — so default
  // deployments emit no grants and their wire traffic is unchanged.
  kLeaseGrant,

  // Not a kind: one past the last, so the message table (kWireRows below)
  // can insist on a row for every kind.
  kEnd,
};

// Message::flags bits.
inline constexpr std::uint16_t kFlagDecided = 1;        // an acceptance carries a decided value
inline constexpr std::uint16_t kFlagLeaderSuspect = 2;  // client re-sent after a timeout
inline constexpr std::uint16_t kFlagEstablishing = 4;   // heartbeat from a leader mid-recovery

// ---- Payloads ----

struct ClientRequest {
  Command cmd;
};

struct ClientReply {
  std::uint32_t seq = 0;
  std::uint8_t ok = 1;
  std::uint8_t reserved[3] = {0, 0, 0};
  std::uint64_t result = 0;     // read value for kRead commands
  Instance instance = kNoInstance;
  NodeId leader_hint = kNoNode;  // who the client should talk to
  // The answering replica's write epoch: a counter that advances on every
  // state-mutating command the replica applies. The session near-cache
  // (client/service_client.hpp) keys entries by (key, epoch) and treats any
  // entry older than the latest epoch seen from the group as invalid — the
  // ack stream IS the invalidation channel. 0 = epoch not reported (engines
  // start at 1). Occupies the struct's former trailing padding, so the wire
  // frame layout is unchanged.
  std::uint32_t lease_epoch = 0;
};
static_assert(sizeof(ClientReply) == 32 && offsetof(ClientReply, lease_epoch) == 28,
              "lease_epoch must occupy ClientReply's former trailing padding");

struct TwoPcPrepare {
  Instance instance = kNoInstance;
  Command cmd;
};

struct TwoPcAck {  // prepare-ack/nack, commit-ack, rollback, commit
  Instance instance = kNoInstance;
};

struct Heartbeat {
  NodeId leader = kNoNode;
  // Lease renewal round this heartbeat opens (0 = leases disabled, the
  // default — followers then send no kLeaseGrant replies and the frame's
  // bytes match the pre-lease system). Occupies former struct padding.
  std::uint32_t lease_seq = 0;
  Instance committed = kNoInstance;  // leader's contiguous commit prefix
  ProposalNum ballot;                // resolves dueling leaders by comparison
};
static_assert(offsetof(Heartbeat, committed) == 8,
              "lease_seq must occupy Heartbeat's former padding, not shift fields");

// Follower -> leader lease grant (kLeaseGrant): "I will not elect or
// support another leader for lease_duration from when I sent this." The
// leader discounts it by lease_epsilon against its own send time of the
// heartbeat `lease_seq` echoes, so the promise holds under bounded relative
// clock skew (DESIGN.md §1f).
struct LeaseGrant {
  NodeId grantor = kNoNode;
  std::uint32_t lease_seq = 0;  // echo of Heartbeat::lease_seq
  ProposalNum ballot;           // the leadership regime the grant supports
};

struct Phase1Req {
  ProposalNum pn;
  Instance from_instance = 0;  // promises cover [from_instance, inf)
};

struct Phase1Resp {
  ProposalNum pn;  // the promised ballot (echo)
  std::int32_t num_proposals = 0;
  // Batched accepted values travel as kPhase1BatchResp sidecars (one per
  // instance) sent before this message; this is their count. Occupies what
  // used to be padding, so the single-command wire layout is unchanged.
  std::int32_t num_batched = 0;
  Proposal proposals[kMaxProposalsPerMsg];  // accepted values >= from_instance
};

struct Nack {
  Instance instance = kNoInstance;
  ProposalNum higher_pn;  // the ballot the acceptor is promised to
  NodeId leader_hint = kNoNode;
};

// 1Paxos payloads (Appendix A).

struct OpxPrepareReq {
  ProposalNum pn;
  std::uint8_t you_must_be_fresh = 0;
  std::uint8_t reserved[7] = {0};
};

struct OpxPrepareResp {
  NodeId acceptor = kNoNode;  // Ai: lets a proposer ignore stale responses
  ProposalNum pn;
  // The acceptor's allocation frontier: one past the highest instance it has
  // seen decided or accepted. The adopting leader must not allocate below it.
  Instance frontier = 0;
  std::int32_t num_accepted = 0;
  // Batched ap entries travel as kOpxPrepareBatchResp sidecars sent before
  // this message; this is their count (former padding, layout unchanged).
  std::int32_t num_batched = 0;
  Proposal accepted[kMaxProposalsPerMsg];  // ap: the acceptor's short-term memory
};

struct OpxAbandon {
  ProposalNum higher_pn;
};

struct OpxCatchupReq {
  Instance from_instance = 0;  // send decided values from here on
};

// ---- Run payloads ----
// One instance whose value is a run of `count` commands. In memory the run
// is a CommandRun: inline up to kInlineBatchCommands, out of line in the
// CommandPool beyond that. On the wire the codec serializes the fixed
// fields (everything before the run; their offsets are pinned below)
// followed by exactly `count` commands: a batch of k costs one header plus
// k commands — the amortization the batching layer buys.

struct CommandRun {
  BodyRef ref;  // non-null iff the run is pooled (count > kInlineBatchCommands)
  Command inline_cmds[kInlineBatchCommands];

  const Command* data(std::int32_t count) const {
    return count <= kInlineBatchCommands ? inline_cmds : CommandPool::local().data(ref);
  }

  // Copies the run in; long runs allocate a pool block whose single
  // reference this message now owns (see wire_codec.hpp for the custody
  // rules: ctx.send() consumes it, transports release after delivery).
  void assign(const Command* src, std::int32_t count) {
    CI_CHECK(count >= 1 && count <= kMaxCommandsPerBatch);
    if (count <= kInlineBatchCommands) {
      std::memcpy(inline_cmds, src, static_cast<std::size_t>(count) * sizeof(Command));
      ref = BodyRef{};
    } else {
      ref = CommandPool::local().alloc(src, count);
    }
  }

  // Engine convenience: copy a whole batch in, returning its count for the
  // payload's count field. (Templated so this header stays independent of
  // batch.hpp, which defines the Batch vector type.)
  template <typename BatchT>
  std::int32_t pack(const BatchT& b) {
    const auto count = static_cast<std::int32_t>(b.size());
    assign(b.data(), count);
    return count;
  }
};

struct Phase2BatchReq {
  Instance instance = kNoInstance;
  ProposalNum pn;
  std::int32_t count = 0;
  std::uint8_t reserved[4] = {0};
  CommandRun run;
};

struct Phase2BatchAcked {
  Instance instance = kNoInstance;
  ProposalNum pn;
  std::int32_t count = 0;
  std::uint8_t reserved[4] = {0};
  CommandRun run;
};

// Recovery sidecar: one accepted (or learned) instance reported during a
// Multi-Paxos takeover. Batched values always ride here; single-command
// values ride inline in the main Phase1Resp until its array is full, and
// the overflow rides here too, so a sidecar may carry a single command.
struct Phase1BatchResp {
  ProposalNum pn;           // the promised ballot (echo, matches the main resp)
  ProposalNum accepted_pn;  // ballot this batch was accepted at
  Instance instance = kNoInstance;
  std::int32_t count = 0;
  std::uint8_t reserved[4] = {0};
  CommandRun run;
};

struct OpxBatchAcceptReq {
  Instance instance = kNoInstance;
  ProposalNum pn;
  std::int32_t count = 0;
  std::uint8_t reserved[4] = {0};
  CommandRun run;
};

struct OpxBatchLearn {
  Instance instance = kNoInstance;
  std::int32_t count = 0;
  std::uint8_t reserved[4] = {0};
  CommandRun run;
};

// Recovery sidecar: one batched ap entry reported during a 1Paxos adoption.
struct OpxPrepareBatchResp {
  NodeId acceptor = kNoNode;  // Ai (mirrors the main resp's guard)
  std::int32_t count = 0;
  ProposalNum pn;  // the adoption ballot (echo, matches the main resp)
  Instance instance = kNoInstance;
  CommandRun run;
};

// A batched uncommitted value published out of line when an AcceptorChange
// entry is proposed: every replica stores the body keyed by (instance,
// digest) so a later adopter can resolve the entry's refs locally.
struct OpxWindowBody {
  Instance instance = kNoInstance;
  std::uint64_t digest = 0;
  std::int32_t count = 0;
  std::uint8_t reserved[4] = {0};
  CommandRun run;
};

// Fetch-on-adopt: an adopter missing a body named by an AcceptorChange ref
// asks the other replicas; any holder answers with kOpxWindowBody.
struct OpxWindowFetchReq {
  Instance instance = kNoInstance;
  std::uint64_t digest = 0;
};

// A run of client commands in one frame (kClientCmdBatch). Capped at the
// inline run capacity: the run never touches the CommandPool (sessions live
// on application threads; the pool is engine-thread-local) and the frame
// always fits an unbatched deployment's default SPSC queue slots, so
// clients may send it regardless of the group's BatchPolicy.
struct ClientCmdBatch {
  std::int32_t count = 0;
  std::uint8_t reserved[4] = {0};
  CommandRun run;
};
inline constexpr std::int32_t kMaxClientBatchCommands = kInlineBatchCommands;

// A catch-up run (kOpxLearnRun): `count` consecutive single-command decided
// instances, [first_instance, first_instance + count). Same shape as
// OpxBatchLearn — the meaning of the run differs (one command per instance,
// not one instance deciding the run). Capped at the catch-up window (16
// instances per kOpxCatchupReq), which keeps the frame under every
// deployment's max_frame_bytes() bound regardless of batch policy.
inline constexpr std::int32_t kMaxLearnRunCommands = 16;
struct OpxLearnRun {
  Instance first_instance = kNoInstance;
  std::int32_t count = 0;
  std::uint8_t reserved[4] = {0};
  CommandRun run;
};

// PaxosUtility: consensus entries are leader/acceptor changes, with the
// uncommitted proposals attached to AcceptorChange (paper §5.2).

// Capacity of a UtilityEntry's batched-ref array. Like the legacy proposals
// array (twice the default pipeline window), it holds the union of TWO
// uncommitted batched windows (handover after handover). Refs are a few
// dozen bytes each: the command bodies travel out of line (kOpxWindowBody),
// which is what keeps the entry — and with it sizeof(Message) — small.
inline constexpr std::int32_t kMaxBatchedPerEntry = kMaxProposalsPerMsg;

// One batched uncommitted instance inside a UtilityEntry: `count` commands
// whose bodies are named by `digest` (batch_digest in batch.hpp). The entry
// stays a self-contained consensus value — what was agreed is the (instance,
// count, digest) binding — while the bodies are published to every replica
// when the change is proposed and fetched on adopt if missing.
struct BatchedProposalRef {
  Instance instance = kNoInstance;
  std::int32_t count = 0;
  std::uint8_t reserved[4] = {0};
  std::uint64_t digest = 0;
};

struct UtilityEntry {
  enum class Kind : std::uint8_t { kNone = 0, kLeaderChange, kAcceptorChange };

  Kind kind = Kind::kNone;
  std::uint8_t reserved[3] = {0, 0, 0};
  NodeId leader = kNoNode;    // kLeaderChange: the announcing proposer
  NodeId acceptor = kNoNode;  // both kinds: the active acceptor
  // kAcceptorChange: the switching leader's allocation frontier — no
  // instance below it may ever be allocated to a new command. This is what
  // keeps a future leader with a lossy log from re-filling an instance that
  // already decided (the paper assumes lossless links; with loss the
  // frontier must travel with the configuration).
  Instance frontier = 0;
  std::int32_t num_proposals = 0;
  // Batched uncommitted values ride as refs in batched[] below; num_batched
  // occupies former padding, and entries with num_batched == 0 keep the
  // legacy wire size exactly (see entry_bytes in message.cpp).
  std::int32_t num_batched = 0;
  Proposal proposals[kMaxProposalsPerMsg];  // kAcceptorChange: single-command values
  BatchedProposalRef batched[kMaxBatchedPerEntry];

  friend bool operator==(const UtilityEntry& a, const UtilityEntry& b) {
    if (a.kind != b.kind || a.leader != b.leader || a.acceptor != b.acceptor ||
        a.frontier != b.frontier || a.num_proposals != b.num_proposals ||
        a.num_batched != b.num_batched) {
      return false;
    }
    for (std::int32_t i = 0; i < a.num_proposals; ++i) {
      if (!(a.proposals[i] == b.proposals[i])) return false;
    }
    // The digest IS the batched value's identity: two producers packing the
    // same window compute the same digest (batch_digest is order-sensitive
    // and padding-blind), so semantic equality survived the move out of line.
    for (std::int32_t i = 0; i < a.num_batched; ++i) {
      const BatchedProposalRef& ra = a.batched[i];
      const BatchedProposalRef& rb = b.batched[i];
      if (ra.instance != rb.instance || ra.count != rb.count || ra.digest != rb.digest) {
        return false;
      }
    }
    return true;
  }
};

struct UtilPhase1Req {
  Instance instance = kNoInstance;  // utility instances are per-slot (Basic-Paxos)
  ProposalNum pn;
};

struct UtilPhase1Resp {
  Instance instance = kNoInstance;
  ProposalNum pn;
  std::uint8_t has_accepted = 0;
  std::uint8_t reserved[7] = {0};
  ProposalNum accepted_pn;
  UtilityEntry accepted;
};

struct UtilPhase2Req {
  Instance instance = kNoInstance;
  ProposalNum pn;
  UtilityEntry entry;
};

struct UtilAccepted {
  Instance instance = kNoInstance;
  ProposalNum pn;
  UtilityEntry entry;
};

struct UtilNack {
  Instance instance = kNoInstance;
  ProposalNum higher_pn;
};

// ---- The message ----

struct Message {
  MsgType type = MsgType::kNone;
  ProtoId proto = ProtoId::kNone;
  std::uint16_t flags = 0;
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  // Consensus group this message belongs to. Multi-group deployments run
  // several independent groups over one transport; a demux on each node
  // routes by this field. Single-group traffic is group 0, and the field
  // occupies what used to be header padding, so the wire layout of existing
  // deployments is unchanged.
  GroupId group = kGroup0;

  union Payload {
    ClientRequest client_request;
    ClientReply client_reply;
    TwoPcPrepare two_pc_prepare;
    TwoPcAck two_pc_ack;
    Heartbeat heartbeat;
    LeaseGrant lease_grant;
    Phase1Req phase1_req;
    Phase1Resp phase1_resp;
    Nack nack;
    OpxPrepareReq opx_prepare_req;
    OpxPrepareResp opx_prepare_resp;
    OpxAbandon opx_abandon;
    OpxCatchupReq opx_catchup_req;
    UtilPhase1Req util_phase1_req;
    UtilPhase1Resp util_phase1_resp;
    UtilPhase2Req util_phase2_req;
    UtilAccepted util_accepted;
    UtilNack util_nack;
    Phase2BatchReq phase2_batch_req;
    Phase2BatchAcked phase2_batch_acked;
    Phase1BatchResp phase1_batch_resp;
    OpxBatchAcceptReq opx_batch_accept_req;
    OpxBatchLearn opx_batch_learn;
    OpxPrepareBatchResp opx_prepare_batch_resp;
    OpxWindowBody opx_window_body;
    OpxWindowFetchReq opx_window_fetch_req;
    ClientCmdBatch client_cmd_batch;
    OpxLearnRun opx_learn_run;

    // All members are trivially copyable PODs; zero-fill so serialized
    // padding bytes are deterministic.
    Payload() { std::memset(static_cast<void*>(this), 0, sizeof(*this)); }
  } u;

  Message() = default;
  Message(MsgType t, ProtoId p, NodeId from, NodeId to) : type(t), proto(p), src(from), dst(to) {}
};

static_assert(std::is_trivially_copyable_v<Message>);

inline constexpr std::size_t kMessageHeaderBytes = offsetof(Message, u);
// `group` must fit inside the pre-existing header padding (the union is
// 8-byte aligned); growing the header would change every wire frame.
static_assert(kMessageHeaderBytes == 16);

// The batching counters occupy former struct padding, so the proposal
// arrays keep their offsets and these frames their layout.
static_assert(offsetof(Phase1Resp, proposals) == 24);
static_assert(offsetof(OpxPrepareResp, accepted) == 40);
static_assert(offsetof(UtilityEntry, proposals) == 32);

// A run frame's fixed fields end where its command run begins; pinning the
// run offsets pins the frame prefix the codec serializes.
static_assert(offsetof(Phase2BatchReq, run) == 32);
static_assert(offsetof(Phase2BatchAcked, run) == 32);
static_assert(offsetof(Phase1BatchResp, run) == 48);
static_assert(offsetof(OpxBatchAcceptReq, run) == 32);
static_assert(offsetof(OpxBatchLearn, run) == 16);
static_assert(offsetof(OpxPrepareBatchResp, run) == 32);
static_assert(offsetof(ClientCmdBatch, run) == 8);
static_assert(offsetof(OpxLearnRun, run) == 16);

// The budget this refactor exists to enforce: every Message construction
// zero-fills sizeof(Message) bytes and every SPSC slot, rt task stack, and
// sim event is sized against it, so the worst-case union member must stay
// small. Regressions fail the build here (and the ctest wire-budget checks
// pin the per-frame encodings; see tests/consensus/wire_codec_test.cpp).
inline constexpr std::size_t kMessageBudgetBytes = 1536;
static_assert(sizeof(Message) <= kMessageBudgetBytes,
              "sizeof(Message) exceeds its budget: move payload out of line "
              "instead of growing the union");

// ---- The message table ----
// Every per-kind wire fact lives in one row: how many payload bytes the kind
// puts on the wire, which count field sizes its variable tail and within
// what bounds, and where its command run sits. wire_size, wire_validate and
// the codec (wire_codec.cpp) look the row up by type; nothing else restates
// these facts. Adding a kind takes one payload struct, one union member and
// one row; the static_assert below refuses a build whose rows do not match
// the enum one for one.

// What follows a kind's `fixed` payload bytes on the wire.
enum class Tail : std::uint8_t {
  kNone,   // nothing
  kArray,  // `count` elements of `elem` bytes, stored inline
  kRun,    // the `count` commands of the CommandRun at payload offset `fixed`
           // (inline or pooled in memory, contiguous on the wire)
  kEntry,  // the UtilityEntry at payload offset `fixed`, truncated to its used
           // arrays and checked by its own counts (message.cpp)
};

struct WireRow {
  MsgType type = MsgType::kNone;
  Tail tail = Tail::kNone;
  std::size_t fixed = 0;        // payload bytes before the tail
  std::size_t elem = 0;         // bytes per tail element (kArray, kRun)
  std::size_t count_at = 0;     // payload offset of the int32 element count
  std::int32_t min_count = 0;   // legal element counts (kArray, kRun)
  std::int32_t max_count = 0;
  std::size_t sidecars_at = 0;  // payload offset of an int32 sidecar count
                                // that must not be negative (0: none)

  std::int32_t count(const Message& m) const { return payload_i32(m, count_at); }

  static std::int32_t payload_i32(const Message& m, std::size_t at) {
    std::int32_t v;
    std::memcpy(&v, reinterpret_cast<const unsigned char*>(&m.u) + at, sizeof(v));
    return v;
  }

  // Largest payload this kind can put on the wire when protocol batches are
  // capped at `batch_cap` commands. Client and learn runs have their own
  // caps, which no batch policy changes.
  constexpr std::size_t max_bytes(std::int32_t batch_cap) const {
    switch (tail) {
      case Tail::kNone:
        return fixed;
      case Tail::kArray:
        return fixed + static_cast<std::size_t>(max_count) * elem;
      case Tail::kRun:
        return fixed + static_cast<std::size_t>(max_count == kMaxCommandsPerBatch ? batch_cap
                                                                                 : max_count) *
                           elem;
      case Tail::kEntry:
        return fixed + sizeof(UtilityEntry);
    }
    return sizeof(Message::Payload);
  }
};

template <typename P>
constexpr WireRow fixed_row(MsgType t) {
  return {.type = t, .fixed = sizeof(P)};
}

// Fixed fields, an int32 `count`, then a CommandRun `run` of lo..hi
// commands.
template <typename P>
constexpr WireRow run_row(MsgType t, std::int32_t lo, std::int32_t hi) {
  return {.type = t, .tail = Tail::kRun, .fixed = offsetof(P, run), .elem = sizeof(Command),
          .count_at = offsetof(P, count), .min_count = lo, .max_count = hi};
}

constexpr WireRow entry_row(MsgType t, std::size_t at) {
  return {.type = t, .tail = Tail::kEntry, .fixed = at};
}

// One row per MsgType, in enum order.
inline constexpr WireRow kWireRows[] = {
    {MsgType::kNone},
    {MsgType::kStart},
    {MsgType::kStop},
    fixed_row<Heartbeat>(MsgType::kHeartbeat),
    {MsgType::kPing},
    // A pong answers a liveness probe with the responder's commit frontier
    // (Heartbeat-shaped): recovery polls read it, so a 0-byte pong would
    // truncate the frontier to zero on decode.
    fixed_row<Heartbeat>(MsgType::kPong),
    fixed_row<ClientRequest>(MsgType::kClientRequest),
    fixed_row<ClientReply>(MsgType::kClientReply),
    fixed_row<TwoPcPrepare>(MsgType::kTwoPcPrepare),
    fixed_row<TwoPcAck>(MsgType::kTwoPcPrepareAck),
    fixed_row<TwoPcAck>(MsgType::kTwoPcPrepareNack),
    fixed_row<TwoPcAck>(MsgType::kTwoPcCommit),
    fixed_row<TwoPcAck>(MsgType::kTwoPcCommitAck),
    fixed_row<TwoPcAck>(MsgType::kTwoPcRollback),
    fixed_row<Phase1Req>(MsgType::kPhase1Req),
    {.type = MsgType::kPhase1Resp, .tail = Tail::kArray,
     .fixed = offsetof(Phase1Resp, proposals), .elem = sizeof(Proposal),
     .count_at = offsetof(Phase1Resp, num_proposals), .min_count = 0,
     .max_count = kMaxProposalsPerMsg, .sidecars_at = offsetof(Phase1Resp, num_batched)},
    fixed_row<Nack>(MsgType::kNack),
    fixed_row<OpxPrepareReq>(MsgType::kOpxPrepareReq),
    {.type = MsgType::kOpxPrepareResp, .tail = Tail::kArray,
     .fixed = offsetof(OpxPrepareResp, accepted), .elem = sizeof(Proposal),
     .count_at = offsetof(OpxPrepareResp, num_accepted), .min_count = 0,
     .max_count = kMaxProposalsPerMsg, .sidecars_at = offsetof(OpxPrepareResp, num_batched)},
    fixed_row<OpxAbandon>(MsgType::kOpxAbandon),
    fixed_row<OpxCatchupReq>(MsgType::kOpxCatchupReq),
    fixed_row<UtilPhase1Req>(MsgType::kUtilPhase1Req),
    entry_row(MsgType::kUtilPhase1Resp, offsetof(UtilPhase1Resp, accepted)),
    entry_row(MsgType::kUtilPhase2Req, offsetof(UtilPhase2Req, entry)),
    entry_row(MsgType::kUtilAccepted, offsetof(UtilAccepted, entry)),
    fixed_row<UtilNack>(MsgType::kUtilNack),
    // Accept and learn frames carry any value: a single command is a run
    // of one.
    run_row<Phase2BatchReq>(MsgType::kPhase2BatchReq, 1, kMaxCommandsPerBatch),
    run_row<Phase2BatchAcked>(MsgType::kPhase2BatchAcked, 1, kMaxCommandsPerBatch),
    run_row<OpxBatchAcceptReq>(MsgType::kOpxBatchAcceptReq, 1, kMaxCommandsPerBatch),
    run_row<OpxBatchLearn>(MsgType::kOpxBatchLearn, 1, kMaxCommandsPerBatch),
    // A Multi-Paxos sidecar may carry a single command: the overflow of a
    // full Phase1Resp array. A 1Paxos sidecar or window body names a batch
    // of >= 2 (single-command values ride inline in the main response or
    // the entry).
    run_row<Phase1BatchResp>(MsgType::kPhase1BatchResp, 1, kMaxCommandsPerBatch),
    run_row<OpxPrepareBatchResp>(MsgType::kOpxPrepareBatchResp, 2, kMaxCommandsPerBatch),
    run_row<OpxWindowBody>(MsgType::kOpxWindowBody, 2, kMaxCommandsPerBatch),
    fixed_row<OpxWindowFetchReq>(MsgType::kOpxWindowFetchReq),
    // Client runs stay inline. A coalescing window may close with one
    // command queued, so 1 is legal.
    run_row<ClientCmdBatch>(MsgType::kClientCmdBatch, 1, kMaxClientBatchCommands),
    // The cap is the catch-up window.
    run_row<OpxLearnRun>(MsgType::kOpxLearnRun, 1, kMaxLearnRunCommands),
    fixed_row<LeaseGrant>(MsgType::kLeaseGrant),
};

constexpr bool wire_rows_ok() {
  if (std::size(kWireRows) != static_cast<std::size_t>(MsgType::kEnd)) return false;
  for (std::size_t i = 0; i < std::size(kWireRows); ++i) {
    const WireRow& r = kWireRows[i];
    if (r.type != static_cast<MsgType>(i)) return false;
    // Counts sit among the fixed fields, and a CommandRun holds 1..64.
    if (r.elem != 0 && r.count_at + sizeof(std::int32_t) > r.fixed) return false;
    if (r.tail == Tail::kRun && (r.min_count < 1 || r.max_count > kMaxCommandsPerBatch)) {
      return false;
    }
  }
  return true;
}
static_assert(wire_rows_ok(), "kWireRows needs one well-formed row per MsgType, in enum order");

// The row of a kind, or nullptr for a type byte that names none.
inline const WireRow* wire_row(MsgType t) {
  const auto i = static_cast<std::size_t>(t);
  return i < std::size(kWireRows) ? &kWireRows[i] : nullptr;
}

// Encoded frame size of a message (header + compact payload). Variable-
// length payloads — proposal arrays, command runs — are truncated to their
// used prefix; out-of-line runs count their commands, not their refs.
std::size_t wire_size(const Message& m);

// True when the message's fixed fields look internally consistent; used by
// transports after deserialization.
bool wire_validate(const Message& m, std::size_t bytes);

}  // namespace ci::consensus
