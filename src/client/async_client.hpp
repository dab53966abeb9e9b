// The asynchronous replicated-service client engine: the bridge between
// application threads and the event-driven engine world, and the layer the
// public client API (service_client.hpp) is built on.
//
// One AsyncClientEngine occupies one node of one consensus group. The core
// operation is submit(): queue a command, get a SubmitHandle completion
// token back immediately. Blocking is a wrapper — execute() is
// submit().wait(), flush() waits for everything in flight. This is the one
// piece of code that speaks the client wire protocol: seq stamping, reply
// matching, leader-hint retargeting, the kClientRequest-vs-kClientCmdBatch
// frame choice, and the §7.6 retry — on timeout the request goes to the next
// replica with the leader-suspect flag set. The closed-loop load generator
// (closed_loop.hpp) drives one of these rather than repeating any of it.
//
// Backend bridging: under the real-thread runtime the hosting node's thread
// drives the engine and waiters block on a condition variable. A submit
// that finds the queue empty calls the wake hook (set_wake_hook), so a
// node parked until its next timer launches the command at once; the host
// installs it on net, whose node sleeps in ppoll (rt spins and needs
// none). next_deadline() tells that node when the retry timer is due.
// Under the simulator nothing runs until somebody advances virtual time,
// so waiters call the configured pump() in a loop (with the engine
// unlocked) until the completion lands — exactly the bridging the
// synchronous client had.
//
// Pipelining: up to kMaxOutstanding commands ride concurrently (submit
// blocks for ROOM, never for commits); that backlog is what lets a batching
// leader (EngineConfig::batch) fill multi-command instances. Whatever is
// queued when the hosting node launches travels in shared kClientCmdBatch
// frames (one per kMaxClientBatchCommands chunk); nothing waits for
// company, and a lone command goes as a kClientRequest. submit_run() marks
// a run that keeps its frames to itself, never sharing one with plain
// submits or another run — the cross-shard transaction driver uses it for
// its per-group fan-out, the closed loop for its rounds. Retries always
// degrade to per-command kClientRequest frames, so a lost batch frame
// costs nothing but the amortization.
//
// Allocation discipline: the pipeline is bounded, so ALL per-command state
// lives in fixed arrays — a ring for the not-yet-sent backlog, a slot array
// for the awaiting-reply window — and Completion objects are recycled
// through a spare list once both the engine and the application have
// dropped them. After warmup a steady-state submit/complete cycle performs
// no heap allocation (pinned by the alloc-guard suite), which is what lets
// the open-loop workload engine (harness/workload.hpp) drive tens of
// thousands of logical sessions without the allocator in the loop.
#pragma once

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "consensus/engine.hpp"

namespace ci::client {

using consensus::Command;
using consensus::Context;
using consensus::Engine;
using consensus::Message;
using consensus::MsgType;
using consensus::NodeId;
using consensus::Op;

struct AsyncClientConfig {
  consensus::EngineConfig base;
  NodeId initial_target = 0;
  Nanos request_timeout = 10 * kMillisecond;

  // Simulator bridge: when set, blocking waits advance virtual time by
  // calling this (expected to run the simulation for a slice) instead of
  // sleeping on the condition variable.
  std::function<void()> pump;
};

class AsyncClientEngine;

// Completion token for one submitted command. Default-constructed handles
// are invalid; valid ones stay usable until the engine is destroyed (the
// engine, not the handle, owns the protocol state — dropping a handle
// simply discards the result). Handles may be polled or waited from any
// thread except the engine's hosting node thread.
class SubmitHandle {
 public:
  SubmitHandle() = default;

  bool valid() const { return state_ != nullptr; }
  // Non-blocking: has the command committed (reply received)?
  bool done() const;
  // Blocks (or pumps, under sim) until the command commits; returns the
  // operation result (previous value for writes, value for reads, the vote
  // for transaction prepares).
  std::uint64_t wait();
  // The replying leader's cache epoch (ClientReply::lease_epoch), 0 when
  // the reply predates leases or the command has not completed. Valid only
  // after done()/wait(); the Session near-cache keys entries on it.
  std::uint32_t lease_epoch() const;
  // When the reply was processed, in the hosting node's clock (virtual
  // nanoseconds under sim, wall nanoseconds under rt); 0 until done(). The
  // workload engine measures honest open-loop latency against this instead
  // of its own polling time, so reaping late never flatters the tail.
  Nanos completed_at() const;

 private:
  friend class AsyncClientEngine;

  struct Completion {
    bool done = false;
    std::uint64_t result = 0;
    std::uint32_t lease_epoch = 0;
    Nanos completed_at = 0;
  };

  SubmitHandle(AsyncClientEngine* engine, std::shared_ptr<Completion> state)
      : engine_(engine), state_(std::move(state)) {}

  AsyncClientEngine* engine_ = nullptr;
  std::shared_ptr<Completion> state_;
};

class AsyncClientEngine final : public Engine {
 public:
  // Pipeline depth bound: one batching leader can absorb at most this many
  // commands into a single instance anyway.
  static constexpr std::int32_t kMaxOutstanding = consensus::kMaxCommandsPerBatch;

  explicit AsyncClientEngine(const AsyncClientConfig& cfg)
      : cfg_(cfg), target_(cfg.initial_target) {
    spare_.reserve(2 * static_cast<std::size_t>(kMaxOutstanding));
  }

  // ---- Application side (any thread but the hosting node's) ----

  // Queue one command; returns its completion token. Blocks only when the
  // pipeline is full. The key/value form covers plain operations; the
  // Command form carries transaction ops (op + txn stamped by the caller;
  // client and seq are stamped here).
  SubmitHandle submit(Op op, std::uint64_t key, std::uint64_t value) {
    Command cmd;
    cmd.op = op;
    cmd.key = key;
    cmd.value = value;
    return submit(cmd);
  }

  SubmitHandle submit(const Command& proto) {
    std::unique_lock<std::mutex> lock(mu_);
    wait_locked(lock, [this] { return in_flight_count() < kMaxOutstanding; });
    const bool wake = queued_count_ == 0;
    SubmitHandle handle = enqueue_locked(proto, /*run=*/0);
    lock.unlock();
    if (wake && wake_) wake_();
    return handle;
  }

  // Queue a run of commands that share kClientCmdBatch frames only with
  // each other on their first send (chunked to kMaxClientBatchCommands per
  // frame). The run must fit the pipeline whole.
  std::vector<SubmitHandle> submit_run(const std::vector<Command>& protos) {
    CI_CHECK(static_cast<std::int32_t>(protos.size()) <= kMaxOutstanding);
    std::vector<SubmitHandle> handles;
    handles.reserve(protos.size());
    std::unique_lock<std::mutex> lock(mu_);
    wait_locked(lock, [this, &protos] {
      return in_flight_count() + static_cast<std::int32_t>(protos.size()) <=
             kMaxOutstanding;
    });
    const bool wake = queued_count_ == 0 && !protos.empty();
    const std::uint32_t run = ++next_run_;
    for (const Command& proto : protos) handles.push_back(enqueue_locked(proto, run));
    lock.unlock();
    if (wake && wake_) wake_();
    return handles;
  }

  // Blocking one-shot: submit and wait.
  std::uint64_t execute(Op op, std::uint64_t key, std::uint64_t value) {
    return submit(op, key, value).wait();
  }

  // Blocks until every command submitted so far committed.
  void flush() {
    std::unique_lock<std::mutex> lock(mu_);
    wait_locked(lock, [this] { return in_flight_count() == 0; });
  }

  // Room left in the pipeline right now (how many submits would not block).
  std::int32_t available() const {
    std::lock_guard<std::mutex> lock(mu_);
    return kMaxOutstanding - in_flight_count();
  }

  // The newest nonzero ClientReply::lease_epoch seen from this group's
  // leader — the group's current cache epoch as far as this engine knows.
  // 0 until a lease-epoch-stamped reply arrives.
  std::uint32_t latest_epoch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return latest_epoch_;
  }

  // An already-completed handle carrying `result` — what a near-cache hit
  // hands back so cached and replicated reads share one call shape.
  SubmitHandle completed_handle(std::uint64_t result, std::uint32_t epoch) {
    auto state = std::make_shared<SubmitHandle::Completion>();
    state->done = true;
    state->result = result;
    state->lease_epoch = epoch;
    return SubmitHandle(this, std::move(state));
  }

  // ---- Engine side (hosting node thread) ----

  void on_message(Context& ctx, const Message& m) override {
    if (m.type == MsgType::kClientReply) on_reply(ctx, m);
  }

  // Completes the command `m` answers and follows its leader hint. Returns
  // false for a stale reply: no command with that seq awaits one.
  bool on_reply(Context& ctx, const Message& m) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::int32_t slot = find_sent_locked(m.u.client_reply.seq);
    if (slot < 0) return false;
    if (m.u.client_reply.leader_hint != consensus::kNoNode) {
      target_ = m.u.client_reply.leader_hint;
    }
    Sent& f = sent_[static_cast<std::size_t>(slot)];
    f.completion->done = true;
    f.completion->result = m.u.client_reply.result;
    f.completion->lease_epoch = m.u.client_reply.lease_epoch;
    f.completion->completed_at = ctx.now();
    if (m.u.client_reply.lease_epoch != 0) {
      latest_epoch_ = m.u.client_reply.lease_epoch;
    }
    release_sent_locked(slot);
    done_cv_.notify_all();
    return true;
  }

  // Sends every queued command now instead of on the next tick; a caller on
  // the hosting node's thread (the closed loop) uses it to put a round on
  // the wire inside the event that produced it.
  void launch(Context& ctx) {
    std::lock_guard<std::mutex> lock(mu_);
    launch_locked(ctx, ctx.now());
  }

  void tick(Context& ctx) override {
    std::lock_guard<std::mutex> lock(mu_);
    const Nanos now = ctx.now();
    launch_locked(ctx, now);
    // Retry stragglers individually, in submission (seq) order; rotate the
    // target at most once per tick so several outstanding commands cannot
    // spin it around the ring.
    std::array<std::int32_t, kMaxOutstanding> overdue;
    std::int32_t n = 0;
    // Stop once every used slot has been seen: slots fill lowest-first, so
    // a small window is found in its first few slots.
    for (std::int32_t i = 0, seen = 0; i < kMaxOutstanding && seen < sent_count_; ++i) {
      Sent& f = sent_[static_cast<std::size_t>(i)];
      if (!f.used) continue;
      ++seen;
      if (now - f.last_sent < cfg_.request_timeout) continue;
      // Insertion sort by seq: the window is 64 slots and usually nearly
      // ordered, so this stays cheap and allocation-free.
      std::int32_t j = n++;
      while (j > 0 &&
             sent_[static_cast<std::size_t>(overdue[static_cast<std::size_t>(j - 1)])]
                     .cmd.seq > f.cmd.seq) {
        overdue[static_cast<std::size_t>(j)] = overdue[static_cast<std::size_t>(j - 1)];
        --j;
      }
      overdue[static_cast<std::size_t>(j)] = i;
    }
    if (n > 0) {
      target_ = (target_ + 1) % cfg_.base.num_replicas;
      ++retries_;
    }
    for (std::int32_t k = 0; k < n; ++k) {
      Sent& f = sent_[static_cast<std::size_t>(overdue[static_cast<std::size_t>(k)])];
      f.last_sent = now;
      send_locked(ctx, f.cmd, /*suspect=*/true);
    }
  }

  // Queued commands are due now (tick launches them); otherwise the oldest
  // send's retry.
  Nanos next_deadline(Nanos now) const override {
    std::lock_guard<std::mutex> lock(mu_);
    if (queued_count_ > 0) return now;
    Nanos d = kNoDeadline;
    for (std::int32_t i = 0, seen = 0; i < kMaxOutstanding && seen < sent_count_; ++i) {
      const Sent& f = sent_[static_cast<std::size_t>(i)];
      if (!f.used) continue;
      ++seen;
      d = std::min(d, f.last_sent + cfg_.request_timeout);
    }
    return d;
  }

  // Real-thread bridge, set by the host before its node starts: called
  // after a submit finds the queue empty, so the hosting node, which may be
  // parked until its next timer, launches the command now. A burst of
  // submits costs one call.
  void set_wake_hook(std::function<void()> wake) { wake_ = std::move(wake); }

  // Target rotations so far: one per tick that found a command overdue.
  std::uint64_t retries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return retries_;
  }

  NodeId believed_leader() const override { return target_; }

 private:
  friend class SubmitHandle;

  struct Pending {
    Command cmd;
    std::shared_ptr<SubmitHandle::Completion> completion;
    std::uint32_t run = 0;  // nonzero: batch with same-run neighbors
  };

  struct Sent {
    bool used = false;
    Command cmd;
    std::shared_ptr<SubmitHandle::Completion> completion;
    Nanos last_sent = 0;
  };

  std::int32_t in_flight_count() const { return queued_count_ + sent_count_; }

  // ---- queued ring (capacity kMaxOutstanding; in_flight_count() <=
  // kMaxOutstanding is the submit-side invariant, so it never overflows) ----

  Pending& queued_front() { return queued_[static_cast<std::size_t>(queued_head_)]; }

  Pending pop_queued() {
    Pending p = std::move(queued_[static_cast<std::size_t>(queued_head_)]);
    queued_head_ = (queued_head_ + 1) % kMaxOutstanding;
    --queued_count_;
    return p;
  }

  void push_queued(Pending p) {
    CI_CHECK(queued_count_ < kMaxOutstanding);
    const std::int32_t tail = (queued_head_ + queued_count_) % kMaxOutstanding;
    queued_[static_cast<std::size_t>(tail)] = std::move(p);
    ++queued_count_;
  }

  // ---- sent slots ----

  std::int32_t find_sent_locked(std::uint32_t seq) const {
    for (std::int32_t i = 0; i < kMaxOutstanding; ++i) {
      const Sent& f = sent_[static_cast<std::size_t>(i)];
      if (f.used && f.cmd.seq == seq) return i;
    }
    return -1;
  }

  void store_sent_locked(const Command& cmd,
                         std::shared_ptr<SubmitHandle::Completion> completion,
                         Nanos now) {
    for (std::int32_t i = 0; i < kMaxOutstanding; ++i) {
      Sent& f = sent_[static_cast<std::size_t>(i)];
      if (f.used) continue;
      f.used = true;
      f.cmd = cmd;
      f.completion = std::move(completion);
      f.last_sent = now;
      ++sent_count_;
      return;
    }
    CI_CHECK_MSG(false, "sent window overflow (pipeline invariant broken)");
  }

  void release_sent_locked(std::int32_t slot) {
    Sent& f = sent_[static_cast<std::size_t>(slot)];
    f.used = false;
    --sent_count_;
    // Recycle the completion once the application drops its handle: the
    // spare list is scanned at enqueue time for an entry nobody else
    // references. Entries still held by the app stay parked here (they
    // become reusable when the handle is dropped), so the list's size is
    // bounded by the number of handles alive at once.
    spare_.push_back(std::move(f.completion));
  }

  std::shared_ptr<SubmitHandle::Completion> acquire_completion_locked() {
    for (std::size_t i = spare_.size(); i > 0; --i) {
      auto& c = spare_[i - 1];
      if (c.use_count() != 1) continue;  // an app handle still reads it
      auto out = std::move(c);
      spare_[i - 1] = std::move(spare_.back());
      spare_.pop_back();
      *out = SubmitHandle::Completion{};
      return out;
    }
    return std::make_shared<SubmitHandle::Completion>();
  }

  SubmitHandle enqueue_locked(const Command& proto, std::uint32_t run) {
    Pending p;
    p.cmd = proto;
    p.cmd.client = cfg_.base.self;
    p.cmd.seq = ++next_seq_;
    p.completion = acquire_completion_locked();
    p.run = run;
    SubmitHandle handle(this, p.completion);
    push_queued(std::move(p));
    return handle;
  }

  // Ships the whole queue now, in FIFO order: consecutive commands with
  // the same run id (run 0 = plain submits) share kClientCmdBatch frames,
  // up to kMaxClientBatchCommands each. Nothing waits for company: a chunk
  // of one goes as a kClientRequest, so the wire never pays the batch
  // header for a single command.
  void launch_locked(Context& ctx, Nanos now) {
    while (queued_count_ > 0) {
      const std::uint32_t run = queued_front().run;
      Command cmds[consensus::kMaxClientBatchCommands];
      std::int32_t count = 0;
      while (queued_count_ > 0 && queued_front().run == run &&
             count < consensus::kMaxClientBatchCommands) {
        Pending p = pop_queued();
        cmds[count++] = p.cmd;
        store_sent_locked(p.cmd, std::move(p.completion), now);
      }
      if (count == 1) {
        send_locked(ctx, cmds[0], /*suspect=*/false);
        continue;
      }
      Message m(MsgType::kClientCmdBatch, consensus::ProtoId::kClient, cfg_.base.self, target_);
      m.u.client_cmd_batch.count = count;
      m.u.client_cmd_batch.run.assign(cmds, count);
      ctx.send(target_, m);
    }
  }

  template <typename Pred>
  void wait_locked(std::unique_lock<std::mutex>& lock, Pred pred) {
    if (cfg_.pump) {
      while (!pred()) {
        lock.unlock();
        cfg_.pump();  // advances the simulation; may re-enter on_message/tick
        lock.lock();
      }
    } else {
      done_cv_.wait(lock, pred);
    }
  }

  void send_locked(Context& ctx, const Command& cmd, bool suspect) {
    Message m(MsgType::kClientRequest, consensus::ProtoId::kClient, cfg_.base.self, target_);
    if (suspect) m.flags = consensus::kFlagLeaderSuspect;
    m.u.client_request.cmd = cmd;
    ctx.send(target_, m);
  }

  AsyncClientConfig cfg_;
  NodeId target_;

  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  std::uint32_t next_seq_ = 0;
  std::uint32_t next_run_ = 0;
  // Not yet sent (tick launches them): fixed ring, FIFO.
  std::array<Pending, kMaxOutstanding> queued_;
  std::int32_t queued_head_ = 0;
  std::int32_t queued_count_ = 0;
  // Awaiting a reply: fixed slot array (order-free; retries re-sort by seq).
  std::array<Sent, kMaxOutstanding> sent_;
  std::int32_t sent_count_ = 0;
  // Recycled Completion objects (see release_sent_locked).
  std::vector<std::shared_ptr<SubmitHandle::Completion>> spare_;
  std::uint32_t latest_epoch_ = 0;  // newest nonzero reply epoch
  std::uint64_t retries_ = 0;
  std::function<void()> wake_;  // see set_wake_hook; set before the node starts
};

inline bool SubmitHandle::done() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(engine_->mu_);
  return state_->done;
}

inline std::uint64_t SubmitHandle::wait() {
  CI_CHECK_MSG(state_ != nullptr, "waiting on an invalid SubmitHandle");
  std::unique_lock<std::mutex> lock(engine_->mu_);
  engine_->wait_locked(lock, [this] { return state_->done; });
  return state_->result;
}

inline std::uint32_t SubmitHandle::lease_epoch() const {
  if (state_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(engine_->mu_);
  return state_->done ? state_->lease_epoch : 0;
}

inline Nanos SubmitHandle::completed_at() const {
  if (state_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(engine_->mu_);
  return state_->done ? state_->completed_at : 0;
}

}  // namespace ci::client
