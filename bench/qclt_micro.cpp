// A3 — QC-libtask microbenchmarks (paper §6): the costs the framework was
// designed to minimize — queue operations, message round trips, and the
// user-level context switch that makes blocking reads cheap.
#include <benchmark/benchmark.h>

#include <memory>
#include <new>
#include <thread>

#include "common/cacheline.hpp"
#include "harness/flags.hpp"
#include "qclt/connection.hpp"
#include "qclt/scheduler.hpp"
#include "qclt/spsc_queue.hpp"

namespace ci::qclt {
namespace {

struct QueueHolder {
  explicit QueueHolder(std::uint32_t slots)
      : mem(static_cast<unsigned char*>(
            ::operator new(SpscQueue::bytes_required(slots), std::align_val_t{kSlotSize}))),
        q(SpscQueue::init(mem, slots)) {}
  ~QueueHolder() { ::operator delete(mem, std::align_val_t{kSlotSize}); }
  unsigned char* mem;
  SpscQueue* q;
};

void BM_QueueWriteRead_SameThread(benchmark::State& state) {
  QueueHolder h(kDefaultSlots);
  unsigned char buf[kSlotSize] = {1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.q->try_write(buf, sizeof(buf)));
    benchmark::DoNotOptimize(h.q->try_read(buf, sizeof(buf)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueueWriteRead_SameThread);

void BM_QueueTransmissionDelay(benchmark::State& state) {
  // The paper's §3 "transmission delay" proxy: enqueue cost with room.
  QueueHolder h(4096);
  unsigned char buf[kSlotSize] = {1};
  std::uint64_t written = 0;
  for (auto _ : state) {
    if (!h.q->try_write(buf, sizeof(buf))) {
      state.PauseTiming();
      while (h.q->try_read(buf, sizeof(buf))) {
      }
      state.ResumeTiming();
    } else {
      written++;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(written));
}
BENCHMARK(BM_QueueTransmissionDelay);

void BM_CrossThreadPingPong(benchmark::State& state) {
  // One full request/reply through two single-slot queues on two threads —
  // 2*(2*trans + 2*prop) in the paper's §3 terms.
  QueueHolder ab(1);
  QueueHolder ba(1);
  std::atomic<bool> stop{false};
  std::thread echo([&] {
    unsigned char buf[kSlotSize];
    while (!stop.load(std::memory_order_relaxed)) {
      if (ab.q->try_read(buf, sizeof(buf))) {
        while (!ba.q->try_write(buf, sizeof(buf))) {
        }
      }
    }
  });
  unsigned char buf[kSlotSize] = {1};
  for (auto _ : state) {
    while (!ab.q->try_write(buf, sizeof(buf))) {
    }
    while (!ba.q->try_read(buf, sizeof(buf))) {
    }
  }
  stop.store(true);
  echo.join();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CrossThreadPingPong);

void BM_TaskContextSwitch(benchmark::State& state) {
  // Round trip task A -> task B -> task A via yield: two context switches
  // plus scheduler dispatch — the cost QC-libtask pays per delivered
  // message instead of an OS context switch (§6.2).
  Scheduler s;
  std::uint64_t rounds = 0;
  bool done = false;
  s.spawn([&] {
    while (!done) {
      benchmark::DoNotOptimize(rounds);
      s.yield();
    }
  });
  s.spawn([&] {
    for (auto _ : state) {
      rounds++;
      s.yield();
    }
    done = true;
  });
  s.run();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TaskContextSwitch);

void BM_ConnectionMessageRoundTrip(benchmark::State& state) {
  // Framed 64-byte message there and back through blocking reads inside one
  // scheduler — the full QC-libtask delivery stack.
  Scheduler s;
  QueueHolder ab(kDefaultSlots);
  QueueHolder ba(kDefaultSlots);
  Connection a(ab.q, ba.q, &s);
  Connection b(ba.q, ab.q, &s);
  s.spawn([&] {
    unsigned char buf[kSlotSize];
    while (!s.stopping()) {
      const auto n = b.read(buf, sizeof(buf));
      if (n < 0) return;
      if (!b.write(buf, static_cast<std::uint32_t>(n))) return;
    }
  });
  s.spawn([&] {
    unsigned char msg[64] = {9};
    for (auto _ : state) {
      a.write(msg, sizeof(msg));
      unsigned char buf[kSlotSize];
      a.read(buf, sizeof(buf));
    }
    s.request_stop();
  });
  s.run();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConnectionMessageRoundTrip);

void BM_SchedulerSpawnAndRun(benchmark::State& state) {
  for (auto _ : state) {
    Scheduler s;
    for (int i = 0; i < 16; ++i) {
      s.spawn([&s] { s.yield(); });
    }
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_SchedulerSpawnAndRun);

}  // namespace
}  // namespace ci::qclt

// google-benchmark strips its own --benchmark_* flags (and answers --help);
// whatever is left must be a harness flag, and this bench reads none.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  ci::harness::Flags flags;
  ci::harness::parse_flags(argc, argv, {}, &flags);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
