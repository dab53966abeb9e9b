// Unit tests of the benchmark's own helpers: order statistics (checked
// against values Python's statistics module gives for the same data), the
// correctness gate's write log, and the span recorder. Exits non-zero on the
// first failure; run by wallbench/test_wallbench.py.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int g_failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
    std::fprintf(stderr, "FAIL %s: got %.12g want %.12g\n", what, got, want);
    ++g_failures;
  }
}

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL %s\n", what);
    ++g_failures;
  }
}

void test_percentile() {
  using wallbench::percentile;
  std::vector<double> v = {5, 1, 4, 2, 3};
  expect_near(percentile(v, 0.5), 3, "p50 of 1..5");
  expect_near(percentile(v, 0.99), 5, "p99 of 1..5");
  expect_near(percentile(v, 0.2), 1, "p20 of 1..5 (nearest rank)");
  expect_near(percentile(v, 0.21), 2, "p21 of 1..5 (nearest rank)");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect_near(percentile(hundred, 0.99), 99, "p99 of 1..100");
  expect_near(percentile(hundred, 0.50), 50, "p50 of 1..100");
  std::vector<double> empty;
  expect_near(percentile(empty, 0.5), 0, "percentile of nothing");
  std::vector<long long> ints = {30, 10, 20};
  expect_near(percentile(ints, 1.0), 30, "p100 of integers");
}

void test_median() {
  using wallbench::median;
  expect_near(median({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5, "median even");
  expect_near(median({5, 1, 4, 2, 3}), 3, "median odd");
  expect_near(median({}), 0, "median of nothing");
}

void test_quartiles() {
  using wallbench::quartiles;
  // statistics.quantiles(data, n=4) for each data set.
  struct Case {
    std::vector<double> data;
    double q1, q2, q3;
  } cases[] = {
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
      {{3.5, 1.25}, 0.6875, 2.375, 4.0625},
      {{5, 1, 4, 2, 3}, 1.5, 3.0, 4.5},
      {{10, 20, 30, 40}, 12.5, 25.0, 37.5},
      {{7, 7, 7}, 7, 7, 7},
  };
  for (const Case& c : cases) {
    const auto q = quartiles(c.data);
    expect_near(q[0], c.q1, "q1");
    expect_near(q[1], c.q2, "q2");
    expect_near(q[2], c.q3, "q3");
  }
  expect_near(wallbench::quartile_spread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (8.25 - 2.75) / 5.5,
              "quartile spread");
  expect_near(wallbench::quartile_spread({0, 0, 0}), 0, "spread of a zero median");
}

void test_write_log() {
  wallbench::WriteLog log;
  const std::uint64_t a = log.next_value(7);
  const std::uint64_t b = log.next_value(9);
  expect(log.plausible(7, 0), "0 is always plausible");
  expect(log.plausible(7, a), "a write's own value");
  expect(!log.plausible(7, b), "a value written to another key");
  expect(!log.plausible(9, b + 1), "a value never written");
}

void test_tracer() {
  using wallbench::SpanName;
  wallbench::Tracer off(false);
  off.record(SpanName::kWlOp, SpanName::kNone, 1, 0, 10);
  expect(off.size() == 0, "a disabled tracer records nothing");
  wallbench::Tracer on(true, 2);
  on.record(SpanName::kWlOp, SpanName::kNone, 1, 0, 10);
  on.record(SpanName::kClientRtt, SpanName::kWlOp, 1, 4, 10);
  on.record(SpanName::kClientRtt, SpanName::kWlOp, 2, 0, 1);
  expect(on.size() == 2 && on.dropped() == 1, "capacity bounds the span buffer");
  const std::vector<double> d = on.durations(SpanName::kClientRtt);
  expect(d.size() == 1 && d[0] == 6, "durations by span name");
}

}  // namespace

int main() {
  test_percentile();
  test_median();
  test_quartiles();
  test_write_log();
  test_tracer();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("wallbench_unit: ok\n");
  return 0;
}
