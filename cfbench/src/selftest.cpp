// Self-tests of the harness's own arithmetic: nearest-rank percentiles,
// the rate-ladder search, and span self time. Every workload run starts
// with them, and a failure fails the run.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace cfbench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

void test_nearest_rank() {
  // The textbook example: ranks ceil(q/100 * 5).
  const std::vector<double> v = {35, 20, 15, 50, 40};
  expect(nearest_rank(v, 5) == 15, "p5 of {15,20,35,40,50} is 15");
  expect(nearest_rank(v, 30) == 20, "p30 is 20");
  expect(nearest_rank(v, 40) == 20, "p40 is 20");
  expect(nearest_rank(v, 50) == 35, "p50 is 35");
  expect(nearest_rank(v, 100) == 50, "p100 is 50");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(nearest_rank(hundred, 50) == 50, "p50 of 1..100 is 50");
  expect(nearest_rank(hundred, 90) == 90, "p90 of 1..100 is 90");
  expect(nearest_rank(hundred, 99) == 99, "p99 of 1..100 is 99");
  expect(nearest_rank({7.5}, 99) == 7.5, "any percentile of one sample");
  expect(nearest_rank({}, 50) == 0.0, "no samples give 0");
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(i);
  expect(median(ten) == 5, "the median of 1..10 is rank 5");
}

void test_ladder() {
  // Synthetic service: p99 = 1 ms / (1 - rate / capacity); beyond the
  // capacity every rung sheds.
  const auto service = [](double capacity) {
    return [capacity](double rate) {
      RungResult r;
      r.rate = rate;
      r.offered = 0.99 * rate;
      if (rate >= capacity) {
        r.p99_seconds = 1.0;
        r.shed = 100;
      } else {
        r.p99_seconds = 1e-3 / (1.0 - rate / capacity);
      }
      return r;
    };
  };
  const Ladder ladder{2000.0, 16, 0, 80};
  const Slo slo;
  expect(std::fabs(ladder.rate(32) - 8000.0) < 1e-9, "rung 32 is 8000 req/s");
  // Capacity 12000: p99 <= 10 ms up to 10800 req/s, i.e. rung 38
  // (2000 * 2^(38/16) = 10375); rung 39 (10813) misses.
  LadderSearch up = search_ladder(ladder, 32, slo, service(12000.0));
  expect(up.best_rung == 38, "upward search stops below the knee (rung 38)");
  expect(up.probes.size() == 9, "upward search probes 32..38, then 39 twice");
  expect(std::fabs(up.best_rate - ladder.rate(38)) < 1e-9, "best rate is rung 38's");
  expect(std::fabs(up.best_offered - 0.99 * ladder.rate(38)) < 1e-9,
         "best offered rate is that of rung 38's probe");
  // Capacity 5000: 8000 misses, step down to rung 18 (4500 >= 4362).
  LadderSearch down = search_ladder(ladder, 32, slo, service(5000.0));
  expect(down.best_rung == 18, "downward search finds rung 18");
  expect(down.probes.size() == 29, "each missing rung 32..19 twice, then 18");
  // Capacity 1000: nothing meets the objective.
  LadderSearch none = search_ladder(ladder, 32, slo, service(1000.0));
  expect(none.best_rung == -1 && none.best_rate == 0.0, "no rung meets the SLO");
  // One transient miss at a rung is forgiven; the search goes on.
  int calls_at_34 = 0;
  LadderSearch flaky = search_ladder(ladder, 32, slo, [&](double rate) {
    RungResult r = service(12000.0)(rate);
    if (std::fabs(rate - ladder.rate(34)) < 1e-6 && calls_at_34++ == 0) {
      r.shed = 1;
    }
    return r;
  });
  expect(flaky.best_rung == 38 && flaky.probes.size() == 10,
         "a rung that misses once, then meets, still meets");
  // A growing backlog fails a rung even with a good p99.
  RungResult backlog;
  backlog.p99_seconds = 1e-3;
  backlog.backlog_growing = true;
  expect(!slo.met(backlog), "a growing backlog misses the SLO");
}

void test_self_time() {
  // step [0,100] with children [10,30] and [30,70]; [40,50] nests in the
  // second child. Self times 40, 20, 30, 10 telescope back to 100.
  SpanLane lane;
  const std::uint32_t step = lane.begin("step");
  lane.add("a", 10, 30);
  const std::uint32_t b = lane.begin("b");
  lane.add("c", 40, 50);
  lane.end(b);
  lane.end(step);
  std::vector<Span> spans = lane.spans();
  spans[0].start_ns = 0;
  spans[0].end_ns = 100;
  spans[2].start_ns = 30;
  spans[2].end_ns = 70;
  const std::vector<double> self = self_seconds(spans);
  expect(std::fabs(self[0] - 40e-9) < 1e-18, "step self time is 40 ns");
  expect(std::fabs(self[1] - 20e-9) < 1e-18, "leaf self time is its span");
  expect(std::fabs(self[2] - 30e-9) < 1e-18, "child self time excludes grandchild");
  double total = 0.0;
  for (const double s : self) total += s;
  expect(std::fabs(total - spans[0].seconds()) < 1e-18,
         "self times of a step's subtree sum to the step span");
  // The same on the clock: a step's children plus its self time equal it.
  SpanLane timed;
  const std::uint32_t outer = timed.begin("outer");
  for (int i = 0; i < 3; ++i) {
    const std::uint32_t child = timed.begin("child");
    volatile double sink = 0.0;
    for (int k = 0; k < 1000; ++k) sink = sink + k;
    timed.end(child);
  }
  timed.end(outer);
  const std::vector<double> timed_self = self_seconds(timed.spans());
  double children = 0.0;
  for (std::size_t i = 1; i < timed.spans().size(); ++i) {
    children += timed.spans()[i].seconds();
  }
  expect(std::fabs(timed_self[0] + children - timed.spans()[0].seconds()) < 1e-12,
         "children + self time == step span");
}

}  // namespace

int run_selftests() {
  failures = 0;
  test_nearest_rank();
  test_ladder();
  test_self_time();
  return failures;
}

}  // namespace cfbench
