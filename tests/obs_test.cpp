// Tests for the cf::obs telemetry subsystem: the counter, stat and
// histogram instruments, the span tracer with its per-thread
// rings and deterministic chrome://tracing export, the JSONL sink, and
// the end-to-end guarantee that the Trainer's per-step JSONL records
// telescope to Trainer::breakdown().
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/topology.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "obs/telemetry.hpp"
#include "runtime/thread_pool.hpp"

namespace cf::obs {
namespace {

// --- Counter and Stat ------------------------------------------------

TEST(Metrics, CounterAggregatesUnderContention) {
  Counter counter;
  runtime::ThreadPool pool(4);
  constexpr std::size_t kIters = 100000;
  pool.parallel_for(kIters,
                    [&](std::size_t begin, std::size_t end, std::size_t) {
                      for (std::size_t i = begin; i < end; ++i) {
                        counter.add(1);
                      }
                    });
  EXPECT_EQ(counter.value(), static_cast<std::int64_t>(kIters));
}

TEST(Metrics, StatAggregatesUnderContention) {
  Stat stat;
  runtime::ThreadPool pool(4);
  constexpr std::size_t kIters = 10000;
  pool.parallel_for(kIters,
                    [&](std::size_t begin, std::size_t end, std::size_t) {
                      for (std::size_t i = begin; i < end; ++i) {
                        stat.add(2.0);
                      }
                    });
  const runtime::TimeStats snap = stat.snapshot();
  EXPECT_EQ(snap.count(), static_cast<std::int64_t>(kIters));
  EXPECT_DOUBLE_EQ(snap.total(), 2.0 * kIters);
  EXPECT_DOUBLE_EQ(snap.min(), 2.0);
  EXPECT_DOUBLE_EQ(snap.max(), 2.0);
}

// --- Histogram -------------------------------------------------------

TEST(Metrics, HistogramPercentilesBoundTheSample) {
  Histogram hist;
  // 1000 observations spread linearly over [1 ms, 100 ms]: p50 ≈ 50 ms,
  // p99 ≈ 99 ms. The log-bucket estimate reports a bucket upper bound,
  // so it is >= the true quantile and within one growth factor of it.
  for (int i = 1; i <= 1000; ++i) {
    hist.add(1e-3 + (100e-3 - 1e-3) * (i - 1) / 999.0);
  }
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_NEAR(snap.mean(), 50.5e-3, 1e-4);
  const double p50 = snap.percentile(0.50);
  const double p99 = snap.percentile(0.99);
  const double p999 = snap.percentile(0.999);
  EXPECT_GE(p50, 50.0e-3);
  EXPECT_LE(p50, 50.0e-3 * Histogram::kGrowth * Histogram::kGrowth);
  EXPECT_GE(p99, 99.0e-3);
  EXPECT_LE(p99, 99.0e-3 * Histogram::kGrowth * Histogram::kGrowth);
  EXPECT_GE(p999, p99);
  EXPECT_LE(snap.percentile(0.0), snap.percentile(1.0));
}

TEST(Metrics, HistogramClampsOutOfRangeAndResets) {
  Histogram hist;
  hist.add(0.0);     // below floor -> first bucket
  hist.add(-1.0);    // negative -> first bucket
  hist.add(1e9);     // beyond last bucket -> last bucket
  HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.buckets.front(), 2u);
  EXPECT_EQ(snap.buckets.back(), 1u);
  // The exact extremes are untouched by bucket clamping.
  EXPECT_DOUBLE_EQ(snap.min, -1.0);
  EXPECT_DOUBLE_EQ(snap.max, 1e9);
  hist.reset();
  snap = hist.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.percentile(0.99), 0.0);
  EXPECT_EQ(snap.min, 0.0);  // empty histogram reports 0.0 anchors
  EXPECT_EQ(snap.max, 0.0);
}

TEST(Metrics, HistogramExportsExactAnchors) {
  Histogram hist;
  hist.add(0.25);
  hist.add(1.0);
  hist.add(0.5);
  // The snapshot carries the exact anchors next to the ~12%-bucket
  // percentiles, so p99 == p999 at small counts is interpretable.
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 1.75);
  EXPECT_DOUBLE_EQ(snap.min, 0.25);
  EXPECT_DOUBLE_EQ(snap.max, 1.0);
}

TEST(Metrics, HistogramAggregatesUnderContention) {
  Histogram hist;
  runtime::ThreadPool pool(4);
  constexpr std::size_t kIters = 100000;
  pool.parallel_for(kIters,
                    [&](std::size_t begin, std::size_t end, std::size_t) {
                      for (std::size_t i = begin; i < end; ++i) {
                        hist.add(1e-3);
                      }
                    });
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kIters));
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
  // Every contended add() observed the same value; the CAS-maintained
  // extremes must agree exactly.
  EXPECT_DOUBLE_EQ(snap.min, 1e-3);
  EXPECT_DOUBLE_EQ(snap.max, 1e-3);
}

TEST(Metrics, ScopedStatTimerRecordsOneObservation) {
  Stat stat;
  { const ScopedStatTimer timer(stat); }
  const runtime::TimeStats snap = stat.snapshot();
  EXPECT_EQ(snap.count(), 1);
  EXPECT_GE(snap.total(), 0.0);
}

// --- Span tracer -----------------------------------------------------

TEST(Trace, GoldenChromeJsonExport) {
  Tracer tracer(/*ring_capacity=*/8);
  tracer.record_at("a", "cat0", /*tid=*/0, /*ts_ns=*/100, /*dur_ns=*/50);
  tracer.record_at("b", "cat1", /*tid=*/1, /*ts_ns=*/75, /*dur_ns=*/25);
  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"b\",\"cat\":\"cat1\",\"ph\":\"X\",\"pid\":0,\"tid\":1,"
      "\"ts\":0.075,\"dur\":0.025},\n"
      "{\"name\":\"a\",\"cat\":\"cat0\",\"ph\":\"X\",\"pid\":0,\"tid\":0,"
      "\"ts\":0.100,\"dur\":0.050}\n"
      "]}\n";
  EXPECT_EQ(tracer.to_chrome_json(), expected);
}

TEST(Trace, SnapshotMergesAndSortsAcrossThreads) {
  Tracer tracer(/*ring_capacity=*/16);
  // Interleaved timestamps across three logical threads, registered
  // out of order; ties broken by tid.
  tracer.record_at("t2_late", "x", 2, 300, 1);
  tracer.record_at("t0_early", "x", 0, 100, 1);
  tracer.record_at("t1_tie", "x", 1, 200, 1);
  tracer.record_at("t0_tie", "x", 0, 200, 1);
  const std::vector<TraceEvent> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_STREQ(events[0].name, "t0_early");
  EXPECT_STREQ(events[1].name, "t0_tie");   // ts tie: tid 0 before 1
  EXPECT_STREQ(events[2].name, "t1_tie");
  EXPECT_STREQ(events[3].name, "t2_late");
}

TEST(Trace, RingKeepsNewestAndCountsDrops) {
  Tracer tracer(/*ring_capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    const std::string name = "e" + std::to_string(i);
    tracer.record_at(name.c_str(), "x", 0,
                     static_cast<std::uint64_t>(i), 1);
  }
  const std::vector<TraceEvent> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_STREQ(events.front().name, "e2");  // e0, e1 overwritten
  EXPECT_STREQ(events.back().name, "e5");
  EXPECT_EQ(tracer.dropped(), 2u);
  tracer.clear();
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Trace, SpanScopesNestAndSurviveThreadExit) {
  Tracer& tracer = Tracer::global();
  tracer.clear();
  {
    const SpanScope outer("outer", "test");
    const SpanScope inner("inner", "test");
  }
  std::thread worker([] { const SpanScope span("worker", "test"); });
  worker.join();

  const std::vector<TraceEvent> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 3u);
  std::map<std::string, TraceEvent> by_name;
  for (const TraceEvent& event : events) by_name[event.name] = event;
  ASSERT_TRUE(by_name.count("outer"));
  ASSERT_TRUE(by_name.count("inner"));
  ASSERT_TRUE(by_name.count("worker"));  // recorded on an exited thread
  const TraceEvent& outer = by_name["outer"];
  const TraceEvent& inner = by_name["inner"];
  // The inner span is contained within the outer one.
  EXPECT_GE(inner.ts_ns, outer.ts_ns);
  EXPECT_LE(inner.ts_ns + inner.dur_ns, outer.ts_ns + outer.dur_ns);
  // Spans on different threads carry different tids.
  EXPECT_NE(by_name["worker"].tid, outer.tid);
  tracer.clear();
}

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.set_enabled(false);
  {
    const SpanScope span("should_not_appear", "test");
  }
  tracer.set_enabled(true);
  for (const TraceEvent& event : tracer.snapshot()) {
    EXPECT_STRNE(event.name, "should_not_appear");
  }
  tracer.clear();
}

// --- JSONL sink ------------------------------------------------------

TEST(Jsonl, ObjectFormatsDeterministically) {
  JsonObject record;
  record.field("a", 1)
      .field("b", 2.5)
      .field("c", "x\"y\n")
      .field("d", true)
      .field("e", std::int64_t{-7});
  EXPECT_EQ(record.str(),
            "{\"a\":1,\"b\":2.5,\"c\":\"x\\\"y\\n\",\"d\":true,\"e\":-7}");
}

TEST(Jsonl, SinkWritesOneRecordPerLine) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "cf_obs_jsonl_test.jsonl")
          .string();
  {
    JsonlSink sink(path);
    ASSERT_TRUE(sink.ok());
    JsonObject a;
    a.field("step", 0);
    sink.write(a);
    JsonObject b;
    b.field("step", 1);
    sink.write(b);
  }
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  EXPECT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"step\":0}");
  EXPECT_EQ(lines[1], "{\"step\":1}");
  std::filesystem::remove(path);
}

// --- Trainer step log vs breakdown -----------------------------------

std::vector<data::Sample> make_samples(std::size_t count, std::int64_t dhw,
                                       std::uint64_t seed) {
  std::vector<data::Sample> samples;
  samples.reserve(count);
  runtime::Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const float level = rng.uniform();
    data::Sample s;
    s.volume = tensor::Tensor(tensor::Shape{1, dhw, dhw, dhw});
    for (float& v : s.volume.values()) v = level + 0.05f * rng.normal();
    s.target = {level, 1.0f - level, 0.5f * level + 0.25f};
    samples.push_back(std::move(s));
  }
  return samples;
}

/// Extracts `"key":<number>` from a flat JSONL record; nan if absent.
double field_of(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return std::strtod(line.c_str() + pos + needle.size(), nullptr);
}

bool has_field(const std::string& line, const std::string& key) {
  return line.find("\"" + key + "\":") != std::string::npos;
}

TEST(StepLog, Rank0RecordsTelescopeToBreakdown) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "cf_obs_steplog_test.jsonl")
          .string();
  data::InMemorySource train(make_samples(16, 16, 21));
  data::InMemorySource val(make_samples(4, 16, 22));
  core::TrainerConfig config;
  config.nranks = 2;
  config.epochs = 2;
  config.step_log_path = path;
  core::Trainer trainer(core::cosmoflow_scaled(16), train, val, config);
  trainer.run();
  const core::CategoryBreakdown breakdown = trainer.breakdown();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::map<std::string, double> summed;
  std::int64_t rank0_steps = 0;
  std::int64_t epoch_records = 0;
  while (std::getline(in, line)) {
    if (field_of(line, "rank") != 0.0) continue;
    if (line.find("\"phase\":\"step\"") != std::string::npos) {
      ++rank0_steps;
      EXPECT_TRUE(has_field(line, "loss"));
      EXPECT_TRUE(has_field(line, "lr"));
      EXPECT_TRUE(has_field(line, "sec_step"));
    } else {
      ASSERT_NE(line.find("\"phase\":\"epoch\""), std::string::npos);
      ++epoch_records;
      EXPECT_TRUE(has_field(line, "train_loss"));
      EXPECT_TRUE(has_field(line, "val_loss"));
    }
    for (const auto& [category, unused] : breakdown.seconds) {
      (void)unused;
      const double delta = field_of(line, "sec_" + category);
      ASSERT_FALSE(std::isnan(delta)) << category << " missing: " << line;
      summed[category] += delta;
    }
  }
  // 2 epochs x (16 samples / 2 ranks) steps, plus one epoch record per
  // epoch, on rank 0.
  EXPECT_EQ(rank0_steps, 2 * trainer.steps_per_epoch_per_rank());
  EXPECT_EQ(epoch_records, 2);

  // Acceptance: summed per-category deltas match breakdown within 1%.
  for (const auto& [category, seconds] : breakdown.seconds) {
    EXPECT_NEAR(summed[category], seconds,
                0.01 * seconds + 1e-6)
        << "category " << category;
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace cf::obs
