// Compile-and-run check of the COSMOFLOW_TELEMETRY=OFF contract: this
// translation unit forces COSMOFLOW_TELEMETRY_ENABLED=0 before
// including obs/telemetry.hpp, so CF_TRACE_SCOPE must expand to a
// plain no-op statement — it must parse in every position a span is
// legal in and record nothing.
#include <gtest/gtest.h>

#ifdef COSMOFLOW_TELEMETRY_ENABLED
#undef COSMOFLOW_TELEMETRY_ENABLED
#endif
#define COSMOFLOW_TELEMETRY_ENABLED 0
#include "obs/telemetry.hpp"

static_assert(COSMOFLOW_TELEMETRY_ENABLED == 0,
              "macro override must hold for this TU");

namespace cf::obs {
namespace {

TEST(ObsDisabled, SpanMacroCompilesToNothingAndRecordsNothing) {
  Tracer& tracer = Tracer::global();
  tracer.clear();
  {
    CF_TRACE_SCOPE("off/one_arg");
    CF_TRACE_SCOPE("off/two_args", "test");
    if (true) CF_TRACE_SCOPE("off/single_statement_if");
    for (int i = 0; i < 2; ++i) CF_TRACE_SCOPE("off/loop_body");
  }
  for (const TraceEvent& event : tracer.snapshot()) {
    EXPECT_TRUE(std::string(event.name).rfind("off/", 0) != 0)
        << "span recorded despite COSMOFLOW_TELEMETRY_ENABLED=0";
  }
}

TEST(ObsDisabled, MetricsStayAvailableWhenSpansAreOff) {
  // Counters and Stats are runtime objects, not macros: they keep
  // working in OFF builds (they feed breakdown()/EpochStats).
  Counter counter;
  Stat stat;
  counter.add(2);
  stat.add(1.5);
  EXPECT_EQ(counter.value(), 2);
  EXPECT_EQ(stat.snapshot().count(), 1u);
}

}  // namespace
}  // namespace cf::obs
