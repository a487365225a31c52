#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>

namespace cfbench {

namespace {

std::chrono::steady_clock::time_point clock_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - clock_epoch())
      .count();
}

void sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_until(clock_epoch() + std::chrono::nanoseconds(t));
}

std::uint32_t SpanLane::begin(const char* name) {
  Span span;
  span.name = name;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = open_.empty() ? 0 : open_.back();
  span.epoch = epoch;
  span.step = step;
  span.rank = rank;
  span.start_ns = now_ns();
  spans_.push_back(span);
  open_.push_back(span.id);
  return span.id;
}

void SpanLane::end(std::uint32_t id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("SpanLane::end: spans must close innermost first");
  }
  spans_[id - 1].end_ns = now_ns();
  open_.pop_back();
}

void SpanLane::add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t request) {
  Span span;
  span.name = name;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = open_.empty() ? 0 : open_.back();
  span.epoch = epoch;
  span.step = step;
  span.rank = rank;
  span.request = request;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].seconds();
  for (const Span& span : spans) {
    if (span.parent != 0) self[span.parent - 1] -= span.seconds();
  }
  return self;
}

bool write_trace(const std::string& path,
                 const std::vector<const SpanLane*>& lanes,
                 const std::string& other_data) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"otherData\":%s,\"traceEvents\":[", other_data.c_str());
  bool first = true;
  for (std::size_t tid = 0; tid < lanes.size(); ++tid) {
    for (const Span& s : lanes[tid]->spans()) {
      std::fprintf(
          f,
          "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
          "\"epoch\":%d,\"step\":%d,\"rank\":%d,\"request\":%lld,"
          "\"bytes\":%lld}}",
          first ? "" : ",", s.name, tid, 1e-3 * static_cast<double>(s.start_ns),
          1e-3 * static_cast<double>(s.end_ns - s.start_ns), s.id, s.parent,
          s.epoch, s.step, s.rank, static_cast<long long>(s.request),
          static_cast<long long>(s.bytes));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace cfbench
