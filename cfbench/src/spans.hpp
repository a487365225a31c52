// Spans recorded by the harness around its calls into the program's
// layers (the traced run). Each span has a name, start, end, parent
// and an identifier: epoch/step/rank for training, request id for
// serving. Spans stay in memory and are written out when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cfbench {

/// Nanoseconds on the monotonic clock since the process started.
std::int64_t now_ns();

/// Sleeps until now_ns() reaches `t` (returns at once if it has).
void sleep_until_ns(std::int64_t t);

struct Span {
  const char* name = "";
  std::uint32_t id = 0;      // 1-based, unique within its lane
  std::uint32_t parent = 0;  // 0 = no parent
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t epoch = -1;
  std::int32_t step = -1;
  std::int32_t rank = -1;
  std::int64_t request = -1;
  std::int64_t bytes = 0;  // payload the call moved, where it has one

  double seconds() const { return 1e-9 * static_cast<double>(end_ns - start_ns); }
};

/// The spans of one thread. Nesting follows begin/end order, so a lane
/// must only be used by the thread that owns it.
class SpanLane {
 public:
  /// Identifier fields copied into every span begun afterwards.
  std::int32_t epoch = -1;
  std::int32_t step = -1;
  std::int32_t rank = -1;

  std::uint32_t begin(const char* name);
  void end(std::uint32_t id);
  /// A finished span with explicit times, child of the open span.
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::int64_t request = -1);
  void set_bytes(std::uint32_t id, std::int64_t bytes) {
    spans_[id - 1].bytes = bytes;
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  void reserve(std::size_t n) { spans_.reserve(n); }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span on a lane.
class ScopedSpan {
 public:
  ScopedSpan(SpanLane& lane, const char* name)
      : lane_(lane), id_(lane.begin(name)) {}
  ~ScopedSpan() { lane_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLane& lane_;
  std::uint32_t id_;
};

/// Self time of every span of a lane, in seconds: its duration minus
/// the durations of its direct children (a lane's children never
/// overlap, since one thread records them in sequence).
std::vector<double> self_seconds(const std::vector<Span>& spans);

/// Writes lanes as a Chrome trace-event JSON file (one tid per lane);
/// `other_data` is a JSON object stored beside the events. Returns
/// false when the file cannot be written.
bool write_trace(const std::string& path,
                 const std::vector<const SpanLane*>& lanes,
                 const std::string& other_data);

}  // namespace cfbench
