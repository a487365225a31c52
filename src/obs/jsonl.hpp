// Structured JSONL emission — the per-step stats sink.
//
// Training emits one JSON object per line (step, rank, loss, lr, stage
// seconds); the bench harness and OBSERVABILITY.md queries consume the
// file with standard line-oriented tools. JsonObject builds one record
// with deterministic formatting (insertion order, "%.9g" doubles) and
// JsonlSink appends records to a file under a mutex so every rank
// thread can log through one sink.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>

namespace cf::obs {

/// Builder for one flat JSON object; fields keep insertion order.
class JsonObject {
 public:
  JsonObject& field(std::string_view key, double value);
  JsonObject& field(std::string_view key, std::int64_t value);
  JsonObject& field(std::string_view key, int value) {
    return field(key, static_cast<std::int64_t>(value));
  }
  JsonObject& field(std::string_view key, std::string_view value);
  // Without this overload a string literal would convert to bool (a
  // standard conversion) in preference to string_view.
  JsonObject& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }
  JsonObject& field(std::string_view key, bool value);
  /// A nested object.
  JsonObject& field(std::string_view key, const JsonObject& value);

  /// The completed `{...}` object.
  std::string str() const { return body_ + "}"; }

 private:
  void key(std::string_view k);
  std::string body_ = "{";
};

/// Append-only JSONL file; write() is thread safe and flushes per
/// record so the log is complete up to the last step on any exit.
class JsonlSink {
 public:
  explicit JsonlSink(const std::string& path);
  ~JsonlSink();

  JsonlSink(const JsonlSink&) = delete;
  JsonlSink& operator=(const JsonlSink&) = delete;

  bool ok() const noexcept { return file_ != nullptr; }
  const std::string& path() const noexcept { return path_; }

  void write(const JsonObject& record);
  void write_line(const std::string& line);

 private:
  std::string path_;
  std::mutex mutex_;
  std::FILE* file_ = nullptr;
};

}  // namespace cf::obs
