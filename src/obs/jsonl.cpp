#include "obs/jsonl.hpp"

namespace cf::obs {

namespace {

void append_double(std::string& out, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  out += buffer;
}

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

void JsonObject::key(std::string_view k) {
  if (body_.size() > 1) body_ += ',';
  append_quoted(body_, k);
  body_ += ':';
}

JsonObject& JsonObject::field(std::string_view k, double value) {
  key(k);
  append_double(body_, value);
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, std::int64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, std::string_view value) {
  key(k);
  append_quoted(body_, value);
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonlSink::JsonlSink(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "w");
}

JsonlSink::~JsonlSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void JsonlSink::write(const JsonObject& record) { write_line(record.str()); }

void JsonlSink::write_line(const std::string& line) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);
}

}  // namespace cf::obs
