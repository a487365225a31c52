#include "serve/request_queue.hpp"

namespace cf::serve {

std::string_view to_string(SubmitStatus status) noexcept {
  switch (status) {
    case SubmitStatus::kAccepted:
      return "accepted";
    case SubmitStatus::kOverloaded:
      return "overloaded";
    case SubmitStatus::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

RequestQueue::RequestQueue(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

SubmitStatus RequestQueue::try_push(Request&& request) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return SubmitStatus::kShutdown;
    if (items_.size() >= capacity_) return SubmitStatus::kOverloaded;
    items_.push_back(std::move(request));
  }
  not_empty_.notify_one();
  return SubmitStatus::kAccepted;
}

bool RequestQueue::pop(Request* out) {
  std::unique_lock<std::mutex> lock(mutex_);
  not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
  if (items_.empty()) return false;  // closed and drained
  *out = std::move(items_.front());
  items_.pop_front();
  return true;
}

void RequestQueue::close() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  not_empty_.notify_all();
}

std::size_t RequestQueue::depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return items_.size();
}

}  // namespace cf::serve
