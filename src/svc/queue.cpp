#include "svc/queue.h"

namespace gdsm::svc {

const char* QueryQueue::reject_reason(Reject r) noexcept {
  switch (r) {
    case Reject::kNone: return "admitted";
    case Reject::kFull: return "queue full";
    case Reject::kClosed: return "service shutting down";
  }
  return "?";
}

QueryQueue::Reject QueryQueue::try_push(PendingQuery q) {
  {
    const std::scoped_lock lk(mu_);
    if (closed_) return Reject::kClosed;
    if (queue_.size() >= capacity_) return Reject::kFull;
    queue_.push_back(std::move(q));
  }
  cv_.notify_one();
  return Reject::kNone;
}

std::optional<PendingQuery> QueryQueue::pop() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return !queue_.empty() || closed_; });
  if (queue_.empty()) return std::nullopt;
  PendingQuery q = std::move(queue_.front());
  queue_.pop_front();
  return q;
}

std::size_t QueryQueue::depth() const {
  const std::scoped_lock lk(mu_);
  return queue_.size();
}

void QueryQueue::close() {
  {
    const std::scoped_lock lk(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

}  // namespace gdsm::svc
