// Blocking MPSC mailbox: the per-node message queue.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "net/message.h"

namespace gdsm::net {

/// Unbounded blocking queue of messages.  Multiple producers (any node's
/// threads), one logical consumer (the owning node's service or application
/// thread).  close() wakes the consumer, which then drains and sees
/// std::nullopt.
class Mailbox {
 public:
  void push(Message msg) {
    {
      const std::scoped_lock lock(mu_);
      queue_.push_back(std::move(msg));
    }
    cv_.notify_one();
  }

  /// Blocks until a message arrives or the box is closed and drained.
  std::optional<Message> pop() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return !queue_.empty() || closed_; });
    if (queue_.empty()) return std::nullopt;
    Message msg = std::move(queue_.front());
    queue_.pop_front();
    return msg;
  }

  /// Like pop(), but gives up after `timeout`.  Returns nullopt on timeout
  /// with *closed untouched, or on close-and-drained with *closed set true —
  /// the DSM retry layer needs to tell the two apart.
  std::optional<Message> pop_for(std::chrono::microseconds timeout,
                                 bool* closed) {
    std::unique_lock lock(mu_);
    if (!cv_.wait_for(lock, timeout,
                      [&] { return !queue_.empty() || closed_; })) {
      return std::nullopt;  // timed out
    }
    if (queue_.empty()) {
      if (closed != nullptr) *closed = true;
      return std::nullopt;
    }
    Message msg = std::move(queue_.front());
    queue_.pop_front();
    return msg;
  }

  void close() {
    {
      const std::scoped_lock lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// Re-arms a closed box so pop() blocks again.  Part of the cluster's
  /// failed-program recovery: reply boxes are closed to unwind blocked
  /// requesters, then reopened before the next program is admitted.
  void reopen() {
    const std::scoped_lock lock(mu_);
    closed_ = false;
  }

  /// Discards every queued message; returns how many were dropped.
  std::size_t drain() {
    const std::scoped_lock lock(mu_);
    const std::size_t n = queue_.size();
    queue_.clear();
    return n;
  }

  std::size_t size() const {
    const std::scoped_lock lock(mu_);
    return queue_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  bool closed_ = false;
};

}  // namespace gdsm::net
