// Bounded admission queue of the alignment service.
//
// Admission is *non-blocking with backpressure*: when the queue is at
// capacity, try_push rejects with a reason instead of stalling the client —
// the service turns the reason into a failed ticket and counts the reject.
// Workers block in pop() and dispatch each query on its own, in admission
// order.
#pragma once

#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>

#include "svc/query.h"

namespace gdsm::svc {

class QueryQueue {
 public:
  explicit QueryQueue(std::size_t capacity)
      : capacity_(capacity ? capacity : 1) {}

  enum class Reject {
    kNone = 0,
    kFull,    ///< backpressure: capacity reached
    kClosed,  ///< service shutting down
  };
  static const char* reject_reason(Reject r) noexcept;

  /// Admits `q` or rejects it; never blocks.
  Reject try_push(PendingQuery q);

  /// Blocks for the next query in admission order; nullopt once the queue
  /// is closed and drained.
  std::optional<PendingQuery> pop();

  /// Queries currently waiting.
  std::size_t depth() const;
  std::size_t capacity() const noexcept { return capacity_; }

  /// Stops admission; blocked pop() calls drain the remainder then see
  /// nullopt.
  void close();

 private:
  std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<PendingQuery> queue_;
  bool closed_ = false;
};

}  // namespace gdsm::svc
