#include "dsm/manager.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "dsm/node.h"
#include "dsm/wire.h"

namespace gdsm::dsm {

ProtocolManager::ProtocolManager(int node, int n_nodes, int n_locks,
                                 int n_cvs, bool home_migration,
                                 GlobalSpace& space, SendFn send)
    : node_(node),
      n_nodes_(n_nodes),
      home_migration_(home_migration),
      space_(space),
      send_(std::move(send)) {
  locks_.resize(static_cast<std::size_t>((n_locks + n_nodes - 1) / n_nodes));
  cvs_.resize(static_cast<std::size_t>((n_cvs + n_nodes - 1) / n_nodes));
  reset();
}

void ProtocolManager::reset() {
  for (auto& l : locks_) {
    l = LockState{};
    l.last_seen.assign(static_cast<std::size_t>(n_nodes_), 0);
  }
  for (auto& cv : cvs_) cv = CvState{};
  barrier_ = BarrierState{};
}

void ProtocolManager::grant_lock(int lock_id, const Waiter& to) {
  LockState& l = locks_[static_cast<std::size_t>(lock_id / n_nodes_)];
  l.held = true;
  l.holder = to.node;
  net::Message grant;
  grant.src = node_;
  grant.dst = to.node;
  grant.type = net::MsgType::kAcquireGrant;
  grant.to_reply_box = true;
  grant.a = static_cast<std::uint64_t>(lock_id);
  grant.c = to.req_id;
  // Write notices this acquirer has not yet seen for this lock's scope.
  std::vector<PageId> unseen(
      l.notice_log.begin() + static_cast<std::ptrdiff_t>(l.last_seen[to.node]),
      l.notice_log.end());
  l.last_seen[to.node] = l.notice_log.size();
  grant.payload = wire::encode_pages(unseen);
  send_(std::move(grant));

  // Garbage-collect the notice log: entries every node has seen can never
  // be granted again, so drop the common prefix (bounds memory on
  // long-running lock-heavy programs).
  const std::size_t seen_by_all =
      *std::min_element(l.last_seen.begin(), l.last_seen.end());
  if (seen_by_all > 1024) {
    l.notice_log.erase(l.notice_log.begin(),
                       l.notice_log.begin() +
                           static_cast<std::ptrdiff_t>(seen_by_all));
    for (auto& seen : l.last_seen) seen -= seen_by_all;
  }
}

void ProtocolManager::grant_cv(int cv_id, const Waiter& to) {
  CvState& cv = cvs_[static_cast<std::size_t>(cv_id / n_nodes_)];
  std::vector<PageId>& notices = cv.pending_notices;
  std::sort(notices.begin(), notices.end());
  notices.erase(std::unique(notices.begin(), notices.end()), notices.end());
  net::Message grant;
  grant.src = node_;
  grant.dst = to.node;
  grant.type = net::MsgType::kCvGrant;
  grant.to_reply_box = true;
  grant.a = static_cast<std::uint64_t>(cv_id);
  grant.c = to.req_id;
  wire::begin_cv_grant(grant.payload, notices);
  // The noticed pages homed here ride along with their current home
  // contents: the waiter is about to read what the signaller published, so
  // this saves it one fetch round trip to this very node.  A waiter on its
  // own manager already reads those pages at home.
  if (to.node != node_) {
    std::size_t carried = 0;
    for (PageId p : notices) {
      if (carried == Node::kMaxBatchPages) break;
      if (space_.home_of(p) != node_) continue;
      const std::scoped_lock guard(space_.page_mutex(p));
      wire::append_page_data(grant.payload, p, space_.home_data(p),
                             space_.page_bytes());
      ++carried;
    }
  }
  notices.clear();
  send_(std::move(grant));
}

void ProtocolManager::handle_message(net::Message msg) {
  using net::MsgType;
  switch (msg.type) {
    case MsgType::kGetPage: {
      const PageId p = msg.a;
      assert(space_.home_of(p) == node_);
      net::Message reply;
      reply.src = node_;
      reply.dst = msg.src;
      reply.type = MsgType::kPageData;
      reply.to_reply_box = true;
      reply.a = p;
      reply.c = msg.c;
      reply.payload.resize(space_.page_bytes());
      {
        const std::scoped_lock guard(space_.page_mutex(p));
        std::memcpy(reply.payload.data(), space_.home_data(p),
                    space_.page_bytes());
      }
      send_(std::move(reply));
      break;
    }
    case MsgType::kDiff: {
      const PageId p = msg.a;
      assert(space_.home_of(p) == node_);
      {
        const std::scoped_lock guard(space_.page_mutex(p));
        wire::apply_diff(space_.home_data(p), space_.page_bytes(), msg.payload);
      }
      net::Message ack;
      ack.src = node_;
      ack.dst = msg.src;
      ack.type = MsgType::kDiffAck;
      ack.to_reply_box = true;
      ack.a = p;
      ack.c = msg.c;
      send_(std::move(ack));
      break;
    }
    case MsgType::kDiffBatch: {
      // Coalesced release: every framed page's diff is applied under its own
      // page mutex, then one ack covers the whole batch.  Re-applying a
      // retransmitted batch is harmless (diffs are idempotent), and the
      // releaser drops the duplicate ack as stale by id.
      for (const wire::DiffBatchSpan& span :
           wire::decode_diff_batch(msg.payload)) {
        assert(space_.home_of(span.page) == node_);
        const std::scoped_lock guard(space_.page_mutex(span.page));
        wire::apply_diff(space_.home_data(span.page), space_.page_bytes(),
                         msg.payload.data() + span.offset, span.len);
      }
      net::Message ack;
      ack.src = node_;
      ack.dst = msg.src;
      ack.type = MsgType::kDiffBatchAck;
      ack.to_reply_box = true;
      ack.a = msg.a;  // pages applied, echoed for the releaser's assert
      ack.c = msg.c;
      send_(std::move(ack));
      break;
    }
    case MsgType::kGetPages: {
      // Bulk fetch (demand prefault or read-ahead): one reply carries every
      // requested page's contents, each copied under its page mutex.
      const std::vector<PageId> pages = wire::decode_pages(msg.payload);
      net::Message reply;
      reply.src = node_;
      reply.dst = msg.src;
      reply.type = MsgType::kPagesData;
      reply.to_reply_box = true;
      reply.a = pages.size();
      reply.c = msg.c;
      reply.payload.reserve(pages.size() *
                            (sizeof(PageId) + space_.page_bytes()));
      for (PageId p : pages) {
        assert(space_.home_of(p) == node_);
        const std::scoped_lock guard(space_.page_mutex(p));
        wire::append_page_data(reply.payload, p, space_.home_data(p),
                               space_.page_bytes());
      }
      send_(std::move(reply));
      break;
    }
    case MsgType::kAcquire: {
      const int lock_id = static_cast<int>(msg.a);
      LockState& l = locks_[static_cast<std::size_t>(lock_id / n_nodes_)];
      if (l.held) {
        l.waiting.push_back(Waiter{msg.src, msg.c});
      } else {
        grant_lock(lock_id, Waiter{msg.src, msg.c});
      }
      break;
    }
    case MsgType::kRelease: {
      const int lock_id = static_cast<int>(msg.a);
      LockState& l = locks_[static_cast<std::size_t>(lock_id / n_nodes_)];
      const std::vector<PageId> notices = wire::decode_pages(msg.payload);
      l.notice_log.insert(l.notice_log.end(), notices.begin(), notices.end());
      l.held = false;
      l.holder = -1;
      if (!l.waiting.empty()) {
        const Waiter next = l.waiting.front();
        l.waiting.pop_front();
        grant_lock(lock_id, next);
      }
      break;
    }
    case MsgType::kBarrier: {
      assert(node_ == 0);
      if (barrier_.arrival_req.empty()) {
        barrier_.arrival_req.assign(static_cast<std::size_t>(n_nodes_), 0);
      }
      barrier_.arrival_req[static_cast<std::size_t>(msg.src)] = msg.c;
      const std::vector<PageId> notices = wire::decode_pages(msg.payload);
      barrier_.notices.insert(barrier_.notices.end(), notices.begin(),
                              notices.end());
      for (PageId p : notices) {
        const auto [it, inserted] = barrier_.writers.emplace(p, msg.src);
        if (!inserted && it->second != msg.src) it->second = -1;
      }
      if (++barrier_.arrived == n_nodes_) {
        std::sort(barrier_.notices.begin(), barrier_.notices.end());
        barrier_.notices.erase(
            std::unique(barrier_.notices.begin(), barrier_.notices.end()),
            barrier_.notices.end());

        wire::BarrierGrant grant_body;
        grant_body.notices = barrier_.notices;
        if (home_migration_) {
          // Home migration: a page written by exactly one node this interval
          // migrates its home to that writer, so its future modifications
          // need no diffs at all.
          for (const auto& [page, writer] : barrier_.writers) {
            if (writer >= 0 && writer != space_.home_of(page)) {
              space_.set_home(page, writer);
              grant_body.migrations.emplace_back(page, writer);
              home_migrations_.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
        const std::vector<std::byte> payload =
            wire::encode_barrier_grant(grant_body);
        for (int dst = 0; dst < n_nodes_; ++dst) {
          net::Message grant;
          grant.src = node_;
          grant.dst = dst;
          grant.type = MsgType::kBarrierGrant;
          grant.to_reply_box = true;
          grant.c = barrier_.arrival_req[static_cast<std::size_t>(dst)];
          grant.payload = payload;
          send_(std::move(grant));
        }
        barrier_ = BarrierState{};
      }
      break;
    }
    case MsgType::kSetCv: {
      const int cv_id = static_cast<int>(msg.a);
      CvState& cv = cvs_[static_cast<std::size_t>(cv_id / n_nodes_)];
      const std::vector<PageId> notices = wire::decode_pages(msg.payload);
      cv.pending_notices.insert(cv.pending_notices.end(), notices.begin(),
                                notices.end());
      if (!cv.waiters.empty()) {
        const Waiter waiter = cv.waiters.front();
        cv.waiters.pop_front();
        grant_cv(cv_id, waiter);
      } else {
        ++cv.count;
      }
      break;
    }
    case MsgType::kWaitCv: {
      const int cv_id = static_cast<int>(msg.a);
      CvState& cv = cvs_[static_cast<std::size_t>(cv_id / n_nodes_)];
      if (cv.count > 0) {
        --cv.count;
        grant_cv(cv_id, Waiter{msg.src, msg.c});
      } else {
        cv.waiters.push_back(Waiter{msg.src, msg.c});
      }
      break;
    }
    case MsgType::kAllocate: {
      assert(node_ == 0);
      const auto bytes = static_cast<std::size_t>(msg.a);
      const int home = static_cast<int>(static_cast<std::int64_t>(msg.b));
      net::Message reply;
      reply.src = node_;
      reply.dst = msg.src;
      reply.type = MsgType::kAllocateReply;
      reply.to_reply_box = true;
      reply.a = space_.alloc(bytes, home);
      reply.c = msg.c;
      send_(std::move(reply));
      break;
    }
    default:
      throw std::logic_error("DSM service: unexpected message type");
  }
}

}  // namespace gdsm::dsm
