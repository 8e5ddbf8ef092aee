#include "dsm/node.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "dsm/cluster.h"
#include "dsm/wire.h"

namespace gdsm::dsm {

namespace {

/// Payload bytes of a diff-batch frame header (u64 page + u32 record_bytes).
constexpr std::size_t kBatchFrameHeader = sizeof(PageId) + sizeof(std::uint32_t);

[[noreturn]] void throw_box_closed() {
  throw std::runtime_error("DSM node: reply box closed mid-request");
}

}  // namespace

Node::Node(int id, int n_nodes, const DsmConfig& cfg, GlobalSpace& space)
    : id_(id),
      n_nodes_(n_nodes),
      cfg_(cfg),
      space_(space),
      page_bytes_(space.page_bytes()),
      cache_(cfg.cache_pages) {}

// ---------------------------------------------------------------------------
// Request engine.

std::uint64_t Node::next_request_id() {
  return space_.request_ids().fetch_add(1, std::memory_order_relaxed) + 1;
}

net::Message Node::request(net::Message msg) {
  msg.src = id_;
  msg.c = next_request_id();
  const std::uint64_t id = msg.c;
  const RetryPolicy& retry = cfg_.retry;
  // Only idempotent requests may be retransmitted: fetching a page twice or
  // applying the same diff twice is harmless, but a duplicated acquire /
  // barrier / cv / alloc would corrupt manager state.
  const bool retryable =
      retry.timeout_us > 0 && (msg.type == net::MsgType::kGetPage ||
                               msg.type == net::MsgType::kDiff);
  net::Message resend;  // copy kept only while retransmission is possible
  if (retryable) resend = msg;
  send(std::move(msg));

  net::Mailbox& box = reply_box();
  std::uint32_t attempts = 0;
  for (;;) {
    std::optional<net::Message> reply;
    if (retry.timeout_us == 0) {
      reply = box.pop();
      if (!reply) throw_box_closed();
    } else {
      const auto wait = std::chrono::microseconds(
          retry.timeout_us +
          static_cast<std::uint64_t>(attempts) * retry.backoff_us);
      bool closed = false;
      reply = box.pop_for(wait, &closed);
      if (!reply) {
        if (closed) throw_box_closed();
        ++stats_.request_timeouts;
        if (retryable && attempts < retry.max_retries) {
          ++attempts;
          ++stats_.request_retries;
          net::Message again = resend;  // same id: replies stay matchable
          send(std::move(again));
        }
        // Non-idempotent requests (and exhausted retries) keep waiting; the
        // transport is reliable underneath, so the reply will come.
        continue;
      }
    }
    if (reply->c == id) return *std::move(reply);
    ++stats_.stale_replies;  // a leftover of a superseded attempt
  }
}

void Node::request_all(std::vector<net::Message> msgs) {
  const RetryPolicy& retry = cfg_.retry;
  std::map<std::uint64_t, std::pair<net::Message, std::uint32_t>> outstanding;
  std::size_t next = 0;
  auto send_next = [&] {
    net::Message msg = std::move(msgs[next++]);
    msg.src = id_;
    msg.c = next_request_id();
    auto& slot = outstanding[msg.c];  // {resend copy, attempts}
    if (retry.timeout_us > 0) slot.first = msg;
    send(std::move(msg));
  };
  while (next < msgs.size() && outstanding.size() < kWindow) send_next();

  net::Mailbox& box = reply_box();
  while (!outstanding.empty()) {
    std::optional<net::Message> reply;
    if (retry.timeout_us == 0) {
      reply = box.pop();
      if (!reply) throw_box_closed();
    } else {
      bool closed = false;
      reply = box.pop_for(std::chrono::microseconds(retry.timeout_us), &closed);
      if (!reply) {
        if (closed) throw_box_closed();
        ++stats_.request_timeouts;
        for (auto& [id, o] : outstanding) {
          if (o.second < retry.max_retries) {
            ++o.second;
            ++stats_.request_retries;
            net::Message again = o.first;
            send(std::move(again));
          }
        }
        continue;
      }
    }
    const auto it = outstanding.find(reply->c);
    if (it == outstanding.end()) {
      ++stats_.stale_replies;
      continue;
    }
    outstanding.erase(it);
    if (reply->type == net::MsgType::kPagesData) {
      for (const wire::PageDataSpan& span :
           wire::decode_pages_data(reply->payload, page_bytes_)) {
        if (cache_.contains(span.page)) continue;  // e.g. duplicate retransmit
        const auto first =
            reply->payload.begin() + static_cast<std::ptrdiff_t>(span.offset);
        install(span.page, std::vector<std::byte>(
                               first, first + static_cast<std::ptrdiff_t>(
                                                  page_bytes_)));
      }
    } else {
      assert(reply->type == net::MsgType::kDiffBatchAck);
    }
    if (next < msgs.size()) send_next();
  }
}

// ---------------------------------------------------------------------------
// Frame table.

Frame* Node::install(PageId p, std::vector<std::byte> data) {
  PageCache::Evicted evicted;
  Frame* f = cache_.insert(p, {}, &evicted);
  if (evicted.valid) {
    ++stats_.evictions;
    if (evicted.frame.dirty) {
      // The victim's diff needs a blocking round-trip, which must not run
      // here (installs happen inside request_all() with other replies
      // pending on the box, and inside the SIGSEGV handler): copy it out and
      // flush at the next safe point.
      const std::byte* bytes = frame_bytes(evicted.page, evicted.frame);
      deferred_dirty_.push_back(
          {evicted.page, std::vector<std::byte>(bytes, bytes + page_bytes_),
           std::move(evicted.frame.twin)});
    }
    frame_dropped(evicted.page);
  }
  fill_frame(p, *f, std::move(data));
  return f;
}

void Node::drop(PageId p) {
  if (cache_.erase(p)) frame_dropped(p);
}

void Node::clean(PageId p, Frame& f) {
  f.twin.clear();
  f.twin.shrink_to_fit();
  f.dirty = false;
  frame_cleaned(p);
}

Frame* Node::fetch_page(PageId p) {
  ++stats_.read_faults;
  net::Message msg;
  msg.dst = space_.home_of(p);
  msg.type = net::MsgType::kGetPage;
  msg.a = p;
  net::Message reply = request(std::move(msg));
  return install(p, std::move(reply.payload));
}

void Node::make_twin(PageId p, Frame& f) {
  const std::byte* bytes = frame_bytes(p, f);
  f.twin.assign(bytes, bytes + page_bytes_);
  f.dirty = true;
  ++stats_.write_faults;
}

void Node::flush_deferred_dirty() {
  while (!deferred_dirty_.empty()) {
    DeferredDirty d = std::move(deferred_dirty_.back());
    deferred_dirty_.pop_back();
    if (send_diff(d.page, d.twin.data(), d.data.data())) {
      pending_notices_.push_back(d.page);
    }
  }
}

// ---------------------------------------------------------------------------
// Access paths.

void Node::prefault_range(GlobalAddr a, std::size_t n) {
  const PageId first = space_.page_of(a);
  const PageId last = space_.page_of(a + n - 1);
  // Never bulk-fetch more than half the cache in one go: the tail of a huge
  // span would evict its own head before the copy loop reads it.
  std::size_t budget = cache_.capacity() / 2;
  std::map<int, std::vector<PageId>> by_home;
  for (PageId p = first; p <= last && budget > 0; ++p) {
    if (space_.home_of(p) == id_ || cache_.contains(p)) continue;
    by_home[space_.home_of(p)].push_back(p);
    --budget;
  }
  std::vector<net::Message> msgs;
  for (auto& [home, pages] : by_home) {
    if (pages.size() < 2) continue;  // one page = one round-trip either way
    for (std::size_t i = 0; i < pages.size(); i += kMaxBatchPages) {
      const std::size_t count = std::min(kMaxBatchPages, pages.size() - i);
      const auto chunk = pages.begin() + static_cast<std::ptrdiff_t>(i);
      net::Message msg;
      msg.dst = home;
      msg.type = net::MsgType::kGetPages;
      msg.a = count;
      msg.payload = wire::encode_pages(std::vector<PageId>(
          chunk, chunk + static_cast<std::ptrdiff_t>(count)));
      msgs.push_back(std::move(msg));
      // read_faults counts remote fetches however they were transported.
      stats_.read_faults += count;
      ++stats_.bulk_fetches;
      stats_.bulk_pages_fetched += count;
    }
  }
  if (!msgs.empty()) {
    request_all(std::move(msgs));
    flush_deferred_dirty();
  }
}

void Node::read_bytes(GlobalAddr a, std::byte* out, std::size_t n) {
  if (n == 0) return;
  if (space_.page_of(a) != space_.page_of(a + n - 1)) prefault_range(a, n);
  while (n > 0) {
    const PageId p = space_.page_of(a);
    const std::size_t off = space_.offset_in_page(a);
    const std::size_t chunk = std::min(n, page_bytes_ - off);
    if (space_.home_of(p) == id_) {
      const std::scoped_lock guard(space_.page_mutex(p));
      std::memcpy(out, space_.home_data(p) + off, chunk);
    } else {
      Frame* f = cache_.lookup(p);
      if (f != nullptr) ++stats_.cache_hits;
      copy_out(p, f, off, out, chunk);
      flush_deferred_dirty();
    }
    a += chunk;
    out += chunk;
    n -= chunk;
  }
}

void Node::write_bytes(GlobalAddr a, const std::byte* in, std::size_t n) {
  while (n > 0) {
    const PageId p = space_.page_of(a);
    const std::size_t off = space_.offset_in_page(a);
    const std::size_t chunk = std::min(n, page_bytes_ - off);
    if (space_.home_of(p) == id_) {
      // The home copy is canonical: write through under the page mutex and
      // remember the page for the next write-notice propagation.
      {
        const std::scoped_lock guard(space_.page_mutex(p));
        std::memcpy(space_.home_data(p) + off, in, chunk);
      }
      home_written_.insert(p);
    } else {
      Frame* f = cache_.lookup(p);
      if (f != nullptr) ++stats_.cache_hits;
      copy_in(p, f, off, in, chunk);
      flush_deferred_dirty();
    }
    a += chunk;
    in += chunk;
    n -= chunk;
  }
}

// ---------------------------------------------------------------------------
// Release-time diff propagation.

bool Node::send_diff(PageId p, const std::byte* twin, const std::byte* data) {
  diff_scratch_.clear();
  wire::append_diff(diff_scratch_, twin, data, page_bytes_);
  if (diff_scratch_.empty()) {
    // The page was rewritten with identical bytes: the home copy is already
    // current, so the whole round-trip (and the write notice) is dropped.
    ++stats_.empty_diffs_suppressed;
    return false;
  }
  ++stats_.diffs_sent;
  stats_.diff_bytes += diff_scratch_.size();
  net::Message msg;
  msg.dst = space_.home_of(p);
  msg.type = net::MsgType::kDiff;
  msg.a = p;
  msg.payload.assign(diff_scratch_.begin(), diff_scratch_.end());
  net::Message ack = request(std::move(msg));
  assert(ack.type == net::MsgType::kDiffAck);
  (void)ack;
  return true;
}

bool Node::flush_frame(PageId p, Frame& f) {
  const bool sent = send_diff(p, f.twin.data(), frame_bytes(p, f));
  clean(p, f);
  return sent;
}

void Node::flush_all_diffs() {
  std::vector<PageId> dirty = cache_.dirty_pages();
  if (dirty.empty()) return;
  std::sort(dirty.begin(), dirty.end());  // deterministic wire layout
  if (dirty.size() > 1) {
    flush_diffs_batched(dirty);
    return;
  }
  Frame* f = cache_.lookup(dirty.front());
  assert(f != nullptr && f->dirty);
  if (flush_frame(dirty.front(), *f)) pending_notices_.push_back(dirty.front());
}

void Node::flush_diffs_batched(const std::vector<PageId>& dirty) {
  std::map<int, std::vector<PageId>> by_home;
  for (PageId p : dirty) by_home[space_.home_of(p)].push_back(p);
  std::vector<net::Message> msgs;
  for (auto& [home, pages] : by_home) {
    std::size_t i = 0;
    while (i < pages.size()) {
      net::Message msg;
      msg.dst = home;
      msg.type = net::MsgType::kDiffBatch;
      std::uint64_t in_batch = 0;
      for (; i < pages.size() && in_batch < kMaxBatchPages; ++i) {
        const PageId p = pages[i];
        Frame* f = cache_.lookup(p);
        assert(f != nullptr && f->dirty);
        const std::size_t before = msg.payload.size();
        if (wire::append_diff_batch_page(msg.payload, p, f->twin.data(),
                                         frame_bytes(p, *f), page_bytes_)) {
          ++in_batch;
          ++stats_.diffs_sent;  // per-page accounting, as for a single kDiff
          stats_.diff_bytes += msg.payload.size() - before - kBatchFrameHeader;
          pending_notices_.push_back(p);
        } else {
          ++stats_.empty_diffs_suppressed;
        }
        clean(p, *f);
      }
      if (in_batch > 0) {
        msg.a = in_batch;
        ++stats_.diff_batches_sent;
        stats_.diff_pages_batched += in_batch;
        msgs.push_back(std::move(msg));
      }
    }
  }
  if (!msgs.empty()) request_all(std::move(msgs));
}

// ---------------------------------------------------------------------------
// Write notices.

std::vector<std::byte> Node::take_notices() {
  std::vector<PageId> notices = std::move(pending_notices_);
  pending_notices_.clear();
  notices.insert(notices.end(), home_written_.begin(), home_written_.end());
  home_written_.clear();
  std::sort(notices.begin(), notices.end());
  notices.erase(std::unique(notices.begin(), notices.end()), notices.end());
  return wire::encode_pages(notices);
}

void Node::apply_notices(const std::vector<std::byte>& payload) {
  apply_notices(wire::decode_pages(payload));
}

void Node::apply_notices(const std::vector<PageId>& pages) {
  for (PageId p : pages) {
    if (space_.home_of(p) == id_) continue;  // home copy stays valid
    Frame* f = cache_.lookup(p);
    if (f == nullptr) continue;
    if (f->dirty) {
      // Concurrent-writer case: merge our modifications home before
      // dropping the stale copy, so no write is lost.
      if (flush_frame(p, *f)) pending_notices_.push_back(p);
    }
    drop(p);
    ++stats_.invalidations;
  }
}

// ---------------------------------------------------------------------------
// Synchronization.

void Node::lock(int lock_id) {
  ++stats_.lock_acquires;
  net::Message msg;
  msg.dst = lock_id % n_nodes_;
  msg.type = net::MsgType::kAcquire;
  msg.a = static_cast<std::uint64_t>(lock_id);
  net::Message grant = request(std::move(msg));
  assert(grant.type == net::MsgType::kAcquireGrant);
  apply_notices(grant.payload);
}

void Node::unlock(int lock_id) {
  ++stats_.lock_releases;
  flush_all_diffs();
  net::Message msg;
  msg.src = id_;
  msg.dst = lock_id % n_nodes_;
  msg.type = net::MsgType::kRelease;
  msg.a = static_cast<std::uint64_t>(lock_id);
  msg.payload = take_notices();
  send(std::move(msg));  // release needs no reply
}

void Node::barrier() {
  ++stats_.barriers;
  flush_all_diffs();
  net::Message msg;
  msg.dst = 0;  // barrier owner
  msg.type = net::MsgType::kBarrier;
  msg.payload = take_notices();
  net::Message grant = request(std::move(msg));
  assert(grant.type == net::MsgType::kBarrierGrant);
  const wire::BarrierGrant decoded = wire::decode_barrier_grant(grant.payload);
  apply_notices(decoded.notices);
  for (const auto& [page, new_home] : decoded.migrations) {
    // A page that migrated HERE is now served from the home copy directly;
    // drop any stale cached frame so accesses take the home path.
    if (new_home == id_) drop(page);
  }
}

void Node::setcv(int cv_id) {
  ++stats_.cv_signals;
  // Release semantics: make this node's writes visible to whoever wakes.
  flush_all_diffs();
  net::Message msg;
  msg.src = id_;
  msg.dst = cv_id % n_nodes_;
  msg.type = net::MsgType::kSetCv;
  msg.a = static_cast<std::uint64_t>(cv_id);
  msg.payload = take_notices();
  send(std::move(msg));  // signal needs no reply
}

void Node::waitcv(int cv_id) {
  ++stats_.cv_waits;
  net::Message msg;
  msg.dst = cv_id % n_nodes_;
  msg.type = net::MsgType::kWaitCv;
  msg.a = static_cast<std::uint64_t>(cv_id);
  net::Message grant = request(std::move(msg));
  assert(grant.type == net::MsgType::kCvGrant);
  const wire::CvGrant decoded =
      wire::decode_cv_grant(grant.payload, page_bytes_);
  // Install the carried pages in place of a fetch.  A dirty local copy
  // (concurrent writer) stays for apply_notices below to flush and drop,
  // and the carried copy is discarded: it predates our diff at the home.
  std::vector<PageId> installed;
  installed.reserve(decoded.pages.size());
  for (const wire::PageDataSpan& span : decoded.pages) {
    if (!space_.valid_page(span.page)) {
      throw std::runtime_error("DSM node: cv grant carries an unknown page");
    }
    if (space_.home_of(span.page) == id_) continue;
    if (const Frame* f = cache_.lookup(span.page); f != nullptr) {
      if (f->dirty) continue;
      drop(span.page);  // the stale clean copy
      ++stats_.invalidations;
    }
    const auto first =
        grant.payload.begin() + static_cast<std::ptrdiff_t>(span.offset);
    install(span.page,
            std::vector<std::byte>(
                first, first + static_cast<std::ptrdiff_t>(page_bytes_)));
    // read_faults counts remote fetches however they were transported.
    ++stats_.read_faults;
    ++stats_.grant_pages;
    installed.push_back(span.page);
  }
  std::vector<PageId> stale;
  for (PageId p : decoded.notices) {
    if (std::find(installed.begin(), installed.end(), p) == installed.end()) {
      stale.push_back(p);
    }
  }
  apply_notices(stale);
  flush_deferred_dirty();
}

GlobalAddr Node::alloc(std::size_t bytes, int home) {
  net::Message msg;
  msg.dst = 0;
  msg.type = net::MsgType::kAllocate;
  msg.a = bytes;
  msg.b = static_cast<std::uint64_t>(static_cast<std::int64_t>(home));
  net::Message reply = request(std::move(msg));
  assert(reply.type == net::MsgType::kAllocateReply);
  return reply.a;
}

NodeStats Node::end_of_job(const std::set<PageId>& retained) {
  // Dirty frames of a finished (or failed) program must never survive into
  // the next job: their write notices died with the manager state.  Clean
  // frames of retained pages are immutable service data and stay warm.
  for (PageId p : cache_.retain_only(retained)) frame_dropped(p);
  home_written_.clear();
  pending_notices_.clear();
  deferred_dirty_.clear();
  result_.clear();
  NodeStats out = stats_;
  stats_ = NodeStats{};
  account_comm_totals(out);
  return out;
}

// ---------------------------------------------------------------------------
// ThreadNode: page bytes in the frames, messages over the cluster Transport.

ThreadNode::ThreadNode(Cluster& cluster, int id)
    : Node(id, cluster.nodes(), cluster.config(), cluster.space()),
      cluster_(cluster) {}

void ThreadNode::send(net::Message msg) {
  cluster_.transport_.send(std::move(msg));
}

net::Mailbox& ThreadNode::reply_box() {
  return cluster_.transport_.reply_box(id_);
}

std::byte* ThreadNode::frame_bytes(PageId /*p*/, Frame& f) {
  return f.data.data();
}

void ThreadNode::fill_frame(PageId /*p*/, Frame& f,
                            std::vector<std::byte> data) {
  f.data = std::move(data);
}

void ThreadNode::copy_out(PageId p, Frame* f, std::size_t off, std::byte* out,
                          std::size_t n) {
  if (f == nullptr) f = fetch_page(p);
  std::memcpy(out, f->data.data() + off, n);
}

void ThreadNode::copy_in(PageId p, Frame* f, std::size_t off,
                         const std::byte* in, std::size_t n) {
  if (f == nullptr) f = fetch_page(p);
  if (!f->dirty) make_twin(p, *f);
  std::memcpy(f->data.data() + off, in, n);
}

}  // namespace gdsm::dsm
