// The application-side DSM interface: one Node per cluster process.
//
// API parity with JIAJIA (Section 3.1):
//   jiapid        -> id()
//   jia_alloc     -> alloc()
//   jia_lock      -> lock()
//   jia_unlock    -> unlock()
//   jia_barrier   -> barrier()
//   jia_setcv     -> setcv()
//   jia_waitcv    -> waitcv()
//
// Node is the client half of the protocol, written once for both backends:
// fetch on read fault, twin on first write, diffs to home nodes at release
// points, write notices invalidating stale copies at acquire points
// (home-based write-invalidate multiple-writer protocol under Scope
// Consistency).  Multi-page reads are bulk-fetched per home (kGetPages) and
// a release with several dirty pages ships one kDiffBatch per home, with at
// most kWindow such requests outstanding.  The LRU frame table (PageCache)
// is shared too, so both backends evict the same pages and count the same
// NodeStats by construction.  A backend supplies only what really differs:
//
//   ThreadNode (below): page bytes live in the PageCache frames and every
//   access is API-mediated; the cluster Transport carries the messages.
//
//   ProcNode (src/dsm/proc): one OS process per node; page bytes live in
//   mprotect-ed slots of a mapped cache region and a SIGSEGV handler does
//   the fetch-on-fault / twin-on-first-write — JIAJIA's actual mechanism;
//   a Plane (socket or router) carries the messages.
//
// One deliberate extension: setcv() performs a release (diff flush + write
// notices attached to the signal) and waitcv() performs the matching acquire
// (invalidation of the noticed pages).  The paper's wave-front strategies
// publish a border cell and then signal a condition variable; without
// release/acquire semantics on the cv pair that publication would be
// invisible under pure Scope Consistency.  The grant also carries the
// current home contents of the noticed pages homed at the granting manager
// (at most kMaxBatchPages): the waiter installs them as clean frames instead
// of fetching each one right after the wait from the node that just granted
// it.  A dirty local copy of a carried page is flushed and dropped as any
// noticed page is, and the carried copy discarded.
//
// A node program hands its result back with set_result(): the submitter
// gets one payload per node from Cluster::await, on the thread backend from
// the node object and on the process backend in a frame the child sends
// before it reports done — results never travel through shared pages.
#pragma once

#include <cstdint>
#include <cstring>
#include <set>
#include <type_traits>
#include <vector>

#include "dsm/config.h"
#include "dsm/page_cache.h"
#include "dsm/stats.h"
#include "net/mailbox.h"
#include "net/message.h"

namespace gdsm::dsm {

class Cluster;

class Node {
 public:
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  int id() const noexcept { return id_; }   ///< JIAJIA's jiapid
  int nodes() const noexcept { return n_nodes_; }

  // -- shared memory access ------------------------------------------------
  template <typename T>
  T read(GlobalAddr a) {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    read_bytes(a, reinterpret_cast<std::byte*>(&v), sizeof(T));
    return v;
  }

  template <typename T>
  void write(GlobalAddr a, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    write_bytes(a, reinterpret_cast<const std::byte*>(&v), sizeof(T));
  }

  void read_bytes(GlobalAddr a, std::byte* out, std::size_t n);
  void write_bytes(GlobalAddr a, const std::byte* in, std::size_t n);

  // -- synchronization -----------------------------------------------------
  void lock(int lock_id);
  void unlock(int lock_id);
  void barrier();
  void setcv(int cv_id);
  void waitcv(int cv_id);

  /// Collective-style allocation routed through node 0 (any node may call;
  /// the caller is responsible for telling the other nodes the address).
  GlobalAddr alloc(std::size_t bytes, int home = -1);

  const NodeStats& stats() const noexcept { return stats_; }

  /// Hands `payload` back to the submitter as this node's entry of
  /// Cluster::JobResult::results (a later call replaces an earlier one).
  void set_result(std::vector<std::byte> payload) {
    result_ = std::move(payload);
  }
  /// Takes the payload set by this job's program (empty if none).
  std::vector<std::byte> take_result() { return std::move(result_); }

  /// Attributes `cells` DP cell updates to this node (strategy loops call
  /// this next to their simd kernel dispatches; see dsm_stats.dp_cells).
  void add_dp_cells(std::uint64_t cells) noexcept { stats_.dp_cells += cells; }

  /// Per-job teardown for the persistent cluster, run by the cluster (not
  /// by node programs) between jobs: sweeps the cache keeping only clean
  /// frames of `retained` pages, clears per-interval write tracking and an
  /// untaken result, folds the counters into the process-wide comm totals,
  /// and returns-and-zeroes this node's counters.
  NodeStats end_of_job(const std::set<PageId>& retained);

  /// Outstanding kGetPages / kDiffBatch requests of one bulk exchange.
  static constexpr std::size_t kWindow = 8;
  /// Pages carried by one kGetPages, kDiffBatch or kCvGrant at most.
  static constexpr std::size_t kMaxBatchPages = 64;

 protected:
  Node(int id, int n_nodes, const DsmConfig& cfg, GlobalSpace& space);

  // -- what a backend supplies ----------------------------------------------
  virtual void send(net::Message msg) = 0;
  virtual net::Mailbox& reply_box() = 0;
  /// Where the cached copy of remote page `p` (frame `f`) lives.
  virtual std::byte* frame_bytes(PageId p, Frame& f) = 0;
  /// Stores freshly fetched contents into the new frame `f` of page `p`.
  virtual void fill_frame(PageId p, Frame& f, std::vector<std::byte> data) = 0;
  /// Page `p` left the cache (eviction, invalidation, end-of-job sweep).
  virtual void frame_dropped(PageId /*p*/) {}
  /// Page `p`'s twin was dropped at release: the next write must fault.
  virtual void frame_cleaned(PageId /*p*/) {}
  /// Copies between the caller and remote page `p`'s cached copy; `f` is
  /// its frame, or null on a miss.  The backend resolves a miss with
  /// fetch_page() and a first write with make_twin() — explicitly on
  /// threads, from the SIGSEGV handler on process.
  virtual void copy_out(PageId p, Frame* f, std::size_t off, std::byte* out,
                        std::size_t n) = 0;
  virtual void copy_in(PageId p, Frame* f, std::size_t off,
                       const std::byte* in, std::size_t n) = 0;

  /// Demand fault: one kGetPage round-trip; returns the installed frame.
  Frame* fetch_page(PageId p);
  /// Twin-on-first-write: snapshots the clean copy for the multiple-writer
  /// diff and marks the frame dirty.
  void make_twin(PageId p, Frame& f);

  int id_;
  int n_nodes_;
  const DsmConfig& cfg_;
  GlobalSpace& space_;
  std::size_t page_bytes_;
  PageCache cache_;
  NodeStats stats_;

 private:
  /// A dirty frame evicted mid-request, contents copied out; its diff is
  /// flushed at the next safe point (no blocking round-trip may run while
  /// other replies are pending on the reply box).
  struct DeferredDirty {
    PageId page = 0;
    std::vector<std::byte> data;
    std::vector<std::byte> twin;
  };

  std::uint64_t next_request_id();
  /// Sends one request and blocks for its reply, matched by request id.
  /// Idempotent requests (page fetch, diff) are retransmitted per the
  /// RetryPolicy; replies of superseded attempts count as stale_replies.
  net::Message request(net::Message msg);
  /// Windowed multi-request engine: keeps up to kWindow of `msgs` (all
  /// idempotent: kGetPages / kDiffBatch) in flight, refilling as replies
  /// are matched by id; kPagesData replies are installed in the cache.
  void request_all(std::vector<net::Message> msgs);

  /// Inserts a fetched page; an evicted dirty victim is deferred.
  Frame* install(PageId p, std::vector<std::byte> data);
  void drop(PageId p);
  void clean(PageId p, Frame& f);

  /// Bulk-fetch pre-pass of a multi-page read: groups the span's uncached
  /// remote pages by home and fetches each group of >= 2 with kGetPages
  /// (singles fall through to the demand-fault path).
  void prefault_range(GlobalAddr a, std::size_t n);

  /// Sends one page's diff to its home and awaits the ack.  Returns false —
  /// and skips the round-trip — when the page matches its twin (rewritten
  /// with identical data).  Callers record a write notice only on true.
  bool send_diff(PageId p, const std::byte* twin, const std::byte* data);
  bool flush_frame(PageId p, Frame& f);       ///< send_diff + clean
  void flush_all_diffs();                     ///< release-time propagation
  void flush_diffs_batched(const std::vector<PageId>& dirty);
  void flush_deferred_dirty();
  std::vector<std::byte> take_notices();      ///< encode + clear pending
  void apply_notices(const std::vector<std::byte>& payload);
  void apply_notices(const std::vector<PageId>& pages);

  std::set<PageId> home_written_;     ///< modified home pages (no diff needed)
  std::vector<PageId> pending_notices_;  ///< e.g. dirty evictions mid-interval
  std::vector<std::byte> diff_scratch_;  ///< reused diff-encode buffer
  std::vector<DeferredDirty> deferred_dirty_;
  std::vector<std::byte> result_;  ///< set_result() payload of this job
};

/// The in-process backend: page bytes in the PageCache frames, messages
/// over the cluster Transport.
class ThreadNode final : public Node {
 public:
  ThreadNode(Cluster& cluster, int id);

 private:
  void send(net::Message msg) override;
  net::Mailbox& reply_box() override;
  std::byte* frame_bytes(PageId p, Frame& f) override;
  void fill_frame(PageId p, Frame& f, std::vector<std::byte> data) override;
  void copy_out(PageId p, Frame* f, std::size_t off, std::byte* out,
                std::size_t n) override;
  void copy_in(PageId p, Frame* f, std::size_t off, const std::byte* in,
               std::size_t n) override;

  Cluster& cluster_;
};

/// Typed view over a shared allocation; element i lives at
/// base + i * sizeof(T).  Elements may straddle page boundaries; Node's
/// byte-level access handles that.
template <typename T>
class SharedArray {
 public:
  static_assert(std::is_trivially_copyable_v<T>);
  SharedArray() = default;
  SharedArray(GlobalAddr base, std::size_t count) : base_(base), count_(count) {}

  GlobalAddr addr(std::size_t i) const noexcept { return base_ + i * sizeof(T); }
  std::size_t size() const noexcept { return count_; }

  T get(Node& node, std::size_t i) const { return node.read<T>(addr(i)); }
  void put(Node& node, std::size_t i, const T& v) const { node.write(addr(i), v); }

  /// Bulk helpers for contiguous ranges.
  void get_range(Node& node, std::size_t first, std::size_t n, T* out) const {
    node.read_bytes(addr(first), reinterpret_cast<std::byte*>(out), n * sizeof(T));
  }
  void put_range(Node& node, std::size_t first, std::size_t n, const T* in) const {
    node.write_bytes(addr(first), reinterpret_cast<const std::byte*>(in),
                     n * sizeof(T));
  }

 private:
  GlobalAddr base_ = 0;
  std::size_t count_ = 0;
};

}  // namespace gdsm::dsm
