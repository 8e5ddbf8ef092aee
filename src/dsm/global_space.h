// The cluster-wide shared address space: pages with home nodes.
//
// "Shared memory is distributed among the nodes on a NUMA-architecture
// basis.  Each shared page has a home node.  A page is always present in its
// home node" (Section 3.1).  The home copy lives here; remote nodes cache
// copies in their PageCache.
//
// Two storage modes, selected by DsmConfig::backend:
//
//   heap (threads): pages are heap blocks in a deque, grown on demand —
//   everything lives in one process.
//
//   placed (process): the home copies live in a fixed-capacity
//   shm_open+mmap data segment and the page table (home ids, page count,
//   the cluster-wide request-id counter) in a second shm control segment,
//   both created before any node process forks so every process inherits
//   the same MAP_SHARED views.  tmpfs backs the segments lazily, so the
//   capacity (DsmConfig::proc_space_bytes) costs address space only.
//
// Page lifecycle, identical in both modes: pages from alloc()/alloc_striped()
// are *resident* and live as long as the space.  Pages a single job uses as
// scratch come from a Scratch holder; once released they park in a free
// pool (address-ordered, adjacent runs coalesced) and every later
// allocation takes from the pool before growing the space.  A reused page
// gets the requested homes and reads zero, exactly like a fresh one.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "dsm/config.h"

namespace gdsm::dsm {

/// Byte address in the shared space.  Address 0 is reserved as "null".
using GlobalAddr = std::uint64_t;
using PageId = std::uint64_t;

class Scratch;

class GlobalSpace {
 public:
  GlobalSpace(int n_nodes, const DsmConfig& cfg);
  ~GlobalSpace();
  GlobalSpace(const GlobalSpace&) = delete;
  GlobalSpace& operator=(const GlobalSpace&) = delete;

  /// Allocates `bytes` rounded up to whole pages, zero-filled and resident
  /// for the lifetime of the space.  All pages of one call are homed on the
  /// same node (JIAJIA's jia_alloc semantics): `home` if given, otherwise
  /// the next node in a round-robin cycle.
  GlobalAddr alloc(std::size_t bytes, int home = -1);

  /// Allocates with pages homed round-robin page-by-page, the layout the
  /// strategies use to spread border arrays over their writers.
  GlobalAddr alloc_striped(std::size_t bytes, int first_home = 0);

  std::size_t page_bytes() const noexcept { return page_bytes_; }
  PageId page_of(GlobalAddr a) const noexcept { return a / page_bytes_; }
  std::size_t offset_in_page(GlobalAddr a) const noexcept { return a % page_bytes_; }
  /// Pages ever allocated, page 0 and pooled pages included.
  std::size_t num_pages() const;

  /// Released scratch pages parked in the free pool (part of num_pages()).
  std::size_t free_pages() const;

  /// True while the page belongs to a Scratch holder or sits in the pool:
  /// such a page must never be retained (its frames would outlive its job).
  bool scratch_page(PageId p) const;

  /// Snapshot of the home-page distribution: element i = pages currently
  /// homed on node i (reflects home migration; src/obs report hook).
  std::vector<std::size_t> pages_per_node() const;

  /// True when the page id maps to an allocated page.
  bool valid_page(PageId p) const;

  int home_of(PageId p) const;

  /// Reassigns a page's home (home migration).  Only safe at a global
  /// synchronization point where no application thread is touching shared
  /// data (the barrier manager calls this between BARR and BARRGRANT).
  void set_home(PageId p, int home);

  /// Home storage of a page; callers must hold the page mutex while home
  /// data can be concurrently touched (home application thread vs. diffs
  /// arriving at the home's service thread).
  std::byte* home_data(PageId p);
  std::mutex& page_mutex(PageId p);

  /// True in the shm-backed mode of the process backend.
  bool placed() const noexcept { return placed_; }

  /// Upper page bound of the placed mode (0 in heap mode).
  std::size_t max_pages() const noexcept { return max_pages_; }

  /// The cluster-wide request-id source: ids stay unique across nodes AND
  /// across jobs, so a stale reply can never match a later request.  Placed
  /// mode hosts it in the shm control segment so ids stay unique across
  /// node *processes*.
  std::atomic<std::uint64_t>& request_ids() noexcept {
    return placed_ ? header_->request_ids : heap_request_ids_;
  }

 private:
  struct Page {
    int home;
    std::unique_ptr<std::byte[]> data;
    std::mutex mu;
  };

  friend class Scratch;

  /// A contiguous page range handed out by one allocation.
  struct Run {
    PageId first;
    std::size_t pages;
  };

  /// The one allocation path: pooled pages first, fresh ones otherwise.
  /// Homes run `home + k * stride` (mod nodes); the pages read zero.
  Run allocate(std::size_t bytes, int home, int stride, bool scratch);
  /// Returns scratch runs to the pool; their pages must be in no cache.
  void release(const std::vector<Run>& runs);
  /// Best-fit take of `n_pages` from the pool; alloc_mu_ held.
  bool take_pooled(std::size_t n_pages, PageId& first);

  /// Head of the placed control segment; homes[] follows it.
  struct PlacedHeader {
    std::atomic<std::uint64_t> n_pages;
    std::atomic<std::uint64_t> request_ids;
  };

  PageId place_pages(std::size_t n_pages);
  void set_run_homes(PageId first, std::size_t n_pages, int home, int stride);

  int n_nodes_;
  std::size_t page_bytes_;
  mutable std::mutex alloc_mu_;
  int next_home_ = 0;
  std::deque<Page> pages_;  // deque: stable element addresses as it grows
  std::map<PageId, std::size_t> free_runs_;  ///< first page -> run length
  std::size_t free_pages_ = 0;
  std::vector<bool> scratch_;  ///< per page: scratch-owned or pooled
  std::atomic<std::uint64_t> heap_request_ids_{0};

  // -- placed mode ---------------------------------------------------------
  bool placed_ = false;
  std::size_t max_pages_ = 0;
  std::byte* data_ = nullptr;            ///< shm data segment
  PlacedHeader* header_ = nullptr;       ///< shm control segment
  std::atomic<std::int32_t>* homes_ = nullptr;  ///< follows header_
  /// Page mutexes are per-process in placed mode: page p's home data is only
  /// ever touched from the process of home_of(p) (plus the parent's
  /// between-jobs host_write), so cross-process mutexes are unnecessary.
  static constexpr std::size_t kMutexShards = 256;
  std::unique_ptr<std::mutex[]> shards_;
};

/// Job-scoped global memory: the pages one job uses as scratch (the
/// strategies' border rows and slots).  Allocates like
/// GlobalSpace::alloc; release() hands every page back to the space's free
/// pool.  Cluster::submit takes a holder over and releases it only after
/// the job's end-of-job cache sweep, so no node can still cache a frame of
/// a reused page; a holder that is never submitted releases on destruction.
/// Must not outlive its GlobalSpace.
class Scratch {
 public:
  Scratch() = default;
  explicit Scratch(GlobalSpace& space) : space_(&space) {}
  ~Scratch() { release(); }
  Scratch(Scratch&& other) noexcept
      : space_(other.space_), runs_(std::move(other.runs_)) {
    other.runs_.clear();
  }
  Scratch& operator=(Scratch&& other) noexcept {
    if (this != &other) {
      release();
      space_ = other.space_;
      runs_ = std::move(other.runs_);
      other.runs_.clear();
    }
    return *this;
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  /// Zero-filled pages homed like GlobalSpace::alloc, owned by this holder.
  GlobalAddr alloc(std::size_t bytes, int home = -1);

  /// Returns every page held to the pool.  Only legal once no running or
  /// queued job can touch them.
  void release();

 private:
  GlobalSpace* space_ = nullptr;
  std::vector<GlobalSpace::Run> runs_;
};

}  // namespace gdsm::dsm
