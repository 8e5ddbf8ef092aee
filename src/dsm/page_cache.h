// Per-node cache of remote pages with LRU replacement.
//
// A node's cache is touched only by that node's application thread, so no
// internal locking is needed; coherence actions arrive as write notices that
// the application thread itself applies at acquire/barrier time (scope
// consistency makes this sound).
#pragma once

#include <cstddef>
#include <list>
#include <set>
#include <unordered_map>
#include <vector>

#include "dsm/global_space.h"

namespace gdsm::dsm {

/// One cached remote page.  `twin` holds a pristine copy made at the first
/// write after (re)validation, enabling the multiple-writer diff.
struct Frame {
  std::vector<std::byte> data;  ///< page bytes (thread backend; the process
                                ///< backend keeps them in a mapped slot)
  std::vector<std::byte> twin;  ///< empty while the frame is clean
  bool dirty = false;
};

class PageCache {
 public:
  explicit PageCache(std::size_t capacity_pages)
      : capacity_(capacity_pages ? capacity_pages : 1) {}

  /// Returns the frame for `p`, or nullptr on a miss.  Refreshes LRU order.
  Frame* lookup(PageId p);

  /// Membership test that does NOT refresh LRU order (the bulk-fetch
  /// planner probes candidate pages without marking them recently used).
  bool contains(PageId p) const { return map_.count(p) != 0; }

  /// Inserts a page (must not be present).  If at capacity, evicts the least
  /// recently used frame first and reports it via `evicted` so the caller
  /// can flush a dirty victim home.  Returns the new frame.
  struct Evicted {
    PageId page = 0;
    Frame frame;
    bool valid = false;
  };
  Frame* insert(PageId p, std::vector<std::byte> data, Evicted* evicted);

  /// Drops a page (invalidation).  Returns true if it was present.
  bool erase(PageId p);

  /// Drops every frame except *clean* frames of pages in `keep` (the
  /// persistent cluster's end-of-job sweep: resident read-only data stays
  /// warm, everything else reverts to the cold-cache semantics of a fresh
  /// node).  Returns the pages dropped.
  std::vector<PageId> retain_only(const std::set<PageId>& keep);

  /// All dirty page ids, in no particular order.
  std::vector<PageId> dirty_pages() const;

  std::size_t size() const noexcept { return map_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Entry {
    Frame frame;
    std::list<PageId>::iterator lru_it;
  };
  std::size_t capacity_;
  std::list<PageId> lru_;  // front = most recent
  std::unordered_map<PageId, Entry> map_;
};

}  // namespace gdsm::dsm
