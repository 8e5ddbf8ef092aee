#include "dsm/page_cache.h"

#include <cassert>
#include <utility>

namespace gdsm::dsm {

Frame* PageCache::lookup(PageId p) {
  const auto it = map_.find(p);
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return &it->second.frame;
}

Frame* PageCache::insert(PageId p, std::vector<std::byte> data, Evicted* evicted) {
  assert(map_.find(p) == map_.end());
  if (evicted != nullptr) evicted->valid = false;
  if (map_.size() >= capacity_) {
    const PageId victim = lru_.back();
    lru_.pop_back();
    auto vit = map_.find(victim);
    assert(vit != map_.end());
    if (evicted != nullptr) {
      evicted->page = victim;
      evicted->frame = std::move(vit->second.frame);
      evicted->valid = true;
    }
    map_.erase(vit);
  }
  lru_.push_front(p);
  Entry entry;
  entry.frame.data = std::move(data);
  entry.lru_it = lru_.begin();
  auto [it, inserted] = map_.emplace(p, std::move(entry));
  assert(inserted);
  return &it->second.frame;
}

bool PageCache::erase(PageId p) {
  const auto it = map_.find(p);
  if (it == map_.end()) return false;
  lru_.erase(it->second.lru_it);
  map_.erase(it);
  return true;
}

std::vector<PageId> PageCache::retain_only(const std::set<PageId>& keep) {
  std::vector<PageId> drop;
  for (const auto& [p, entry] : map_) {
    if (entry.frame.dirty || keep.count(p) == 0) drop.push_back(p);
  }
  for (PageId p : drop) erase(p);
  return drop;
}

std::vector<PageId> PageCache::dirty_pages() const {
  std::vector<PageId> out;
  for (const auto& [p, entry] : map_) {
    if (entry.frame.dirty) out.push_back(p);
  }
  return out;
}

}  // namespace gdsm::dsm
