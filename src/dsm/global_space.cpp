#include "dsm/global_space.h"

#include <fcntl.h>
#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>
#include <system_error>

namespace gdsm::dsm {

namespace {

/// Creates an anonymous-after-unlink shm segment and maps it MAP_SHARED.
/// Called before any fork, so every node process inherits the mapping at
/// the same address and no fd needs to survive.
void* map_shared_segment(const char* tag, std::size_t bytes) {
  static std::atomic<std::uint64_t> counter{0};
  const std::string name = "/gdsm-" + std::string(tag) + "-" +
                           std::to_string(::getpid()) + "-" +
                           std::to_string(counter.fetch_add(1));
  const int fd = ::shm_open(name.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
  if (fd < 0) {
    throw std::system_error(errno, std::generic_category(),
                            "GlobalSpace: shm_open " + name);
  }
  ::shm_unlink(name.c_str());  // the mapping keeps the segment alive
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::system_error(err, std::generic_category(),
                            "GlobalSpace: ftruncate shm segment");
  }
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (p == MAP_FAILED) {
    throw std::system_error(errno, std::generic_category(),
                            "GlobalSpace: mmap shm segment");
  }
  return p;
}

}  // namespace

GlobalSpace::GlobalSpace(int n_nodes, const DsmConfig& cfg)
    : n_nodes_(n_nodes), page_bytes_(cfg.page_bytes) {
  if (n_nodes <= 0) throw std::invalid_argument("GlobalSpace: need >= 1 node");
  if (page_bytes_ < 64) throw std::invalid_argument("GlobalSpace: page too small");
  if (cfg.backend == Backend::kProcess) {
    placed_ = true;
    max_pages_ = cfg.proc_space_bytes / page_bytes_;
    if (max_pages_ < 2) {
      throw std::invalid_argument(
          "GlobalSpace: proc_space_bytes below two pages");
    }
    data_ = static_cast<std::byte*>(
        map_shared_segment("data", max_pages_ * page_bytes_));
    const std::size_t ctrl_bytes =
        sizeof(PlacedHeader) + max_pages_ * sizeof(std::atomic<std::int32_t>);
    void* ctrl = map_shared_segment("ctrl", ctrl_bytes);
    // Placement-new over zeroed tmpfs memory; these types are trivially
    // destructible, so unmapping (or child _exit) is a clean teardown.
    header_ = new (ctrl) PlacedHeader;
    homes_ = new (static_cast<std::byte*>(ctrl) + sizeof(PlacedHeader))
        std::atomic<std::int32_t>[max_pages_];
    shards_ = std::make_unique<std::mutex[]>(kMutexShards);
    // Reserve page 0 so that GlobalAddr 0 can serve as a null address.
    homes_[0].store(0, std::memory_order_relaxed);
    header_->request_ids.store(0, std::memory_order_relaxed);
    header_->n_pages.store(1, std::memory_order_release);
    scratch_.assign(1, false);
    return;
  }
  // Reserve page 0 so that GlobalAddr 0 can serve as a null address.
  const std::scoped_lock lock(alloc_mu_);
  pages_.emplace_back();
  pages_.back().home = 0;
  pages_.back().data = std::make_unique<std::byte[]>(page_bytes_);
  scratch_.assign(1, false);
}

GlobalSpace::~GlobalSpace() {
  if (!placed_) return;
  ::munmap(data_, max_pages_ * page_bytes_);
  ::munmap(header_, sizeof(PlacedHeader) +
                        max_pages_ * sizeof(std::atomic<std::int32_t>));
}

PageId GlobalSpace::place_pages(std::size_t n_pages) {
  // alloc_mu_ held.  Allocation happens only in the parent process (node
  // programs route kAllocate to node 0, which the parent runs), so the
  // plain next_home_/mutex suffice; allocate() publishes the new page count
  // only after their homes[] entries are written.
  const std::uint64_t first = header_->n_pages.load(std::memory_order_relaxed);
  if (first + n_pages > max_pages_) {
    throw std::runtime_error(
        "GlobalSpace: shared space exhausted (" +
        std::to_string((first + n_pages) * page_bytes_) + " bytes needed, " +
        std::to_string(max_pages_ * page_bytes_) +
        " reserved; raise DsmConfig::proc_space_bytes)");
  }
  return first;
}

void GlobalSpace::set_run_homes(PageId first, std::size_t n_pages, int home,
                                int stride) {
  // alloc_mu_ held.
  for (std::size_t k = 0; k < n_pages; ++k) {
    const auto h = static_cast<int>(
        (static_cast<std::size_t>(home) + k * static_cast<std::size_t>(stride)) %
        static_cast<std::size_t>(n_nodes_));
    if (placed_) {
      homes_[first + k].store(h, std::memory_order_release);
    } else {
      pages_[first + k].home = h;
    }
  }
}

bool GlobalSpace::take_pooled(std::size_t n_pages, PageId& first) {
  // alloc_mu_ held.  Best fit keeps large runs whole for large requests.
  auto best = free_runs_.end();
  for (auto it = free_runs_.begin(); it != free_runs_.end(); ++it) {
    if (it->second < n_pages) continue;
    if (best == free_runs_.end() || it->second < best->second) best = it;
    if (it->second == n_pages) break;
  }
  if (best == free_runs_.end()) return false;
  first = best->first;
  const std::size_t rest = best->second - n_pages;
  free_runs_.erase(best);
  if (rest > 0) free_runs_.emplace(first + n_pages, rest);
  free_pages_ -= n_pages;
  return true;
}

GlobalSpace::Run GlobalSpace::allocate(std::size_t bytes, int home,
                                       int stride, bool scratch) {
  const std::size_t n_pages =
      bytes == 0 ? 1 : (bytes + page_bytes_ - 1) / page_bytes_;
  PageId first = 0;
  bool reused = false;
  std::vector<std::byte*> heap_pages;
  {
    const std::scoped_lock lock(alloc_mu_);
    if (home < 0) {
      home = next_home_;
      next_home_ = (next_home_ + 1) % n_nodes_;
    }
    if (home >= n_nodes_) throw std::invalid_argument("alloc: bad home node");
    reused = take_pooled(n_pages, first);
    if (!reused) {
      if (placed_) {
        first = place_pages(n_pages);
      } else {
        first = pages_.size();
        for (std::size_t k = 0; k < n_pages; ++k) {
          pages_.emplace_back();
          pages_.back().data =
              std::make_unique_for_overwrite<std::byte[]>(page_bytes_);
        }
      }
      scratch_.resize(first + n_pages);
    }
    // A pooled page may have migrated home during its last job.
    set_run_homes(first, n_pages, home, stride);
    if (placed_ && !reused) {
      header_->n_pages.store(first + n_pages, std::memory_order_release);
    }
    for (std::size_t k = 0; k < n_pages; ++k) scratch_[first + k] = scratch;
    if (!placed_) {
      heap_pages.reserve(n_pages);
      for (std::size_t k = 0; k < n_pages; ++k) {
        heap_pages.push_back(pages_[first + k].data.get());
      }
    }
  }
  // Zero once, outside alloc_mu_: home_data() takes that lock, so zeroing
  // under it would stall a running job's service threads.  Nobody else
  // holds these pages yet.  Fresh placed pages are untouched tmpfs, zero
  // already.
  if (placed_) {
    if (reused) {
      std::memset(data_ + first * page_bytes_, 0, n_pages * page_bytes_);
    }
  } else {
    for (std::byte* d : heap_pages) {
      ASAN_UNPOISON_MEMORY_REGION(d, page_bytes_);
      std::memset(d, 0, page_bytes_);
    }
  }
  return Run{first, n_pages};
}

GlobalAddr GlobalSpace::alloc(std::size_t bytes, int home) {
  return allocate(bytes, home, /*stride=*/0, /*scratch=*/false).first *
         page_bytes_;
}

GlobalAddr GlobalSpace::alloc_striped(std::size_t bytes, int first_home) {
  return allocate(bytes, first_home, /*stride=*/1, /*scratch=*/false).first *
         page_bytes_;
}

void GlobalSpace::release(const std::vector<Run>& runs) {
  const std::scoped_lock lock(alloc_mu_);
  for (const Run& r : runs) {
    // Under ASan, touching a pooled heap page is a use-after-poison report
    // until the next allocate() hands it out again.  (Placed pages are
    // shared with forked children, whose shadow memory would go stale.)
    if (!placed_) {
      for (std::size_t k = 0; k < r.pages; ++k) {
        ASAN_POISON_MEMORY_REGION(pages_[r.first + k].data.get(), page_bytes_);
      }
    }
    auto it = free_runs_.emplace(r.first, r.pages).first;
    free_pages_ += r.pages;
    // Coalesce with the address-adjacent neighbours so one large request
    // can reuse what several small ones released.
    const auto next = std::next(it);
    if (next != free_runs_.end() && it->first + it->second == next->first) {
      it->second += next->second;
      free_runs_.erase(next);
    }
    if (it != free_runs_.begin()) {
      const auto prev = std::prev(it);
      if (prev->first + prev->second == it->first) {
        prev->second += it->second;
        free_runs_.erase(it);
      }
    }
  }
}

std::size_t GlobalSpace::free_pages() const {
  const std::scoped_lock lock(alloc_mu_);
  return free_pages_;
}

bool GlobalSpace::scratch_page(PageId p) const {
  const std::scoped_lock lock(alloc_mu_);
  return p < scratch_.size() && scratch_[p];
}

std::size_t GlobalSpace::num_pages() const {
  if (placed_) return header_->n_pages.load(std::memory_order_acquire);
  const std::scoped_lock lock(alloc_mu_);
  return pages_.size();
}

std::vector<std::size_t> GlobalSpace::pages_per_node() const {
  std::vector<std::size_t> out(static_cast<std::size_t>(n_nodes_), 0);
  if (placed_) {
    const std::uint64_t n = header_->n_pages.load(std::memory_order_acquire);
    for (std::uint64_t p = 0; p < n; ++p) {
      const std::int32_t h = homes_[p].load(std::memory_order_relaxed);
      if (h >= 0) ++out[static_cast<std::size_t>(h)];
    }
    return out;
  }
  const std::scoped_lock lock(alloc_mu_);
  for (const Page& p : pages_) {
    if (p.home >= 0) ++out[static_cast<std::size_t>(p.home)];
  }
  return out;
}

bool GlobalSpace::valid_page(PageId p) const {
  if (placed_) {
    return p > 0 && p < header_->n_pages.load(std::memory_order_acquire);
  }
  const std::scoped_lock lock(alloc_mu_);
  return p > 0 && p < pages_.size();
}

int GlobalSpace::home_of(PageId p) const {
  if (placed_) {
    if (p >= header_->n_pages.load(std::memory_order_acquire)) {
      throw std::out_of_range("GlobalSpace: page id out of range");
    }
    return homes_[p].load(std::memory_order_acquire);
  }
  const std::scoped_lock lock(alloc_mu_);
  return pages_.at(p).home;
}

void GlobalSpace::set_home(PageId p, int home) {
  if (home < 0 || home >= n_nodes_) {
    throw std::invalid_argument("set_home: bad node id");
  }
  if (placed_) {
    if (p >= header_->n_pages.load(std::memory_order_acquire)) {
      throw std::out_of_range("GlobalSpace: page id out of range");
    }
    homes_[p].store(home, std::memory_order_release);
    return;
  }
  const std::scoped_lock lock(alloc_mu_);
  pages_.at(p).home = home;
}

std::byte* GlobalSpace::home_data(PageId p) {
  if (placed_) {
    if (p >= header_->n_pages.load(std::memory_order_acquire)) {
      throw std::out_of_range("GlobalSpace: page id out of range");
    }
    return data_ + p * page_bytes_;
  }
  const std::scoped_lock lock(alloc_mu_);
  return pages_.at(p).data.get();
}

std::mutex& GlobalSpace::page_mutex(PageId p) {
  if (placed_) return shards_[p % kMutexShards];
  const std::scoped_lock lock(alloc_mu_);
  return pages_.at(p).mu;
}

GlobalAddr Scratch::alloc(std::size_t bytes, int home) {
  if (space_ == nullptr) throw std::logic_error("Scratch: no space attached");
  runs_.reserve(runs_.size() + 1);  // a push_back throw would leak the run
  runs_.push_back(
      space_->allocate(bytes, home, /*stride=*/0, /*scratch=*/true));
  return runs_.back().first * space_->page_bytes();
}

void Scratch::release() {
  if (runs_.empty()) return;
  space_->release(runs_);
  runs_.clear();
}

}  // namespace gdsm::dsm
