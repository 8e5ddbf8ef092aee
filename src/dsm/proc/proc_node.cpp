// ProcNode: the fault-trapped node of the process backend.
//
// The protocol is dsm::Node's (src/dsm/node.cpp), shared with the thread
// backend, so the two stay bit-identical and stats-identical by
// construction.  What is here is the *mechanism*: access detection is the
// MMU (mprotect + SIGSEGV) instead of explicit cache lookups, and page
// contents live in a mapped cache region instead of per-frame vectors.
#include "dsm/proc/proc_node.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace gdsm::dsm::proc {

ProcNode::ProcNode(int id, int n_nodes, const DsmConfig& cfg,
                   GlobalSpace& space, Plane& plane)
    : Node(id, n_nodes, cfg, space), plane_(plane) {
  if (!space.placed()) {
    throw std::logic_error("ProcNode: requires a placed (shm) GlobalSpace");
  }
  const auto sys = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  slot_stride_ = ((page_bytes_ + sys - 1) / sys) * sys;
  cache_span_ = space.max_pages() * slot_stride_;
  // PROT_NONE + NORESERVE: pure address space until a page is installed, so
  // even a tiny-DSM-page configuration (whose slots are padded to the OS
  // page) costs nothing per untouched slot.
  void* base = ::mmap(nullptr, cache_span_, PROT_NONE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (base == MAP_FAILED) {
    throw std::system_error(errno, std::generic_category(),
                            "ProcNode: mmap cache region");
  }
  cache_base_ = static_cast<std::byte*>(base);
}

ProcNode::~ProcNode() {
  if (cache_base_ != nullptr) ::munmap(cache_base_, cache_span_);
}

void ProcNode::protect(PageId p, int prot) const {
  if (::mprotect(slot(p), slot_stride_, prot) != 0) {
    throw std::system_error(errno, std::generic_category(),
                            "ProcNode: mprotect");
  }
}

std::byte* ProcNode::frame_bytes(PageId p, Frame& /*f*/) { return slot(p); }

void ProcNode::fill_frame(PageId p, Frame& /*f*/,
                          std::vector<std::byte> data) {
  protect(p, PROT_READ | PROT_WRITE);
  std::memcpy(slot(p), data.data(), page_bytes_);
  protect(p, PROT_READ);
  ++stats_.pages_mapped;
}

void ProcNode::frame_dropped(PageId p) {
  protect(p, PROT_NONE);  // the next touch faults and re-fetches
  ++stats_.pages_protected;
}

void ProcNode::frame_cleaned(PageId p) {
  protect(p, PROT_READ);  // next-interval writes must fault again
}

void ProcNode::copy_out(PageId p, Frame* /*f*/, std::size_t off,
                        std::byte* out, std::size_t n) {
  guarded_copy(out, slot(p) + off, n);  // faults when uncached
}

void ProcNode::copy_in(PageId p, Frame* /*f*/, std::size_t off,
                       const std::byte* in, std::size_t n) {
  // Faults once on a clean cached page (twin), twice on an uncached one
  // (fetch, then twin) — JIAJIA's actual write-detection sequence.
  guarded_copy(slot(p) + off, in, n);
}

void ProcNode::guarded_copy(std::byte* dst, const std::byte* src,
                            std::size_t n) {
  if (sigsetjmp(fault_jmp_, 0) != 0) {
    set_thread_fault_sink(this);
    throw std::runtime_error(std::move(fault_error_));
  }
  fault_jmp_armed_ = true;
  std::memcpy(dst, src, n);
  fault_jmp_armed_ = false;
}

bool ProcNode::on_fault(void* addr) {
  auto* b = static_cast<std::byte*>(addr);
  if (b < cache_base_ || b >= cache_base_ + cache_span_) return false;
  ++stats_.segv_faults;
  const PageId p = static_cast<PageId>(b - cache_base_) / slot_stride_;
  try {
    Frame* f = cache_.lookup(p);
    if (f == nullptr) {
      // First touch of an uncached page: demand-fetch and install read-only.
      // A write access re-faults immediately (the double-fault scheme).
      fetch_page(p);
      return true;
    }
    if (!f->dirty) {
      // First write to a clean page: twin for the multiple-writer diff.
      make_twin(p, *f);
      ++stats_.twins_created;
      protect(p, PROT_READ | PROT_WRITE);
      return true;
    }
    return false;  // fault on a writable slot: a genuine wild access
  } catch (const std::exception& e) {
    fault_error_ = e.what();
  } catch (...) {
    fault_error_ = "unknown exception";
  }
  // The fetch could not complete (typically: reply box closed by a job
  // abort).  A C++ throw cannot unwind through the kernel signal frame, so
  // jump back to the recovery point armed around the faulting memcpy.
  if (fault_jmp_armed_) {
    fault_jmp_armed_ = false;
    siglongjmp(fault_jmp_, 1);
  }
  return false;
}

}  // namespace gdsm::dsm::proc
