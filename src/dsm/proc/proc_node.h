// The process backend's application-side node: JIAJIA's actual mechanism.
//
// The protocol itself is dsm::Node's, shared with the thread backend; what
// ProcNode adds is where page bytes live and how access is detected.  It
// maps a *cache region* — one PROT_NONE slot per possible page id — and
// lets the MMU detect access:
//
//   read of an uncached page   -> SIGSEGV -> fetch from home, install
//                                 PROT_READ (fetch-on-fault)
//   first write to a clean page-> SIGSEGV -> copy the twin, upgrade to
//                                 PROT_READ|PROT_WRITE (twin-on-first-write)
//   release (unlock/barrier/cv)-> diff page vs twin, ship to home, downgrade
//                                 back to PROT_READ
//   write notice at acquire    -> downgrade to PROT_NONE (invalidate)
//
// A cold write faults twice (fetch, then twin), which is the thread
// backend's one read fault plus one write fault.  Pages homed at this node
// are not trapped at all: they live in the shm data segment (GlobalSpace
// placed mode) and are read/written directly under the page mutex.
#pragma once

#include <setjmp.h>

#include <string>
#include <vector>

#include "dsm/config.h"
#include "dsm/global_space.h"
#include "dsm/node.h"
#include "dsm/proc/fault.h"
#include "net/mailbox.h"
#include "net/message.h"

namespace gdsm::dsm::proc {

/// The per-process communication surface ProcNode sends and receives
/// through: the supervisor's router in the parent, a framed socket to the
/// supervisor in a child (src/dsm/proc/supervisor.cpp implements both).
class Plane {
 public:
  virtual ~Plane() = default;
  virtual void send(net::Message msg) = 0;
  virtual net::Mailbox& reply_box() = 0;
};

class ProcNode final : public Node, public FaultSink {
 public:
  ProcNode(int id, int n_nodes, const DsmConfig& cfg, GlobalSpace& space,
           Plane& plane);
  ~ProcNode() override;

  /// FaultSink: resolves a fault inside the cache region (fetch or twin).
  bool on_fault(void* addr) override;

 private:
  /// Cache slot of page p.  Slots are laid out at `slot_stride_` — the DSM
  /// page size rounded up to the OS page size — because mprotect granularity
  /// is the OS page even when the cluster runs sub-4K DSM pages.
  std::byte* slot(PageId p) const noexcept {
    return cache_base_ + p * slot_stride_;
  }
  void protect(PageId p, int prot) const;

  void send(net::Message msg) override { plane_.send(std::move(msg)); }
  net::Mailbox& reply_box() override { return plane_.reply_box(); }
  std::byte* frame_bytes(PageId p, Frame& f) override;
  void fill_frame(PageId p, Frame& f, std::vector<std::byte> data) override;
  void frame_dropped(PageId p) override;
  void frame_cleaned(PageId p) override;
  void copy_out(PageId p, Frame* f, std::size_t off, std::byte* out,
                std::size_t n) override;
  void copy_in(PageId p, Frame* f, std::size_t off, const std::byte* in,
               std::size_t n) override;
  /// The faulting memcpy of copy_out/copy_in, with the escape hatch armed.
  void guarded_copy(std::byte* dst, const std::byte* src, std::size_t n);

  Plane& plane_;
  std::size_t slot_stride_ = 0;  ///< page_bytes_ rounded up to the OS page
  std::byte* cache_base_ = nullptr;  ///< PROT_NONE anonymous region
  std::size_t cache_span_ = 0;       ///< max_pages * slot_stride_

  // -- fault-escape machinery (application thread only) ---------------------
  /// Armed around each potentially-faulting memcpy; when the fault handler
  /// cannot resolve (reply box closed by an abort), it records the error
  /// here and siglongjmps back so the access loop can throw normally —
  /// C++ exceptions cannot unwind through a kernel signal frame.
  sigjmp_buf fault_jmp_;
  bool fault_jmp_armed_ = false;
  std::string fault_error_;
};

}  // namespace gdsm::dsm::proc
