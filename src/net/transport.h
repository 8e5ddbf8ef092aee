// In-process cluster interconnect with per-message accounting.
//
// Every node owns two mailboxes: a *service* box (incoming protocol
// requests, drained by the node's service thread — the stand-in for
// JIAJIA's SIGIO handler) and a *reply* box (responses to the node's own
// blocking requests, drained by its application thread).  Statistics mirror
// what would cross a real 100 Mbps Ethernet and drive the simulator's
// calibration.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/fault.h"
#include "net/mailbox.h"
#include "net/message.h"

namespace gdsm::net {

/// Message/byte counters per message type, snapshot-able.
struct TrafficCounters {
  std::array<std::uint64_t, kNumMsgTypes> messages{};
  std::array<std::uint64_t, kNumMsgTypes> bytes{};

  std::uint64_t total_messages() const noexcept;
  std::uint64_t total_bytes() const noexcept;
  TrafficCounters& operator+=(const TrafficCounters& other) noexcept;
};

class Transport {
 public:
  /// A transport with an enabled `faults` plan simulates the plan's network
  /// misbehaviour (see net/fault.h) while still guaranteeing exactly-once,
  /// per-flow-FIFO delivery; a default plan adds zero overhead.
  explicit Transport(int n_nodes, FaultPlan faults = {});
  ~Transport();

  int nodes() const noexcept { return n_nodes_; }

  /// Routes `msg` to the destination's service or reply box and records the
  /// traffic against the *source* node.  Under an enabled fault plan the
  /// delivery may be delayed/reordered across flows by the injector.
  void send(Message msg);

  /// Everything the fault layer absorbed so far (all zeros when disabled).
  FaultCounters fault_counters() const;

  /// Blocks until every in-flight (delayed) message has been delivered.
  /// SPMD runners call this after joining their program threads so no
  /// delayed fire-and-forget message can leak into a later run.
  void quiesce();

  Mailbox& service_box(int node) { return boxes_[node]->service; }
  Mailbox& reply_box(int node) { return boxes_[node]->reply; }

  /// Closes every mailbox (service loops see nullopt and exit).
  void shutdown();

  /// Closes every *reply* box only: application threads blocked in a
  /// request see the close and throw, while the service threads (which
  /// drain the service boxes) keep running.  This is how a failed SPMD
  /// program unwinds its peers without poisoning a persistent cluster.
  void abort_requests();

  /// Undoes abort_requests(): discards any reply that raced the abort
  /// (request ids are never reused, so a survivor could only ever be
  /// dropped as stale) and re-arms the reply boxes for the next program.
  void reset_reply_boxes();

  /// Per-source-node traffic snapshot.
  TrafficCounters counters(int node) const;
  TrafficCounters total_counters() const;
  /// Snapshot of every node's counters at once (index = source node) — the
  /// hook the observability layer (src/obs) serializes into run reports.
  std::vector<TrafficCounters> per_node_counters() const;

 private:
  struct NodeBoxes {
    Mailbox service;
    Mailbox reply;
    std::array<std::atomic<std::uint64_t>, kNumMsgTypes> sent_messages{};
    std::array<std::atomic<std::uint64_t>, kNumMsgTypes> sent_bytes{};
  };
  void deliver(Message msg);  ///< the actual mailbox push

  int n_nodes_;
  FaultPlan fault_plan_;
  std::vector<std::unique_ptr<NodeBoxes>> boxes_;
  std::unique_ptr<FaultInjector> injector_;  ///< null when the plan is off
};

}  // namespace gdsm::net
