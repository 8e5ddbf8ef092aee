// The deterministic fault-injection layer: plan parsing, the transport
// invariants it must preserve (exactly-once, per-flow FIFO), the DSM retry
// path it exercises, and the multi-node failure aggregation of Cluster::run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "backends.h"
#include "core/blocked.h"
#include "dsm/cluster.h"
#include "net/fault.h"
#include "net/transport.h"
#include "sw/heuristic_scan.h"
#include "testing/oracle.h"

namespace gdsm {
namespace {

using net::FaultPlan;

FaultPlan chaos_plan(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.drop_rate = 0.15;
  plan.retry_backoff_us = 50;
  plan.delay_rate = 0.3;
  plan.delay_max_us = 150;
  plan.reorder_rate = 0.2;
  plan.reorder_hold_us = 200;
  plan.duplicate_rate = 0.2;
  return plan;
}

TEST(FaultPlanTest, DefaultPlanIsDisabledAndRendersNone) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  EXPECT_EQ(plan.to_string(), "none");
  EXPECT_EQ(FaultPlan::parse("none"), plan);
  EXPECT_EQ(FaultPlan::parse(""), plan);
}

TEST(FaultPlanTest, ToStringParseRoundTrips) {
  FaultPlan plan = chaos_plan(99);
  plan.partitions.push_back(net::PartitionWindow{2, 5, 25});
  plan.partitions.push_back(net::PartitionWindow{0, 40, 45});
  const FaultPlan reparsed = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(reparsed, plan);
  // And the canonical form is a fixpoint.
  EXPECT_EQ(reparsed.to_string(), plan.to_string());
}

TEST(FaultPlanTest, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("drop"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("drop=zzz"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("nonsense=1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("drop=1.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("part=1@9"), std::invalid_argument);
}

TEST(FaultInjectionTest, EveryMessageDeliveredExactlyOnce) {
  net::Transport transport(2, chaos_plan(7));
  constexpr int kMessages = 300;
  for (int k = 0; k < kMessages; ++k) {
    net::Message msg;
    msg.src = 0;
    msg.dst = 1;
    msg.type = net::MsgType::kUserData;
    msg.a = static_cast<std::uint64_t>(k);
    transport.send(std::move(msg));
  }
  transport.quiesce();
  for (int k = 0; k < kMessages; ++k) {
    auto msg = transport.service_box(1).pop();
    ASSERT_TRUE(msg.has_value()) << "message " << k << " never arrived";
    // Per-flow FIFO: one (src, dst) flow must come out in submission order
    // regardless of the delays individual messages picked up.
    EXPECT_EQ(msg->a, static_cast<std::uint64_t>(k));
  }
}

TEST(FaultInjectionTest, PerFlowFifoSurvivesConcurrentSenders) {
  net::Transport transport(4, chaos_plan(21));
  constexpr int kPerSender = 150;
  std::vector<std::thread> senders;
  for (int src = 0; src < 3; ++src) {
    senders.emplace_back([&, src] {
      for (int k = 0; k < kPerSender; ++k) {
        net::Message msg;
        msg.src = src;
        msg.dst = 3;
        msg.type = net::MsgType::kUserData;
        msg.a = static_cast<std::uint64_t>(k);
        transport.send(std::move(msg));
      }
    });
  }
  for (auto& t : senders) t.join();
  transport.quiesce();

  std::vector<std::uint64_t> next(3, 0);
  for (int k = 0; k < 3 * kPerSender; ++k) {
    auto msg = transport.service_box(3).pop();
    ASSERT_TRUE(msg.has_value());
    ASSERT_GE(msg->src, 0);
    ASSERT_LT(msg->src, 3);
    EXPECT_EQ(msg->a, next[static_cast<std::size_t>(msg->src)])
        << "flow " << msg->src << " reordered";
    ++next[static_cast<std::size_t>(msg->src)];
  }
}

TEST(FaultInjectionTest, DecisionChainsAreDeterministic) {
  // Two transports fed the identical message sequence under the same plan
  // must absorb the identical faults — that is the replay guarantee
  // fuzz_align's repro lines depend on.
  const auto run_once = [] {
    net::Transport transport(3, chaos_plan(1234));
    for (int k = 0; k < 400; ++k) {
      net::Message msg;
      msg.src = k % 3;
      msg.dst = (k + 1) % 3;
      msg.type = (k % 2) ? net::MsgType::kUserData : net::MsgType::kGetPage;
      msg.a = static_cast<std::uint64_t>(k);
      transport.send(std::move(msg));
    }
    transport.quiesce();
    return transport.fault_counters();
  };
  const net::FaultCounters a = run_once();
  const net::FaultCounters b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_GT(a.total(), 0u) << "plan injected nothing; the test is vacuous";
}

TEST(FaultInjectionTest, DifferentSeedsChangeTheFaultPattern) {
  const auto counters_for = [](std::uint64_t seed) {
    net::Transport transport(2, chaos_plan(seed));
    for (int k = 0; k < 400; ++k) {
      net::Message msg;
      msg.src = 0;
      msg.dst = 1;
      msg.type = net::MsgType::kUserData;
      transport.send(std::move(msg));
    }
    transport.quiesce();
    return transport.fault_counters();
  };
  EXPECT_NE(counters_for(1), counters_for(2));
}

TEST(FaultInjectionTest, PartitionWindowStallsAndCounts) {
  FaultPlan plan;
  plan.seed = 5;
  plan.partitions.push_back(net::PartitionWindow{1, 0, 20});
  net::Transport transport(2, plan);
  ASSERT_TRUE(plan.enabled());
  net::Message msg;
  msg.src = 0;
  msg.dst = 1;
  msg.type = net::MsgType::kUserData;
  const auto t0 = std::chrono::steady_clock::now();
  transport.send(std::move(msg));
  auto got = transport.service_box(1).pop();
  const auto waited = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(got.has_value());
  EXPECT_GE(waited, std::chrono::milliseconds(5));
  EXPECT_EQ(transport.fault_counters().partition_stalls, 1u);
}

TEST(FaultInjectionTest, DsmRunUnderChaosStaysCorrect) {
  dsm::DsmConfig cfg;
  cfg.page_bytes = 256;
  cfg.faults = chaos_plan(3);
  cfg.retry.timeout_us = 1500;  // exercise the reply-timeout path too
  dsm::Cluster cluster(4, cfg);
  const dsm::GlobalAddr counter = cluster.alloc(sizeof(std::int64_t));

  constexpr int kIncrements = 25;
  cluster.run([&](dsm::Node& node) {
    node.barrier();
    for (int k = 0; k < kIncrements; ++k) {
      node.lock(0);
      node.write<std::int64_t>(counter,
                               node.read<std::int64_t>(counter) + 1);
      node.unlock(0);
    }
    node.barrier();
  });

  std::int64_t total = 0;
  cluster.run([&](dsm::Node& node) {
    if (node.id() == 0) total = node.read<std::int64_t>(counter);
  });
  EXPECT_EQ(total, 4 * kIncrements);
  const dsm::DsmStats stats = cluster.stats();
  EXPECT_GT(stats.faults.total(), 0u) << "no faults fired; raise the rates";
}

TEST(FaultInjectionTest, RetryLayerRetransmitsIdempotentRequests) {
  // A partitioned home node makes page fetches exceed the tiny timeout, so
  // the requester must retransmit and then discard the stale duplicates.
  dsm::DsmConfig cfg;
  cfg.page_bytes = 128;
  cfg.faults.seed = 11;
  cfg.faults.partitions.push_back(net::PartitionWindow{0, 0, 15});
  cfg.retry.timeout_us = 500;
  cfg.retry.max_retries = 4;
  cfg.retry.backoff_us = 200;
  dsm::Cluster cluster(2, cfg);
  const dsm::GlobalAddr addr = cluster.alloc(64, /*home=*/0);

  cluster.run([&](dsm::Node& node) {
    if (node.id() == 1) {
      // This page fetch lands inside the partition window, so the reply
      // overshoots the 500us timeout and the request must be retransmitted.
      EXPECT_EQ(node.read<std::int32_t>(addr), 0);
    }
    node.barrier();
    if (node.id() == 0) node.write<std::int32_t>(addr, 41);
    node.barrier();
    EXPECT_EQ(node.read<std::int32_t>(addr), 41);
    node.barrier();
  });

  const dsm::NodeStats totals = cluster.stats().total_node();
  EXPECT_GT(totals.request_timeouts, 0u);
  EXPECT_GT(totals.request_retries, 0u);
}

TEST(FaultInjectionTest, BatchedPlaneSurvivesChaosWithCountersLive) {
  // The coalesced data plane (diff batches, bulk fetches) under
  // drops/delays/reorders/duplicates: kDiffBatch and kGetPages are
  // idempotent, so retransmits and duplicate replies must be harmless.
  dsm::DsmConfig cfg;
  cfg.page_bytes = 128;
  cfg.faults = chaos_plan(9);
  cfg.retry.timeout_us = 1500;
  constexpr int kPages = 12;
  dsm::Cluster cluster(2, cfg);
  const dsm::GlobalAddr arr = cluster.alloc(kPages * 128, /*home=*/0);

  std::atomic<int> mismatches{0};
  cluster.run([&](dsm::Node& node) {
    if (node.id() == 1) {
      // Dirty every page so the release ships one multi-page diff batch.
      for (int pgi = 0; pgi < kPages; ++pgi) {
        node.write<int>(arr + static_cast<dsm::GlobalAddr>(pgi) * 128,
                        pgi + 1);
      }
    }
    node.barrier();
    for (int pgi = 0; pgi < kPages; ++pgi) {
      if (node.read<int>(arr + static_cast<dsm::GlobalAddr>(pgi) * 128) !=
          pgi + 1) {
        ++mismatches;
      }
    }
    node.barrier();
  });
  EXPECT_EQ(mismatches, 0);
  const dsm::DsmStats stats = cluster.stats();
  EXPECT_GT(stats.node[1].diff_batches_sent, 0u);
  EXPECT_GT(stats.faults.total(), 0u) << "no faults fired; raise the rates";
}

TEST(FaultInjectionTest, OracleMatchesUnderEveryPlan) {
  // The acceptance matrix of the data plane: every standard fault plan
  // (drop/retry, reorder, delay, chaos+partition) plus a duplicate-heavy
  // plan.  The DSM-backed strategies must reproduce serial SW bit-for-bit.
  std::vector<net::FaultPlan> plans = testing::standard_fault_plans(31);
  net::FaultPlan duplicates;
  duplicates.seed = 35;
  duplicates.duplicate_rate = 0.4;
  plans.push_back(duplicates);

  for (const net::FaultPlan& plan : plans) {
    testing::OracleCase c;
    c.seed = 23;
    c.length_s = c.length_t = 256;
    c.n_regions = 2;
    c.nprocs = 2;
    c.retry.timeout_us = 2000;
    c.faults = plan;
    const testing::OracleVerdict v = testing::run_differential(
        c, testing::kWavefront | testing::kBlocked);
    EXPECT_TRUE(v.ok) << c.to_string() << "\n" << v.summary();
  }
}

TEST(FaultInjectionTest, LateRepliesAreDroppedAsStaleOnBothBackends) {
  // Replies delayed past a short timeout: the page fetch is resent, and
  // whichever reply of the pair comes second must be counted as stale and
  // dropped, never matched to a later request.  The blocked strategy still
  // reproduces serial heuristic_scan on either backend.  Its boundary pages
  // ride the cv grants, so the fetches here are of the subject, kept in
  // global memory as the service does but not retained: every query
  // faults it in cold.
  testing::OracleCase c;
  c.seed = 41;
  c.length_s = c.length_t = 256;
  c.n_regions = 2;
  const HomologousPair pair = c.make_pair();
  const std::vector<Candidate> reference =
      heuristic_scan(pair.s, pair.t, c.scheme, c.params);
  for (const dsm::Backend backend : dsm::testable_backends()) {
    SCOPED_TRACE(dsm::backend_name(backend));
    dsm::DsmConfig dsm_cfg;
    dsm_cfg.backend = backend;
    dsm_cfg.retry.timeout_us = 100;
    dsm_cfg.retry.max_retries = 3;
    dsm_cfg.retry.backoff_us = 50;
    dsm_cfg.faults.seed = 7;
    dsm_cfg.faults.delay_rate = 0.5;
    dsm_cfg.faults.delay_max_us = 1500;
    dsm::Cluster cluster(2, dsm_cfg);
    const std::size_t bytes = pair.t.size() * sizeof(Base);
    const dsm::GlobalAddr t_addr = cluster.alloc(bytes, /*home=*/0);
    cluster.host_write(t_addr, pair.t.data(), bytes);

    core::BlockedConfig cfg;
    cfg.nprocs = 2;
    cfg.scheme = c.scheme;
    cfg.params = c.params;
    cfg.cluster = &cluster;
    cfg.resident_t_addr = t_addr;
    cfg.resident_t_size = pair.t.size();
    dsm::NodeStats totals;
    for (int query = 0; query < 16; ++query) {
      const core::StrategyResult r = core::blocked_align(pair.s, pair.t, cfg);
      EXPECT_EQ(r.candidates, reference);
      totals += r.dsm_stats.total_node();
    }
    EXPECT_GT(totals.grant_pages, 0u);
    EXPECT_GT(totals.request_retries, 0u);
    EXPECT_GT(totals.stale_replies, 0u);
  }
}

TEST(ClusterFailureTest, SingleNodeFailureRethrowsOriginalType) {
  // Both backends rethrow the original type and message: a child process
  // ships a typed failure tag with the message, and the parent rebuilds the
  // exception from it.
  dsm::Cluster cluster(3);
  try {
    cluster.run([](dsm::Node& node) {
      if (node.id() == 1) throw std::invalid_argument("just me");
    });
    FAIL() << "run() should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("just me"), std::string::npos)
        << e.what();
  }
}

TEST(ClusterFailureTest, Node0FailureRethrowsOriginalTypeOnBothBackends) {
  // Node 0 runs in the host address space under both backends, so its
  // exception object is preserved end to end.
  dsm::Cluster cluster(3);
  EXPECT_THROW(cluster.run([](dsm::Node& node) {
                 if (node.id() == 0) throw std::invalid_argument("me first");
               }),
               std::invalid_argument);
}

TEST(ClusterFailureTest, MultiNodeFailureAggregatesEveryDiagnostic) {
  dsm::Cluster cluster(3);
  try {
    cluster.run([](dsm::Node& node) {
      throw std::runtime_error("boom from node " +
                               std::to_string(node.id()));
    });
    FAIL() << "run() should have thrown";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("3 node programs failed"), std::string::npos) << what;
    for (int n = 0; n < 3; ++n) {
      EXPECT_NE(what.find("boom from node " + std::to_string(n)),
                std::string::npos)
          << what;
    }
  }
}

TEST(MailboxTest, PopForDistinguishesTimeoutFromClose) {
  net::Mailbox box;
  bool closed = false;
  EXPECT_FALSE(
      box.pop_for(std::chrono::microseconds(1000), &closed).has_value());
  EXPECT_FALSE(closed);  // timed out, still open

  net::Message msg;
  msg.a = 77;
  box.push(std::move(msg));
  const auto got = box.pop_for(std::chrono::microseconds(1000), &closed);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->a, 77u);

  box.close();
  closed = false;
  EXPECT_FALSE(
      box.pop_for(std::chrono::microseconds(1000), &closed).has_value());
  EXPECT_TRUE(closed);
}

}  // namespace
}  // namespace gdsm
