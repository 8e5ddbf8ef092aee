// Process-backend tests (src/dsm/proc): explicit Backend::kProcess clusters
// regardless of GDSM_BACKEND, bit-identity against the thread backend and
// the serial reference, process-specific stats counters, space exhaustion,
// and — the no-hang guarantee — a child killed mid-run surfacing as a clean
// Cluster::run failure.
#include <gtest/gtest.h>

#include <csignal>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/blocked.h"
#include "core/wavefront.h"
#include "dsm/cluster.h"
#include "sw/heuristic_scan.h"
#include "testing/oracle.h"
#include "util/genome.h"

namespace gdsm::dsm {
namespace {

DsmConfig proc_cfg() {
  DsmConfig cfg;
  cfg.backend = Backend::kProcess;
  return cfg;
}

std::vector<int> read_back(Cluster& cluster, GlobalAddr base, std::size_t n) {
  std::vector<int> out(n, 0);
  cluster.run([&](Node& node) {
    if (node.id() == 0) {
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = node.read<int>(base + i * sizeof(int));
      }
    }
  });
  return out;
}

TEST(ProcBackend, GlobalSpaceRunsPlacedAndBoundsAllocations) {
  DsmConfig cfg = proc_cfg();
  cfg.page_bytes = 4096;
  cfg.proc_space_bytes = 16 * 4096;
  Cluster cluster(2, cfg);
  EXPECT_EQ(cluster.config().backend, Backend::kProcess);
  (void)cluster.alloc(8 * 4096, 0);  // fits
  EXPECT_THROW(cluster.alloc(16 * 4096, 0), std::runtime_error);
}

TEST(ProcBackend, LockCounterCoherentAcrossProcesses) {
  Cluster cluster(4, proc_cfg());
  const GlobalAddr counter = cluster.alloc(sizeof(int), /*home=*/3);
  constexpr int kIters = 20;
  cluster.run([&](Node& node) {
    for (int k = 0; k < kIters; ++k) {
      node.lock(5);
      node.write<int>(counter, node.read<int>(counter) + 1);
      node.unlock(5);
    }
    node.barrier();
  });
  EXPECT_EQ(read_back(cluster, counter, 1)[0], 4 * kIters);
}

TEST(ProcBackend, MultipleWriterDiffsMergeAtHome) {
  // Disjoint slices of one page written by every process: the SIGSEGV
  // twin/diff path must merge all writers without false sharing.
  Cluster cluster(4, proc_cfg());
  constexpr int kInts = 64;  // per node
  const GlobalAddr arr = cluster.alloc(4 * kInts * sizeof(int), /*home=*/0);
  cluster.run([&](Node& node) {
    for (int i = 0; i < kInts; ++i) {
      node.write<int>(arr + (node.id() * kInts + i) * sizeof(int),
                      node.id() * 1000 + i);
    }
    node.barrier();
  });
  const std::vector<int> all =
      read_back(cluster, arr, static_cast<std::size_t>(4 * kInts));
  for (int p = 0; p < 4; ++p) {
    for (int i = 0; i < kInts; ++i) {
      EXPECT_EQ(all[static_cast<std::size_t>(p * kInts + i)], p * 1000 + i);
    }
  }
}

TEST(ProcBackend, StatsCarryProcessCountersAndBackendTag) {
  Cluster cluster(2, proc_cfg());
  const GlobalAddr x = cluster.alloc(sizeof(int), /*home=*/0);
  cluster.run([&](Node& node) {
    if (node.id() == 1) node.write<int>(x, 9);  // child: fault + twin + diff
    node.barrier();
  });
  const DsmStats stats = cluster.stats();
  EXPECT_EQ(stats.backend, Backend::kProcess);
  const NodeStats& child = stats.node[1];
  EXPECT_GE(child.segv_faults, 2u);  // read fault + write upgrade
  EXPECT_GE(child.read_faults, 1u);
  EXPECT_GE(child.write_faults, 1u);
  EXPECT_GE(child.twins_created, 1u);
  EXPECT_GE(child.pages_mapped, 1u);
  EXPECT_GE(child.pages_protected, 1u);
  EXPECT_GE(child.diffs_sent, 1u);
  // Every child message crosses the parent's socket plane.
  EXPECT_GT(stats.node[0].socket_bytes_sent, 0u);
  EXPECT_GT(stats.node[0].socket_bytes_received, 0u);
  EXPECT_GT(child.socket_bytes_sent, 0u);
  EXPECT_EQ(stats.total_node().peer_failures, 0u);
}

TEST(ProcBackend, ThreadBackendStatsStayZeroForProcessCounters) {
  DsmConfig cfg;
  cfg.backend = Backend::kThreads;
  Cluster cluster(2, cfg);
  const GlobalAddr x = cluster.alloc(sizeof(int), /*home=*/0);
  cluster.run([&](Node& node) {
    if (node.id() == 1) node.write<int>(x, 9);
    node.barrier();
  });
  const DsmStats stats = cluster.stats();
  EXPECT_EQ(stats.backend, Backend::kThreads);
  EXPECT_EQ(stats.total_node().segv_faults, 0u);
  EXPECT_EQ(stats.total_node().twins_created, 0u);
  EXPECT_EQ(stats.total_node().socket_bytes_sent, 0u);
}

TEST(ProcBackend, WavefrontBitIdenticalToThreadsAndSerial) {
  testing::OracleCase c;
  c.seed = 20260808;
  c.length_s = 400;
  c.length_t = 400;
  c.n_regions = 3;
  const HomologousPair pair = c.make_pair();
  const std::vector<Candidate> serial =
      heuristic_scan(pair.s, pair.t, c.scheme, c.params);

  const auto run_with = [&](Backend backend) {
    core::WavefrontConfig cfg;
    cfg.nprocs = 4;
    cfg.scheme = c.scheme;
    cfg.params = c.params;
    cfg.dsm.backend = backend;
    return core::wavefront_align(pair.s, pair.t, cfg);
  };
  const core::StrategyResult threads = run_with(Backend::kThreads);
  const core::StrategyResult process = run_with(Backend::kProcess);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(threads.candidates, serial);
  EXPECT_EQ(process.candidates, serial);
  EXPECT_EQ(process.candidates, threads.candidates);
  EXPECT_EQ(process.dsm_stats.backend, Backend::kProcess);
}

TEST(ProcBackend, KilledChildSurfacesAsFailureNotHang) {
  // Node 2 kills its own process mid-job while the others sit in a barrier.
  // The supervisor must observe the socket EOF, count a peer failure, unwind
  // every blocked node and fail the job — with the default
  // RetryPolicy.timeout_us == 0 (wait forever), so only the peer-death path
  // can break the wait.
  Cluster cluster(3, proc_cfg());
  try {
    cluster.run([](Node& node) {
      if (node.id() == 2) {
        ::raise(SIGKILL);  // never returns: no kDone, just socket EOF
      }
      node.barrier();
    });
    FAIL() << "run() should have thrown";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("node process 2"), std::string::npos) << what;
    EXPECT_NE(what.find("died"), std::string::npos) << what;
  }
  EXPECT_GE(cluster.stats().node[0].peer_failures, 1u);

  // The pool is not poisoned: the next job forks fresh children and runs.
  const GlobalAddr res = cluster.alloc(3 * sizeof(int), /*home=*/0);
  cluster.run([&](Node& node) {
    node.write<int>(res + node.id() * sizeof(int), 1);
    node.barrier();
  });
  EXPECT_EQ(read_back(cluster, res, 3), (std::vector<int>{1, 1, 1}));
}

TEST(ProcBackend, ChildExceptionRethrowsWithOriginalType) {
  // Typed exception propagation over the socket: a child's throw crosses the
  // process boundary as an ErrorKind tag in its kDone frame, and the parent
  // rethrows the original exception TYPE — not a degraded runtime_error.
  // Node 0's program must return cleanly (any DSM wait it sat in would be
  // unwound by the abort and add a second, parent-side failure, sending
  // await down the combined-failure path instead of the typed rethrow).
  Cluster cluster(3, proc_cfg());
  try {
    cluster.run([](Node& node) {
      if (node.id() == 1) {
        throw std::invalid_argument("shard count must be positive");
      }
    });
    FAIL() << "run() should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "shard count must be positive");
  }

  // A derived type outside the tagged vocabulary degrades to its nearest
  // tagged base (std::ios_base::failure -> system_error is unlisted, but
  // out_of_range is tagged and must round-trip too).
  try {
    cluster.run([](Node& node) {
      if (node.id() == 2) throw std::out_of_range("fragment 7 of 4");
    });
    FAIL() << "run() should have thrown";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "fragment 7 of 4");
  }

  // The pool survives typed failures like any other failure.
  const GlobalAddr res = cluster.alloc(3 * sizeof(int), /*home=*/0);
  cluster.run([&](Node& node) {
    node.write<int>(res + node.id() * sizeof(int), 7);
    node.barrier();
  });
  EXPECT_EQ(read_back(cluster, res, 3), (std::vector<int>{7, 7, 7}));
}

TEST(ProcBackend, ChildExitWithoutDoneIsAFailure) {
  // _exit(0) skips the kDone/kStats handshake entirely; EOF alone must be
  // treated as node death, not success.
  Cluster cluster(2, proc_cfg());
  EXPECT_THROW(cluster.run([](Node& node) {
                 if (node.id() == 1) ::_exit(0);
                 node.barrier();
               }),
               std::runtime_error);
  EXPECT_GE(cluster.stats().node[0].peer_failures, 1u);
}

TEST(ProcBackend, ScanMatchesThreadBackendResultsAndStats) {
  // Bulk fetches, demand faults and a multi-page diff batch in a
  // barrier-synchronized program: the shared protocol code must give the
  // same answers AND the same protocol counters on both backends.
  const auto run_on = [](Backend backend, std::vector<NodeStats>* stats) {
    DsmConfig cfg;
    cfg.backend = backend;
    cfg.page_bytes = 256;
    Cluster cluster(3, cfg);
    constexpr int kInts = 512;  // 8 pages homed at 0
    const GlobalAddr arr = cluster.alloc(kInts * sizeof(int), /*home=*/0);
    const GlobalAddr res = cluster.alloc(3 * sizeof(int), /*home=*/2);
    cluster.run([&](Node& node) {
      if (node.id() == 1) {  // remote writer: one kDiffBatch at the barrier
        for (int i = 0; i < kInts; ++i) {
          node.write<int>(arr + i * sizeof(int), i * 3 + 1);
        }
      }
      node.barrier();
      std::vector<int> snap(kInts);  // one bulk-fetched span...
      node.read_bytes(arr, reinterpret_cast<std::byte*>(snap.data()),
                      kInts * sizeof(int));
      long sum = 0;  // ...then per-int reads served from the cache
      bool agree = true;
      for (int i = 0; i < kInts; ++i) {
        const int v = node.read<int>(arr + i * sizeof(int));
        agree = agree && v == snap[static_cast<std::size_t>(i)];
        sum += v;
      }
      node.write<int>(res + node.id() * sizeof(int),
                      agree ? static_cast<int>(sum) : -1);
      node.barrier();
    });
    *stats = cluster.stats().node;
    return read_back(cluster, res, 3);
  };

  std::vector<NodeStats> t_stats, p_stats;
  const std::vector<int> threads = run_on(Backend::kThreads, &t_stats);
  const std::vector<int> process = run_on(Backend::kProcess, &p_stats);
  EXPECT_EQ(process, threads);
  EXPECT_EQ(threads[0], threads[1]);
  EXPECT_EQ(threads[1], threads[2]);
  ASSERT_EQ(t_stats.size(), p_stats.size());
  for (std::size_t n = 0; n < t_stats.size(); ++n) {
    SCOPED_TRACE("node " + std::to_string(n));
    const NodeStats& t = t_stats[n];
    const NodeStats& p = p_stats[n];
    EXPECT_EQ(p.read_faults, t.read_faults);
    EXPECT_EQ(p.cache_hits, t.cache_hits);
    EXPECT_EQ(p.write_faults, t.write_faults);
    EXPECT_EQ(p.diffs_sent, t.diffs_sent);
    EXPECT_EQ(p.diff_bytes, t.diff_bytes);
    EXPECT_EQ(p.invalidations, t.invalidations);
    EXPECT_EQ(p.evictions, t.evictions);
    EXPECT_EQ(p.barriers, t.barriers);
    EXPECT_EQ(p.diff_batches_sent, t.diff_batches_sent);
    EXPECT_EQ(p.diff_pages_batched, t.diff_pages_batched);
    EXPECT_EQ(p.bulk_fetches, t.bulk_fetches);
    EXPECT_EQ(p.bulk_pages_fetched, t.bulk_pages_fetched);
    EXPECT_EQ(p.empty_diffs_suppressed, t.empty_diffs_suppressed);
  }
  EXPECT_GT(t_stats[1].diff_batches_sent, 0u);
  EXPECT_GT(t_stats[2].bulk_fetches, 0u);
}

TEST(ProcBackend, DefaultSpaceServes200BlockedQueries) {
  // A resident 1 kbp subject and 250-bp probes at the default
  // proc_space_bytes: each query's ~4 MiB of boundary rows and candidate
  // buffers is job scratch, so the placed segment never fills up.
  Rng rng(20261017);
  const Sequence subject = random_dna(1000, rng, "subject");
  Cluster cluster(3, proc_cfg());
  ASSERT_EQ(cluster.config().proc_space_bytes, DsmConfig{}.proc_space_bytes);
  const GlobalAddr t_addr = cluster.alloc_striped(subject.size());
  cluster.host_write(t_addr, subject.data(), subject.size());
  cluster.retain_range(t_addr, subject.size());

  core::BlockedConfig cfg;
  cfg.nprocs = 3;
  cfg.cluster = &cluster;
  cfg.resident_t_addr = t_addr;
  cfg.resident_t_size = subject.size();
  std::size_t pages_after_second = 0;
  for (int k = 0; k < 200; ++k) {
    const std::size_t at = static_cast<std::size_t>(k * 53) % 750;
    const Sequence probe =
        mutate(subject.slice(at, at + 250), 0.05, 0.01, rng);
    const core::StrategyResult r = core::blocked_align(probe, subject, cfg);
    ASSERT_FALSE(r.overflow) << "query " << k;
    ASSERT_EQ(r.candidates,
              heuristic_scan(probe, subject, cfg.scheme, cfg.params))
        << "query " << k;
    if (k == 1) pages_after_second = cluster.space().num_pages();
  }
  EXPECT_EQ(cluster.space().num_pages(), pages_after_second);
}

}  // namespace
}  // namespace gdsm::dsm
