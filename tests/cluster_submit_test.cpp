// Persistent-cluster engine tests: submit/await job tickets, per-job stats,
// subject residency (host_write + retain_range), the regression the
// alignment service depends on — a failed job NOT poisoning the node pool —
// and job scratch: per-call buffers return to the space's pool after their
// job, so a persistent cluster's global memory stays flat under traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/blocked.h"
#include "core/wavefront.h"
#include "db/db_align.h"
#include "db/subject_db.h"
#include "dsm/cluster.h"
#include "sw/heuristic_scan.h"
#include "util/genome.h"
#include "util/rng.h"

namespace gdsm::dsm {
namespace {

/// Per-node result slots read back through node 0 — under the process
/// backend nodes 1..n-1 are forked children whose writes to captured host
/// variables are invisible here, so programs publish through shared memory.
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

TEST(ClusterSubmit, AwaitReturnsThatJobsStats) {
  Cluster cluster(3);
  const GlobalAddr a = cluster.alloc(64, /*home=*/0);
  const Cluster::Ticket t1 = cluster.submit([&](Node& node) {
    if (node.id() == 0) node.write<int>(a, 7);
    node.barrier();
  });
  const Cluster::Ticket t2 = cluster.submit([](Node& node) { node.barrier(); });
  const DsmStats s1 = cluster.await(t1).stats;
  const DsmStats s2 = cluster.await(t2).stats;
  ASSERT_EQ(s1.node.size(), 3u);
  ASSERT_EQ(s2.node.size(), 3u);
  // Each job sees only its own activity: both barriered once per node.
  EXPECT_EQ(s1.total_node().barriers, 3u);
  EXPECT_EQ(s2.total_node().barriers, 3u);
  EXPECT_EQ(s2.total_node().write_faults, 0u);
}

TEST(ClusterSubmit, JobsAreSerializedInSubmissionOrder) {
  Cluster cluster(2);
  std::atomic<int> order{0};
  std::vector<int> first_seen(3, -1);
  std::vector<Cluster::Ticket> tickets;
  for (int j = 0; j < 3; ++j) {
    tickets.push_back(cluster.submit([&, j](Node& node) {
      node.barrier();
      if (node.id() == 0) first_seen[static_cast<std::size_t>(j)] = order++;
    }));
  }
  for (const auto& t : tickets) cluster.await(t);
  EXPECT_EQ(first_seen, (std::vector<int>{0, 1, 2}));
}

TEST(ClusterSubmit, RunIsSubmitPlusAwait) {
  Cluster cluster(2);
  const GlobalAddr res = cluster.alloc(2 * sizeof(int), /*home=*/0);
  cluster.run([&](Node& node) {
    node.write<int>(res + node.id() * sizeof(int), 1);
    node.barrier();
  });
  const std::vector<int> hits = read_back(cluster, res, 2);
  EXPECT_EQ(hits, (std::vector<int>{1, 1}));
}

TEST(ClusterSubmit, FailedJobDoesNotPoisonThePool) {
  Cluster cluster(4);
  EXPECT_THROW(
      cluster.run([](Node& node) {
        if (node.id() == 2) throw std::runtime_error("boom on 2");
      }),
      std::runtime_error);
  // The pool must come back: the same nodes run the next job to completion,
  // including full protocol traffic (writes, barrier, remote reads).
  const GlobalAddr a = cluster.alloc(4 * sizeof(int), /*home=*/1);
  const GlobalAddr res = cluster.alloc(4 * sizeof(int), /*home=*/0);
  cluster.run([&](Node& node) {
    if (node.id() == 1) {
      for (int i = 0; i < 4; ++i) {
        node.write<int>(a + i * sizeof(int), 40 + i);
      }
    }
    node.barrier();
    node.write<int>(res + node.id() * sizeof(int),
                    node.read<int>(a + node.id() * sizeof(int)));
    node.barrier();
  });
  const std::vector<int> seen = read_back(cluster, res, 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], 40 + i);
  }
}

TEST(ClusterSubmit, FailureAggregatesEveryFailingNode) {
  Cluster cluster(3);
  try {
    cluster.run([](Node& node) {
      if (node.id() != 0) {
        throw std::runtime_error("fail " + std::to_string(node.id()));
      }
    });
    FAIL() << "expected the job to throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    // Either both programs failed (aggregate message) or one failed and the
    // other unwound through the recovery abort; node 1 is always reported.
    EXPECT_NE(what.find("fail 1"), std::string::npos) << what;
  }
  cluster.run([](Node& node) { node.barrier(); });  // pool still accepts work
}

TEST(ClusterSubmit, QueuedJobsStillRunAfterAFailedJob) {
  Cluster cluster(2);
  const GlobalAddr res = cluster.alloc(2 * sizeof(int), /*home=*/0);
  const Cluster::Ticket bad = cluster.submit([](Node& node) {
    if (node.id() == 0) throw std::runtime_error("bad job");
  });
  const Cluster::Ticket good = cluster.submit([&](Node& node) {
    node.write<int>(res + node.id() * sizeof(int), 1);
    node.barrier();
  });
  EXPECT_THROW(cluster.await(bad), std::runtime_error);
  cluster.await(good);
  EXPECT_EQ(read_back(cluster, res, 2), (std::vector<int>{1, 1}));
}

TEST(ClusterSubmit, HostWriteSeedsHomePages) {
  Cluster cluster(3);
  std::vector<std::byte> pattern(3 * 4096 + 100);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::byte>(i * 31 + 7);
  }
  const GlobalAddr a = cluster.alloc_striped(pattern.size());
  cluster.host_write(a, pattern.data(), pattern.size());
  const GlobalAddr res = cluster.alloc(3 * sizeof(int), /*home=*/0);
  cluster.run([&](Node& node) {
    std::vector<std::byte> got(pattern.size());
    node.read_bytes(a, got.data(), got.size());
    node.write<int>(res + node.id() * sizeof(int), got == pattern ? 1 : 0);
    node.barrier();
  });
  EXPECT_EQ(read_back(cluster, res, 3), (std::vector<int>{1, 1, 1}));
}

TEST(ClusterSubmit, RetainRangeKeepsPagesWarmAcrossJobs) {
  Cluster cluster(2);
  const std::size_t bytes = 4 * 4096;
  const GlobalAddr a = cluster.alloc_striped(bytes);
  std::vector<std::byte> seed(bytes, std::byte{0x5a});
  cluster.host_write(a, seed.data(), bytes);
  cluster.retain_range(a, bytes);

  const auto touch_all = [&](Node& node) {
    std::vector<std::byte> got(bytes);
    node.read_bytes(a, got.data(), got.size());
  };
  const DsmStats cold = cluster.await(cluster.submit(touch_all)).stats;
  const DsmStats warm = cluster.await(cluster.submit(touch_all)).stats;
  // Cold: every node faults in the pages it is not home for.  Warm: the
  // retained frames survived the end-of-job sweep, so the same reads hit
  // the local page cache instead.
  EXPECT_GT(cold.total_node().read_faults, 0u);
  EXPECT_GT(warm.node[0].cache_hits, 0u);
  EXPECT_EQ(warm.node[0].read_faults, 0u);
  if (cluster.config().backend == Backend::kThreads) {
    EXPECT_EQ(warm.total_node().read_faults, 0u);
  } else {
    // Process backend: children are forked per job and always start cold;
    // retained warmth is a property of the persistent parent (node 0) only.
    EXPECT_GT(warm.total_node().read_faults, 0u);
  }
}

TEST(ClusterSubmit, WithoutRetainRangePagesGoColdEachJob) {
  Cluster cluster(2);
  const std::size_t bytes = 2 * 4096;
  const GlobalAddr a = cluster.alloc_striped(bytes);
  std::vector<std::byte> seed(bytes, std::byte{0x11});
  cluster.host_write(a, seed.data(), bytes);

  const auto touch_all = [&](Node& node) {
    std::vector<std::byte> got(bytes);
    node.read_bytes(a, got.data(), got.size());
  };
  const DsmStats first = cluster.await(cluster.submit(touch_all)).stats;
  const DsmStats second = cluster.await(cluster.submit(touch_all)).stats;
  EXPECT_GT(first.total_node().read_faults, 0u);
  EXPECT_EQ(second.total_node().read_faults,
            first.total_node().read_faults);
}

TEST(ClusterSubmit, FailedJobColdRestartsRetainedPagesThenRewarms) {
  Cluster cluster(2);
  const std::size_t bytes = 2 * 4096;
  const GlobalAddr a = cluster.alloc_striped(bytes);
  std::vector<std::byte> seed(bytes, std::byte{0x77});
  cluster.host_write(a, seed.data(), bytes);
  cluster.retain_range(a, bytes);

  const auto touch_all = [&](Node& node) {
    std::vector<std::byte> got(bytes);
    node.read_bytes(a, got.data(), got.size());
  };
  cluster.await(cluster.submit(touch_all));  // warm the caches
  EXPECT_THROW(cluster.run([](Node& node) {
                 if (node.id() == 0) throw std::runtime_error("abort");
               }),
               std::runtime_error);
  // A failed job cold-restarts the caches, but the retained marking stays:
  // the next touch faults the pages back in, the one after runs warm again.
  const DsmStats rewarm = cluster.await(cluster.submit(touch_all)).stats;
  const DsmStats warm = cluster.await(cluster.submit(touch_all)).stats;
  EXPECT_GT(rewarm.total_node().read_faults, 0u);
  EXPECT_EQ(warm.node[0].read_faults, 0u);
  EXPECT_GT(warm.node[0].cache_hits, 0u);
  if (cluster.config().backend == Backend::kThreads) {
    EXPECT_EQ(warm.total_node().read_faults, 0u);  // children cold under proc
  }
}

TEST(ClusterSubmit, StopIsIdempotentAndTheEngineRestarts) {
  Cluster cluster(2);
  cluster.run([](Node& node) { node.barrier(); });
  cluster.stop();
  // stop() is idempotent and the engine restarts on the next submit.
  cluster.stop();
  const GlobalAddr res = cluster.alloc(2 * sizeof(int), /*home=*/0);
  cluster.run([&](Node& node) {
    node.write<int>(res + node.id() * sizeof(int), 1);
    node.barrier();
  });
  EXPECT_EQ(read_back(cluster, res, 2), (std::vector<int>{1, 1}));
}

// ------------------------------------------------------------ scratch --

constexpr int kScratchCalls = 200;

/// Probe and subject window lengths for call k: call 0 is the largest, so
/// from call 1 on every call must be served from the pool, at sizes that
/// differ call to call.
std::size_t vary(int k, std::size_t max_len, std::size_t min_len) {
  if (k == 0) return max_len;
  return min_len + static_cast<std::size_t>(k * 37) % (max_len - min_len);
}

TEST(ClusterScratch, BlockedAlignKeepsGlobalMemoryFlat) {
  Rng rng(1501);
  const Sequence genome = random_dna(1400, rng, "genome");
  Cluster cluster(3);
  core::BlockedConfig cfg;
  cfg.nprocs = 3;
  cfg.mult_w = 2;
  cfg.mult_h = 2;
  cfg.max_candidates_per_node = 2048;
  cfg.cluster = &cluster;
  std::size_t pages_after_second = 0;
  for (int k = 0; k < kScratchCalls; ++k) {
    // The subject window sets the boundary-row sizes, the probe the rows.
    const Sequence t = genome.slice(0, vary(k, 1400, 300));
    const Sequence s = mutate(t.slice(0, vary(k, 160, 40)), 0.05, 0.01, rng);
    const core::StrategyResult r = core::blocked_align(s, t, cfg);
    ASSERT_FALSE(r.overflow) << "call " << k;
    ASSERT_EQ(r.candidates, heuristic_scan(s, t, cfg.scheme, cfg.params))
        << "call " << k;
    if (k == 1) pages_after_second = cluster.space().num_pages();
  }
  EXPECT_EQ(cluster.space().num_pages(), pages_after_second);
  EXPECT_EQ(cluster.space().free_pages() + 1, pages_after_second);
}

TEST(ClusterScratch, WavefrontAlignKeepsGlobalMemoryFlat) {
  Rng rng(1502);
  const Sequence genome = random_dna(900, rng, "genome");
  Cluster cluster(3);
  core::WavefrontConfig cfg;
  cfg.nprocs = 3;
  cfg.max_candidates_per_node = 2048;
  cfg.cluster = &cluster;
  std::size_t pages_after_second = 0;
  for (int k = 0; k < kScratchCalls; ++k) {
    const Sequence t = genome.slice(0, vary(k, 900, 200));
    const Sequence s = mutate(t.slice(0, vary(k, 60, 20)), 0.05, 0.01, rng);
    // Alternate the paper-literal shared rows so both layouts recycle.
    cfg.rows_in_shared_memory = (k % 2 == 0);
    const core::StrategyResult r = core::wavefront_align(s, t, cfg);
    ASSERT_FALSE(r.overflow) << "call " << k;
    ASSERT_EQ(r.candidates, heuristic_scan(s, t, cfg.scheme, cfg.params))
        << "call " << k;
    if (k == 1) pages_after_second = cluster.space().num_pages();
  }
  EXPECT_EQ(cluster.space().num_pages(), pages_after_second);
}

TEST(ClusterScratch, DbQueryKeepsGlobalMemoryFlat) {
  Rng rng(1503);
  std::vector<Sequence> seqs;
  for (int i = 0; i < 3; ++i) {
    seqs.push_back(random_dna(1200, rng, "seq" + std::to_string(i)));
  }
  db::DbConfig db_cfg;
  db_cfg.direct_align_max = 0;  // every surviving fragment takes the cluster
  const db::SubjectDb sdb(seqs, db_cfg);
  Cluster cluster(3);
  const db::DbShards shards(cluster, sdb);
  const ScoreScheme scheme{};
  constexpr int kMinScore = 30;
  std::size_t pages_after_second = 0;
  std::size_t dispatched = 0;
  for (int k = 0; k < kScratchCalls; ++k) {
    const std::size_t len = vary(k, 220, 40);
    const Sequence& src = seqs[static_cast<std::size_t>(k) % seqs.size()];
    const Sequence probe =
        k % 3 == 2 ? random_dna(len, rng, "probe")
                   : mutate(src.slice(100, 100 + len), 0.05, 0.01, rng);
    const db::DbQueryResult r =
        db::db_query(cluster, sdb, shards, probe, scheme, kMinScore);
    ASSERT_EQ(r.hits, db::brute_force_hits(sdb, probe, scheme, kMinScore))
        << "call " << k;
    if (r.fragments_aligned > 0) ++dispatched;
    if (k == 1) pages_after_second = cluster.space().num_pages();
  }
  EXPECT_GT(dispatched, static_cast<std::size_t>(kScratchCalls) / 2);
  EXPECT_EQ(cluster.space().num_pages(), pages_after_second);
}

TEST(ClusterScratch, ConcurrentSubmittersShareThePool) {
  // Several host threads allocate, submit and release scratch at once, as
  // a service's workers do: allocation and zero-fill race the running
  // job's service threads, and releases run on the cluster's engine.
  Rng rng(1504);
  const Sequence t = random_dna(600, rng, "subject");
  std::vector<Sequence> probes;
  for (int k = 0; k < 8; ++k) {
    const std::size_t at = static_cast<std::size_t>(k) * 50;
    probes.push_back(mutate(t.slice(at, at + 120), 0.05, 0.01, rng));
  }
  Cluster cluster(3);
  core::BlockedConfig cfg;
  cfg.nprocs = 3;
  cfg.mult_w = 2;
  cfg.mult_h = 2;
  cfg.max_candidates_per_node = 1024;
  cfg.cluster = &cluster;
  (void)core::blocked_align(probes[0], t, cfg);
  const std::size_t one_query = cluster.space().num_pages() - 1;

  constexpr int kThreads = 3;
  constexpr int kPerThread = 12;
  std::atomic<int> wrong{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int k = 0; k < kPerThread; ++k) {
        const Sequence& s =
            probes[static_cast<std::size_t>(w * kPerThread + k) % probes.size()];
        const core::StrategyResult r = core::blocked_align(s, t, cfg);
        if (r.candidates != heuristic_scan(s, t, cfg.scheme, cfg.params)) {
          ++wrong;
        }
      }
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_EQ(wrong.load(), 0);
  // At most one query's scratch per submitter is live at a time.  Runs of
  // different queries interleave in the pool, so fragmentation may cost
  // some growth beyond that, but never a query's worth per call; nothing
  // leaks past the last job.
  EXPECT_LE(cluster.space().num_pages(), 1 + 2 * kThreads * one_query);
  EXPECT_EQ(cluster.space().free_pages() + 1, cluster.space().num_pages());
}

TEST(ClusterScratch, FailedJobReturnsItsScratchAndTheNextJobIsCorrect) {
  Cluster cluster(3);
  const GlobalAddr res = cluster.alloc(3 * sizeof(int), /*home=*/0);
  Scratch bad = cluster.scratch();
  const GlobalAddr dirty = bad.alloc(2 * 4096, /*home=*/1);
  const std::size_t pages = cluster.space().num_pages();
  EXPECT_THROW(cluster.await(cluster.submit(
                   [&](Node& node) {
                     std::vector<std::byte> junk(2 * 4096, std::byte{0xab});
                     node.write_bytes(dirty, junk.data(), junk.size());
                     node.barrier();
                     if (node.id() == 2) throw std::runtime_error("boom");
                   },
                   std::move(bad))),
               std::runtime_error);
  EXPECT_EQ(cluster.space().free_pages(), 2u);

  // The next job runs on the very same (reused) pages: they read zero on
  // every node, and a write/barrier/read round over them is coherent.
  Scratch next = cluster.scratch();
  const GlobalAddr a = next.alloc(2 * 4096, /*home=*/2);
  EXPECT_EQ(a, dirty);
  EXPECT_EQ(cluster.space().num_pages(), pages);
  cluster.await(cluster.submit(
      [&](Node& node) {
        std::vector<std::byte> got(2 * 4096);
        node.read_bytes(a, got.data(), got.size());
        const bool zero = std::all_of(got.begin(), got.end(),
                                      [](std::byte b) { return b == std::byte{0}; });
        node.barrier();
        node.write<int>(a + node.id() * sizeof(int), 10 + node.id());
        node.barrier();
        int sum = 0;
        for (int i = 0; i < 3; ++i) sum += node.read<int>(a + i * sizeof(int));
        node.write<int>(res + node.id() * sizeof(int), zero ? sum : -1);
        node.barrier();
      },
      std::move(next)));
  EXPECT_EQ(read_back(cluster, res, 3), (std::vector<int>{33, 33, 33}));
  EXPECT_EQ(cluster.space().free_pages(), 2u);
}

TEST(ClusterScratch, UnsubmittedHolderReturnsItsPages) {
  Cluster cluster(2);
  GlobalAddr first = 0;
  {
    Scratch s = cluster.scratch();
    first = s.alloc(3 * 4096, 0);
    EXPECT_EQ(cluster.space().free_pages(), 0u);
  }
  EXPECT_EQ(cluster.space().free_pages(), 3u);
  // Adjacent released runs coalesce: two smaller holders' pages serve one
  // larger request without growing the space.
  const std::size_t pages = cluster.space().num_pages();
  {
    Scratch s = cluster.scratch();
    EXPECT_EQ(s.alloc(4096, 1), first);
    EXPECT_EQ(s.alloc(2 * 4096, 0), first + 4096);
  }
  Scratch big = cluster.scratch();
  EXPECT_EQ(big.alloc(3 * 4096, 1), first);
  EXPECT_EQ(cluster.space().num_pages(), pages);
  EXPECT_EQ(cluster.space().free_pages(), 0u);
  // A resident allocation may take pooled pages too; it then stays.
  big.release();
  EXPECT_EQ(cluster.alloc(4096, 0), first);
  EXPECT_EQ(cluster.space().free_pages(), 2u);
}

TEST(ClusterScratch, ReusedPagesAfterHomeMigrationComeBackHomedAndZero) {
  DsmConfig cfg;
  cfg.home_migration = true;
  Cluster cluster(3, cfg);
  const GlobalAddr res = cluster.alloc(3 * sizeof(int), /*home=*/0);
  Scratch first = cluster.scratch();
  const GlobalAddr a = first.alloc(2 * 4096, /*home=*/0);
  const PageId p0 = cluster.space().page_of(a);
  // Node 2 is the single writer of both pages in the interval, so the
  // barrier migrates their homes to it.
  cluster.await(cluster.submit(
      [&](Node& node) {
        if (node.id() == 2) {
          std::vector<std::byte> junk(2 * 4096, std::byte{0x3c});
          node.write_bytes(a, junk.data(), junk.size());
        }
        node.barrier();
        node.barrier();
      },
      std::move(first)));
  ASSERT_EQ(cluster.space().home_of(p0), 2);
  ASSERT_EQ(cluster.space().home_of(p0 + 1), 2);

  Scratch again = cluster.scratch();
  ASSERT_EQ(again.alloc(2 * 4096, /*home=*/1), a);
  EXPECT_EQ(cluster.space().home_of(p0), 1);
  EXPECT_EQ(cluster.space().home_of(p0 + 1), 1);
  cluster.await(cluster.submit(
      [&](Node& node) {
        std::vector<std::byte> got(2 * 4096);
        node.read_bytes(a, got.data(), got.size());
        const bool zero = std::all_of(got.begin(), got.end(),
                                      [](std::byte b) { return b == std::byte{0}; });
        node.write<int>(res + node.id() * sizeof(int), zero ? 1 : 0);
        node.barrier();
      },
      std::move(again)));
  EXPECT_EQ(read_back(cluster, res, 3), (std::vector<int>{1, 1, 1}));
}

TEST(ClusterScratch, PooledHeapPagesArePoisonedUntilReusedZeroed) {
  DsmConfig cfg;
  cfg.backend = Backend::kThreads;
  GlobalSpace space(2, cfg);  // no node threads: the death test stays safe
  GlobalAddr a = 0;
  {
    Scratch s(space);
    a = s.alloc(2 * 4096, 1);
    for (int k = 0; k < 2; ++k) {
      space.home_data(space.page_of(a) + k)[0] = std::byte{1};
    }
  }
  std::byte* pooled = space.home_data(space.page_of(a) + 1);
#if defined(__SANITIZE_ADDRESS__)
  // A use of a released run is an ASan report, not a silent stale read.
  EXPECT_DEATH(
      { *static_cast<volatile std::byte*>(pooled) = std::byte{2}; },
      "use-after-poison");
#endif
  Scratch again(space);
  ASSERT_EQ(again.alloc(2 * 4096, 0), a);
  EXPECT_EQ(space.home_data(space.page_of(a))[0], std::byte{0});
  EXPECT_EQ(*pooled, std::byte{0});
  EXPECT_EQ(space.home_of(space.page_of(a)), 0);
}

TEST(ClusterScratch, ReleasingARetainedPageIsImpossibleByConstruction) {
  // Only scratch pages are ever released, and retain_range refuses them
  // with a typed error — so a retained page can never reach the pool.
  Cluster cluster(2);
  Scratch s = cluster.scratch();
  const GlobalAddr a = s.alloc(2 * 4096, 0);
  EXPECT_THROW(cluster.retain_range(a + 4096, 16), std::invalid_argument);
  s.release();
  EXPECT_THROW(cluster.retain_range(a, 16), std::invalid_argument);  // pooled
  // Resident memory — even on formerly pooled pages — retains as before.
  const GlobalAddr resident = cluster.alloc(2 * 4096, 1);
  EXPECT_EQ(resident, a);
  EXPECT_NO_THROW(cluster.retain_range(resident, 2 * 4096));
  EXPECT_EQ(cluster.space().free_pages(), 0u);
}

}  // namespace
}  // namespace gdsm::dsm
