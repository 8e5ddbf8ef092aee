// JIAJIA-like DSM substrate tests: shared memory semantics under the scope
// consistency protocol, locks, condition variables, barriers, replacement.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "backends.h"
#include "dsm/cluster.h"

namespace gdsm::dsm {
namespace {

/// Reads `n` ints back from shared memory via node 0.  Results a program
/// wants checked must travel through the global space or a node result
/// (Node::set_result), not captured host variables: under the process
/// backend every node but 0 runs in a forked child whose writes to
/// captures die with it.  Node 0 always runs in the host address space, so
/// a follow-up job reading on node 0 works on both backends.
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

TEST(GlobalSpace, AllocRoundsToPagesAndAssignsHomes) {
  DsmConfig cfg;
  cfg.page_bytes = 256;
  GlobalSpace space(4, cfg);
  const GlobalAddr a = space.alloc(300, 2);  // 2 pages
  const GlobalAddr b = space.alloc(1, 3);
  EXPECT_EQ(space.offset_in_page(a), 0u);
  EXPECT_EQ(space.home_of(space.page_of(a)), 2);
  EXPECT_EQ(space.home_of(space.page_of(a) + 1), 2);
  EXPECT_EQ(space.home_of(space.page_of(b)), 3);
  EXPECT_EQ(b, a + 2 * 256);
}

TEST(GlobalSpace, StripedAllocCyclesHomes) {
  DsmConfig cfg;
  cfg.page_bytes = 128;
  GlobalSpace space(3, cfg);
  const GlobalAddr a = space.alloc_striped(128 * 6);
  for (std::size_t k = 0; k < 6; ++k) {
    EXPECT_EQ(space.home_of(space.page_of(a) + k), static_cast<int>(k % 3));
  }
}

TEST(PageCache, LruEviction) {
  PageCache cache(2);
  PageCache::Evicted ev;
  cache.insert(1, std::vector<std::byte>(8), &ev);
  EXPECT_FALSE(ev.valid);
  cache.insert(2, std::vector<std::byte>(8), &ev);
  EXPECT_FALSE(ev.valid);
  ASSERT_NE(cache.lookup(1), nullptr);  // touch 1 -> 2 becomes LRU
  cache.insert(3, std::vector<std::byte>(8), &ev);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.page, 2u);
  EXPECT_EQ(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
}

TEST(PageCache, DirtyTracking) {
  PageCache cache(4);
  Frame* f = cache.insert(5, std::vector<std::byte>(8), nullptr);
  EXPECT_TRUE(cache.dirty_pages().empty());
  f->dirty = true;
  const auto dirty = cache.dirty_pages();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], 5u);
  cache.erase(5);
  EXPECT_TRUE(cache.dirty_pages().empty());
}

TEST(Cluster, HomeWritesVisibleAfterBarrier) {
  Cluster cluster(4);
  const GlobalAddr arr = cluster.alloc(4 * sizeof(int), /*home=*/0);
  const GlobalAddr res = cluster.alloc(4 * sizeof(int), /*home=*/0);
  cluster.run([&](Node& node) {
    if (node.id() == 0) {
      for (int i = 0; i < 4; ++i) node.write<int>(arr + i * sizeof(int), 100 + i);
    }
    node.barrier();
    node.write<int>(res + node.id() * sizeof(int),
                    node.read<int>(arr + node.id() * sizeof(int)));
    node.barrier();  // flushes every node's result diff home
  });
  const std::vector<int> seen = read_back(cluster, res, 4);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], 100 + i);
}

TEST(Cluster, RemoteWritesReachHomeViaDiffs) {
  Cluster cluster(3);
  const GlobalAddr arr = cluster.alloc(3 * sizeof(int), /*home=*/0);
  const GlobalAddr res = cluster.alloc(sizeof(int), /*home=*/0);
  cluster.run([&](Node& node) {
    // Every node writes its own slot (disjoint offsets of the SAME page):
    // the multiple-writer protocol must merge all three at the home.
    node.write<int>(arr + node.id() * sizeof(int), node.id() + 1);
    node.barrier();
    if (node.id() == 2) {
      int total = 0;
      for (int i = 0; i < 3; ++i) total += node.read<int>(arr + i * sizeof(int));
      node.write<int>(res, total);
    }
    node.barrier();
  });
  const DsmStats stats = cluster.stats();  // before read_back's job clobbers it
  EXPECT_EQ(read_back(cluster, res, 1)[0], 6);
  EXPECT_GE(stats.total_node().diffs_sent, 2u);  // nodes 1 and 2 diffed
}

TEST(Cluster, LockProvidesMutualExclusionAndCoherence) {
  Cluster cluster(4);
  const GlobalAddr counter = cluster.alloc(sizeof(int), /*home=*/3);
  constexpr int kIters = 25;
  cluster.run([&](Node& node) {
    for (int k = 0; k < kIters; ++k) {
      node.lock(7);
      const int v = node.read<int>(counter);
      node.write<int>(counter, v + 1);
      node.unlock(7);
    }
    node.barrier();
  });
  // Verify via a second program on the same cluster (state persists).
  int final_value = 0;
  cluster.run([&](Node& node) {
    if (node.id() == 0) final_value = node.read<int>(counter);
  });
  EXPECT_EQ(final_value, 4 * kIters);
}

TEST(Cluster, ConditionVariablePassesValue) {
  Cluster cluster(2);
  const GlobalAddr slot = cluster.alloc(sizeof(int), /*home=*/0);
  const GlobalAddr res = cluster.alloc(sizeof(int), /*home=*/0);
  cluster.run([&](Node& node) {
    if (node.id() == 0) {
      node.write<int>(slot, 4242);
      node.setcv(1);  // release semantics: flush + notices ride the signal
    } else {
      node.waitcv(1);  // acquire: invalidate noticed pages
      node.write<int>(res, node.read<int>(slot));
    }
    node.barrier();
  });
  EXPECT_EQ(read_back(cluster, res, 1)[0], 4242);
}

TEST(Cluster, ConditionVariableCountsSignals) {
  Cluster cluster(2);
  const GlobalAddr res = cluster.alloc(sizeof(int), /*home=*/0);
  cluster.run([&](Node& node) {
    if (node.id() == 0) {
      for (int i = 0; i < 5; ++i) node.setcv(3);
    } else {
      int woken = 0;
      for (int i = 0; i < 5; ++i) {
        node.waitcv(3);
        ++woken;
      }
      node.write<int>(res, woken);
    }
    node.barrier();
  });
  EXPECT_EQ(read_back(cluster, res, 1)[0], 5);
}

TEST(Cluster, ProducerConsumerChainThroughSharedMemory) {
  // A mini wave-front: each node increments the value and hands it on, ten
  // rounds, exactly the Strategy-1 border-cell pattern.
  constexpr int P = 4;
  constexpr int kRounds = 10;
  Cluster cluster(P);
  std::vector<GlobalAddr> slots;
  for (int p = 0; p + 1 < P; ++p) slots.push_back(cluster.alloc(sizeof(int), p));
  const GlobalAddr res = cluster.alloc(sizeof(int), /*home=*/0);
  cluster.run([&](Node& node) {
    const int p = node.id();
    for (int r = 0; r < kRounds; ++r) {
      int value = r;
      if (p > 0) {
        node.waitcv(p - 1);
        value = node.read<int>(slots[static_cast<std::size_t>(p - 1)]);
        node.setcv(P + p - 1);  // slot free
      }
      ++value;
      if (p + 1 < P) {
        if (r > 0) node.waitcv(P + p);
        node.write<int>(slots[static_cast<std::size_t>(p)], value);
        node.setcv(p);
      } else if (r == kRounds - 1) {
        node.write<int>(res, value);
      }
    }
    node.barrier();
  });
  EXPECT_EQ(read_back(cluster, res, 1)[0], kRounds - 1 + P);
}

TEST(Cluster, ReplacementKeepsSemantics) {
  // A cache of 2 remote frames forces constant eviction, including dirty
  // victims that must be flushed home.
  DsmConfig cfg;
  cfg.page_bytes = 256;
  cfg.cache_pages = 2;
  Cluster cluster(2, cfg);
  constexpr int kPages = 10;
  const GlobalAddr arr = cluster.alloc(kPages * 256, /*home=*/0);
  std::atomic<long> total{0};
  cluster.run([&](Node& node) {
    if (node.id() == 1) {
      for (int k = 0; k < kPages; ++k) {
        node.write<int>(arr + static_cast<GlobalAddr>(k) * 256, k * 11);
      }
    }
    node.barrier();
    if (node.id() == 0) {
      long sum = 0;
      for (int k = 0; k < kPages; ++k) {
        sum += node.read<int>(arr + static_cast<GlobalAddr>(k) * 256);
      }
      total = sum;
    }
  });
  EXPECT_EQ(total, 11L * (kPages - 1) * kPages / 2);
  EXPECT_GT(cluster.stats().node[1].evictions, 0u);
}

TEST(Cluster, AllocInsideProgram) {
  Cluster cluster(3);
  const GlobalAddr mailbox = cluster.alloc(sizeof(GlobalAddr), 0);
  const GlobalAddr res = cluster.alloc(sizeof(int), 0);
  cluster.run([&](Node& node) {
    if (node.id() == 1) {
      const GlobalAddr fresh = node.alloc(sizeof(int), 2);
      node.write<int>(fresh, 777);
      node.write<GlobalAddr>(mailbox, fresh);
    }
    node.barrier();
    if (node.id() == 2) {
      const GlobalAddr fresh = node.read<GlobalAddr>(mailbox);
      node.write<int>(res, node.read<int>(fresh));
    }
    node.barrier();
  });
  EXPECT_EQ(read_back(cluster, res, 1)[0], 777);
}

TEST(Cluster, StatsAccountProtocolActivity) {
  Cluster cluster(2);
  const GlobalAddr x = cluster.alloc(sizeof(int), 0);
  cluster.run([&](Node& node) {
    node.barrier();
    if (node.id() == 1) {
      node.lock(0);
      node.write<int>(x, 5);
      node.unlock(0);
    }
    node.barrier();
    if (node.id() == 0) (void)node.read<int>(x);
  });
  const DsmStats stats = cluster.stats();
  EXPECT_EQ(stats.node[1].lock_acquires, 1u);
  EXPECT_EQ(stats.node[1].lock_releases, 1u);
  EXPECT_GE(stats.node[1].read_faults, 1u);   // faulted the page in to write
  EXPECT_GE(stats.node[1].write_faults, 1u);  // twin created
  EXPECT_GE(stats.node[1].diffs_sent, 1u);
  EXPECT_EQ(stats.node[0].barriers, 2u);
  EXPECT_GT(stats.total_traffic().total_messages(), 0u);
}

TEST(HomeMigration, SingleWriterPageMigrates) {
  DsmConfig cfg;
  cfg.home_migration = true;
  Cluster cluster(2, cfg);
  // Page homed at node 0, but written only by node 1.
  const GlobalAddr x = cluster.alloc(sizeof(int), /*home=*/0);
  const PageId page = cluster.space().page_of(x);
  cluster.run([&](Node& node) {
    if (node.id() == 1) node.write<int>(x, 1);
    node.barrier();  // writer is unique: page migrates to node 1
  });
  EXPECT_EQ(cluster.space().home_of(page), 1);
  EXPECT_EQ(cluster.stats().home_migrations, 1u);
}

TEST(HomeMigration, MigrationStopsDiffTraffic) {
  auto run_rounds = [](bool migrate) {
    DsmConfig cfg;
    cfg.home_migration = migrate;
    Cluster cluster(2, cfg);
    const GlobalAddr x = cluster.alloc(sizeof(int) * 64, /*home=*/0);
    cluster.run([&](Node& node) {
      for (int round = 0; round < 10; ++round) {
        if (node.id() == 1) node.write<int>(x + 4 * round, round);
        node.barrier();
      }
    });
    const NodeStats stats = cluster.stats().node[1];
    return std::pair(stats.diffs_sent, stats.empty_diffs_suppressed);
  };
  const auto [diffs_without, suppressed_without] = run_rounds(false);
  const auto [diffs_with, suppressed_with] = run_rounds(true);
  // Round 0 writes the int value 0 over freshly zeroed memory, so its diff
  // is empty and the round-trip is suppressed; rounds 1..9 each ship one
  // real diff per interval, forever.
  EXPECT_EQ(diffs_without, 9u);
  EXPECT_EQ(suppressed_without, 1u);
  // With migration the suppressed round 0 produces no write notice, so the
  // page migrates after round 1's diff — the one and only diff sent.
  EXPECT_EQ(diffs_with, 1u);
  EXPECT_EQ(suppressed_with, 1u);
}

TEST(HomeMigration, MultiWriterPageStaysPut) {
  DsmConfig cfg;
  cfg.home_migration = true;
  Cluster cluster(3, cfg);
  const GlobalAddr arr = cluster.alloc(3 * sizeof(int), /*home=*/0);
  const PageId page = cluster.space().page_of(arr);
  cluster.run([&](Node& node) {
    node.write<int>(arr + node.id() * sizeof(int), node.id());
    node.barrier();
  });
  EXPECT_EQ(cluster.space().home_of(page), 0);
  EXPECT_EQ(cluster.stats().home_migrations, 0u);
}

TEST(HomeMigration, DataStaysCoherentAcrossMigration) {
  DsmConfig cfg;
  cfg.home_migration = true;
  Cluster cluster(4, cfg);
  const GlobalAddr x = cluster.alloc(sizeof(long), /*home=*/0);
  const GlobalAddr res = cluster.alloc(sizeof(int), /*home=*/0);
  cluster.run([&](Node& node) {
    // Round 1: node 3 writes (page migrates to 3).
    if (node.id() == 3) node.write<long>(x, 111);
    node.barrier();
    // Round 2: node 2 writes the migrated page (migrates to 2).
    if (node.id() == 2) node.write<long>(x, node.read<long>(x) + 222);
    node.barrier();
    // Everyone must see both updates.
    if (node.id() == 1) node.write<int>(res, static_cast<int>(node.read<long>(x)));
    node.barrier();
  });
  EXPECT_EQ(read_back(cluster, res, 1)[0], 333);
  // x migrated twice; the result page also migrated to its single writer 1.
  EXPECT_EQ(cluster.stats().home_migrations, 3u);
}

// The data-plane tests run on both backends: the protocol code is shared,
// so the counters must agree.  Values are checked on node 0, which runs in
// the host address space under either backend.

TEST(CommPlane, BulkFetchCoalescesMultiPageReads) {
  // A read_bytes spanning 8 uncached remote pages must cost one kGetPages
  // exchange, not 8 serial faults; accounting stays per-page (read_faults).
  constexpr int kPages = 8;
  for (const Backend backend : testable_backends()) {
    SCOPED_TRACE(backend_name(backend));
    DsmConfig cfg;
    cfg.page_bytes = 128;
    cfg.backend = backend;
    Cluster cluster(2, cfg);
    const GlobalAddr arr = cluster.alloc(kPages * 128, /*home=*/1);
    std::vector<int> buf(kPages * 128 / sizeof(int));
    cluster.run([&](Node& node) {
      if (node.id() == 1) {
        for (int pgi = 0; pgi < kPages; ++pgi) {
          node.write<int>(arr + static_cast<GlobalAddr>(pgi) * 128, pgi + 1);
        }
      }
      node.barrier();
      if (node.id() == 0) {
        node.read_bytes(arr, reinterpret_cast<std::byte*>(buf.data()),
                        kPages * 128);
      }
      node.barrier();
    });
    for (int pgi = 0; pgi < kPages; ++pgi) {
      EXPECT_EQ(buf[static_cast<std::size_t>(pgi) * (128 / sizeof(int))],
                pgi + 1);
    }
    const NodeStats reader = cluster.stats().node[0];
    EXPECT_EQ(reader.bulk_fetches, 1u);
    EXPECT_EQ(reader.bulk_pages_fetched, static_cast<std::uint64_t>(kPages));
    EXPECT_EQ(reader.read_faults, static_cast<std::uint64_t>(kPages));
    EXPECT_GE(reader.round_trips_saved(),
              static_cast<std::uint64_t>(kPages - 1));
  }
}

TEST(CommPlane, EmptyDiffsSuppressedInEveryMode) {
  // Writing the value already in place yields a zero-record diff; shipping
  // it would be a pure round-trip, so both release paths suppress it: the
  // single-page kDiff and the multi-page kDiffBatch.
  for (const Backend backend : testable_backends()) {
    for (const int pages : {1, 4}) {
      SCOPED_TRACE(std::string(backend_name(backend)) +
                   " pages=" + std::to_string(pages));
      DsmConfig cfg;
      cfg.page_bytes = 128;
      cfg.backend = backend;
      Cluster cluster(2, cfg);
      const GlobalAddr x = cluster.alloc(
          static_cast<std::size_t>(pages) * 128, /*home=*/0);
      cluster.run([&](Node& node) {
        if (node.id() == 1) {
          for (int pgi = 0; pgi < pages; ++pgi) {  // no-op over zeroed memory
            node.write<int>(x + static_cast<GlobalAddr>(pgi) * 128, 0);
          }
        }
        node.barrier();
      });
      const NodeStats writer = cluster.stats().node[1];
      EXPECT_EQ(writer.diffs_sent, 0u);
      EXPECT_EQ(writer.diff_batches_sent, 0u);
      EXPECT_EQ(writer.empty_diffs_suppressed,
                static_cast<std::uint64_t>(pages));
    }
  }
}

TEST(CommPlane, ReleaseDiffsCoalescePerHome) {
  // Six dirty pages with the same home leave as ONE kDiffBatch; diff
  // accounting (diffs_sent) stays per page.
  constexpr int kPages = 6;
  for (const Backend backend : testable_backends()) {
    SCOPED_TRACE(backend_name(backend));
    DsmConfig cfg;
    cfg.page_bytes = 128;
    cfg.backend = backend;
    Cluster cluster(2, cfg);
    const GlobalAddr arr = cluster.alloc(kPages * 128, /*home=*/0);
    std::vector<int> got(kPages, 0);
    cluster.run([&](Node& node) {
      if (node.id() == 1) {
        for (int pgi = 0; pgi < kPages; ++pgi) {
          node.write<int>(arr + static_cast<GlobalAddr>(pgi) * 128, pgi + 1);
        }
      }
      node.barrier();
      if (node.id() == 0) {
        for (int pgi = 0; pgi < kPages; ++pgi) {
          got[static_cast<std::size_t>(pgi)] =
              node.read<int>(arr + static_cast<GlobalAddr>(pgi) * 128);
        }
      }
      node.barrier();
    });
    for (int pgi = 0; pgi < kPages; ++pgi) {
      EXPECT_EQ(got[static_cast<std::size_t>(pgi)], pgi + 1);
    }
    const NodeStats writer = cluster.stats().node[1];
    EXPECT_EQ(writer.diff_batches_sent, 1u);
    EXPECT_EQ(writer.diff_pages_batched, static_cast<std::uint64_t>(kPages));
    EXPECT_EQ(writer.diffs_sent, static_cast<std::uint64_t>(kPages));
    EXPECT_GE(writer.round_trips_saved(),
              static_cast<std::uint64_t>(kPages - 1));
  }
}

/// Ints back out of a node result payload.
std::vector<int> as_ints(const std::vector<std::byte>& payload) {
  std::vector<int> out(payload.size() / sizeof(int));
  std::memcpy(out.data(), payload.data(), out.size() * sizeof(int));
  return out;
}

std::vector<std::byte> as_bytes(const std::vector<int>& v) {
  const auto* raw = reinterpret_cast<const std::byte*>(v.data());
  return std::vector<std::byte>(raw, raw + v.size() * sizeof(int));
}

TEST(CvGrant, WaiterReadsPushedPagesWithoutFetching) {
  // Node 0 publishes two pages it homes and signals a cv it manages: the
  // grant carries both pages, so the waiter reads them with no kGetPage(s)
  // on the wire.  Each installed page still counts one read_faults.
  for (const Backend backend : testable_backends()) {
    SCOPED_TRACE(backend_name(backend));
    DsmConfig cfg;
    cfg.backend = backend;
    Cluster cluster(2, cfg);
    const std::size_t page = cluster.space().page_bytes();
    const std::size_t n = 2 * page / sizeof(int);
    const GlobalAddr arr = cluster.alloc(2 * page, /*home=*/0);
    const Cluster::JobResult job =
        cluster.await(cluster.submit([&](Node& node) {
          std::vector<int> v(n);
          if (node.id() == 0) {
            std::iota(v.begin(), v.end(), 7);
            node.write_bytes(arr, reinterpret_cast<const std::byte*>(v.data()),
                             v.size() * sizeof(int));
            node.setcv(0);
          } else {
            node.waitcv(0);
            node.read_bytes(arr, reinterpret_cast<std::byte*>(v.data()),
                            v.size() * sizeof(int));
            node.set_result(as_bytes(v));
          }
        }));
    std::vector<int> want(n);
    std::iota(want.begin(), want.end(), 7);
    EXPECT_EQ(as_ints(job.results[1]), want);
    const NodeStats& waiter = job.stats.node[1];
    EXPECT_EQ(waiter.grant_pages, 2u);
    EXPECT_EQ(waiter.read_faults, 2u);
    EXPECT_EQ(waiter.bulk_fetches, 0u);
    EXPECT_EQ(waiter.cache_hits, 2u);
    const net::TrafficCounters& sent = job.stats.traffic[1];
    EXPECT_EQ(sent.messages[static_cast<std::size_t>(net::MsgType::kGetPage)],
              0u);
    EXPECT_EQ(sent.messages[static_cast<std::size_t>(net::MsgType::kGetPages)],
              0u);
  }
}

TEST(CvGrant, ConcurrentWritersDirtyCopyIsFlushedNotOverwritten) {
  // The waiter holds a dirty copy of the noticed page (it wrote word 0)
  // while node 0 writes word 1 at home and signals.  The grant carries the
  // page, but installing it would lose word 0: the dirty copy is flushed
  // home and dropped instead, and the next read fetches both writes.
  for (const Backend backend : testable_backends()) {
    SCOPED_TRACE(backend_name(backend));
    DsmConfig cfg;
    cfg.backend = backend;
    Cluster cluster(2, cfg);
    const GlobalAddr x = cluster.alloc(2 * sizeof(int), /*home=*/0);
    const Cluster::JobResult job =
        cluster.await(cluster.submit([&](Node& node) {
          if (node.id() == 0) {
            node.write<int>(x + sizeof(int), 22);
            node.setcv(0);
            node.barrier();
            node.set_result(as_bytes({node.read<int>(x)}));
          } else {
            node.write<int>(x, 11);
            node.waitcv(0);
            node.set_result(
                as_bytes({node.read<int>(x), node.read<int>(x + sizeof(int))}));
            node.barrier();
          }
        }));
    EXPECT_EQ(as_ints(job.results[1]), (std::vector<int>{11, 22}));
    EXPECT_EQ(as_ints(job.results[0]), std::vector<int>{11});  // at home
    const NodeStats& waiter = job.stats.node[1];
    EXPECT_EQ(waiter.grant_pages, 0u);  // the carried copy was discarded
    EXPECT_EQ(waiter.diffs_sent, 1u);
    EXPECT_GE(waiter.invalidations, 1u);
    EXPECT_EQ(waiter.read_faults, 2u);  // the write fault, then the re-read
  }
}

TEST(Cluster, SpmdProgramSeesOwnRank) {
  Cluster cluster(5);
  const GlobalAddr res = cluster.alloc(5 * sizeof(int), /*home=*/0);
  cluster.run([&](Node& node) {
    node.write<int>(res + node.id() * sizeof(int),
                    node.nodes() == 5 ? node.id() : -1);
    node.barrier();
  });
  const std::vector<int> ranks = read_back(cluster, res, 5);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(ranks[static_cast<std::size_t>(i)], i);
}

TEST(Cluster, ProgramExceptionPropagates) {
  Cluster cluster(2);
  EXPECT_THROW(cluster.run([](Node& node) {
    if (node.id() == 1) throw std::runtime_error("boom");
    // Node 0 would block forever at this barrier without error unwinding.
    node.barrier();
  }),
               std::runtime_error);
}

}  // namespace
}  // namespace gdsm::dsm
