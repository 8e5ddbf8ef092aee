// DSM torture tests: randomized (but seeded/deterministic) workloads that
// exercise diffs, invalidations, replacement and the managers together,
// with exact expected outcomes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "dsm/cluster.h"
#include "util/rng.h"

namespace gdsm::dsm {
namespace {

TEST(DsmStress, RandomDisjointWritersManyRounds) {
  constexpr int P = 4;
  constexpr int kSlots = 512;
  constexpr int kRounds = 12;
  DsmConfig cfg;
  cfg.page_bytes = 256;  // many slots per page: heavy multi-writer merging
  Cluster cluster(P, cfg);
  const GlobalAddr arr = cluster.alloc_striped(kSlots * sizeof(std::uint32_t));

  std::atomic<int> mismatches{0};
  cluster.run([&](Node& node) {
    node.barrier();
    for (int round = 0; round < kRounds; ++round) {
      // Slot k is owned by node k % P; owners write a value derived from
      // (round, slot) that every node can predict.
      for (int k = node.id(); k < kSlots; k += P) {
        node.write<std::uint32_t>(
            arr + static_cast<GlobalAddr>(k) * sizeof(std::uint32_t),
            static_cast<std::uint32_t>(round * 100'000 + k));
      }
      node.barrier();
      // Every node validates a seeded random sample of ALL slots.
      Rng rng(1000u * static_cast<unsigned>(round) +
              static_cast<unsigned>(node.id()));
      for (int probe = 0; probe < 64; ++probe) {
        const auto k = static_cast<int>(rng.below(kSlots));
        const auto v = node.read<std::uint32_t>(
            arr + static_cast<GlobalAddr>(k) * sizeof(std::uint32_t));
        if (v != static_cast<std::uint32_t>(round * 100'000 + k)) ++mismatches;
      }
      node.barrier();
    }
  });
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(cluster.stats().total_node().diffs_sent, 0u);
  EXPECT_GT(cluster.stats().total_node().invalidations, 0u);
}

TEST(DsmStress, RandomLockProtectedLedger) {
  constexpr int P = 4;
  constexpr int kAccounts = 8;
  constexpr int kOpsPerNode = 120;
  Cluster cluster(P);
  const GlobalAddr ledger = cluster.alloc(kAccounts * sizeof(long), 0);

  cluster.run([&](Node& node) {
    Rng rng(77u + static_cast<unsigned>(node.id()));
    for (int op = 0; op < kOpsPerNode; ++op) {
      const auto account = static_cast<int>(rng.below(kAccounts));
      node.lock(account);
      const GlobalAddr a = ledger + static_cast<GlobalAddr>(account) * sizeof(long);
      node.write<long>(a, node.read<long>(a) + 1);
      node.unlock(account);
    }
    node.barrier();
  });

  long total = 0;
  cluster.run([&](Node& node) {
    if (node.id() == 0) {
      long sum = 0;
      for (int k = 0; k < kAccounts; ++k) {
        sum += node.read<long>(ledger + static_cast<GlobalAddr>(k) * sizeof(long));
      }
      total = sum;
    }
  });
  EXPECT_EQ(total, static_cast<long>(P) * kOpsPerNode);
}

TEST(DsmStress, CvTokenRing) {
  constexpr int P = 5;
  constexpr int kLaps = 40;
  Cluster cluster(P);
  const GlobalAddr token = cluster.alloc(sizeof(long), 0);
  std::atomic<long> final_value{-1};

  // cv id p = "token available for node p".
  cluster.run([&](Node& node) {
    const int p = node.id();
    if (p == 0) {
      node.write<long>(token, 0);
      node.setcv(1);  // hand to node 1
    }
    for (int lap = 0; lap < kLaps; ++lap) {
      node.waitcv(p);  // wait for the token
      const long v = node.read<long>(token) + p + 1;
      node.write<long>(token, v);
      if (p == 0 && lap + 1 == kLaps) {
        final_value = v;
        break;
      }
      node.setcv((p + 1) % P);
    }
    node.barrier();
  });
  // Each full lap adds sum(1..P); the final write by node 0 closes lap kLaps.
  // Token path: 1,2,3,4,0 repeated; node 0 sees it once per lap.
  const long per_lap = P * (P + 1) / 2;
  EXPECT_EQ(final_value, static_cast<long>(kLaps) * per_lap);
}

TEST(DsmStress, TinyCacheThrashKeepsCoherence) {
  DsmConfig cfg;
  cfg.page_bytes = 128;
  cfg.cache_pages = 1;  // every remote access evicts
  constexpr int kPages = 24;
  Cluster cluster(2, cfg);
  const GlobalAddr arr = cluster.alloc(kPages * 128, /*home=*/0);
  std::atomic<long> sum{0};
  cluster.run([&](Node& node) {
    if (node.id() == 1) {
      // Interleave writes across pages so each one evicts a dirty victim.
      for (int round = 0; round < 3; ++round) {
        for (int pgi = 0; pgi < kPages; ++pgi) {
          const GlobalAddr a = arr + static_cast<GlobalAddr>(pgi) * 128 +
                               static_cast<GlobalAddr>(round) * sizeof(int);
          node.write<int>(a, round * 1000 + pgi);
        }
      }
    }
    node.barrier();
    if (node.id() == 0) {
      long total = 0;
      for (int round = 0; round < 3; ++round) {
        for (int pgi = 0; pgi < kPages; ++pgi) {
          const GlobalAddr a = arr + static_cast<GlobalAddr>(pgi) * 128 +
                               static_cast<GlobalAddr>(round) * sizeof(int);
          total += node.read<int>(a);
        }
      }
      sum = total;
    }
  });
  long expected = 0;
  for (int round = 0; round < 3; ++round) {
    for (int pgi = 0; pgi < kPages; ++pgi) expected += round * 1000 + pgi;
  }
  EXPECT_EQ(sum, expected);
  EXPECT_GT(cluster.stats().node[1].evictions, 20u);
}

TEST(DsmStress, LockNoticeLogGcSurvivesLongRuns) {
  // Hammer one lock past the notice-log GC threshold (1024 entries) from
  // both nodes; coherence must be unaffected by the log trimming.
  constexpr int kIters = 800;  // x2 nodes = 1600 log entries
  Cluster cluster(2);
  const GlobalAddr counter = cluster.alloc(sizeof(int), 0);
  cluster.run([&](Node& node) {
    for (int k = 0; k < kIters; ++k) {
      node.lock(3);
      node.write<int>(counter, node.read<int>(counter) + 1);
      node.unlock(3);
    }
    node.barrier();
  });
  int final_value = 0;
  cluster.run([&](Node& node) {
    if (node.id() == 0) final_value = node.read<int>(counter);
  });
  EXPECT_EQ(final_value, 2 * kIters);
}

struct StressCase {
  int nodes;
  std::size_t page_bytes;
  std::size_t cache_pages;
};

std::string stress_name(const testing::TestParamInfo<StressCase>& info) {
  return "n" + std::to_string(info.param.nodes) + "_pg" +
         std::to_string(info.param.page_bytes) + "_cache" +
         std::to_string(info.param.cache_pages);
}

class DsmConfigSweep : public testing::TestWithParam<StressCase> {};

TEST_P(DsmConfigSweep, DisjointWritesSurviveAnyGeometry) {
  const auto& prm = GetParam();
  DsmConfig cfg;
  cfg.page_bytes = prm.page_bytes;
  cfg.cache_pages = prm.cache_pages;
  Cluster cluster(prm.nodes, cfg);
  constexpr int kSlots = 200;
  const GlobalAddr arr = cluster.alloc_striped(kSlots * sizeof(int));
  std::atomic<int> bad{0};
  cluster.run([&](Node& node) {
    for (int k = node.id(); k < kSlots; k += node.nodes()) {
      node.write<int>(arr + static_cast<GlobalAddr>(k) * sizeof(int), k * 7);
    }
    node.barrier();
    for (int k = 0; k < kSlots; ++k) {
      if (node.read<int>(arr + static_cast<GlobalAddr>(k) * sizeof(int)) !=
          k * 7) {
        ++bad;
      }
    }
  });
  EXPECT_EQ(bad, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DsmConfigSweep,
    testing::Values(StressCase{2, 4096, 4096}, StressCase{3, 256, 8},
                    StressCase{4, 128, 2}, StressCase{8, 1024, 16},
                    StressCase{5, 64, 1}, StressCase{6, 512, 3}),
    stress_name);

// The torture workload through the data plane: multi-writer release diffs
// (batch path), whole-array read_bytes validation (bulk-fetch path) and
// per-slot reads (demand faults) must all produce the exact values written.
TEST(CommPlane, MultiWriterScansStayCoherent) {
  constexpr int P = 4;
  // 2048 u32 slots over 256-byte pages = 32 pages, 8 homed per node: every
  // reader faces 3 multi-page remote home groups, so bulk fetch engages.
  constexpr int kSlots = 2048;
  constexpr int kRounds = 4;
  DsmConfig cfg;
  cfg.page_bytes = 256;
  Cluster cluster(P, cfg);
  const GlobalAddr arr = cluster.alloc_striped(kSlots * sizeof(std::uint32_t));

  std::atomic<int> mismatches{0};
  cluster.run([&](Node& node) {
    node.barrier();
    for (int round = 0; round < kRounds; ++round) {
      for (int k = node.id(); k < kSlots; k += P) {
        node.write<std::uint32_t>(
            arr + static_cast<GlobalAddr>(k) * sizeof(std::uint32_t),
            static_cast<std::uint32_t>(round * 100'000 + k));
      }
      node.barrier();
      // One multi-page read_bytes sweep plus per-slot sequential reads.
      std::vector<std::uint32_t> snap(kSlots);
      node.read_bytes(arr, reinterpret_cast<std::byte*>(snap.data()),
                      kSlots * sizeof(std::uint32_t));
      for (int k = 0; k < kSlots; ++k) {
        const auto want = static_cast<std::uint32_t>(round * 100'000 + k);
        if (snap[static_cast<std::size_t>(k)] != want) ++mismatches;
        if (node.read<std::uint32_t>(
                arr + static_cast<GlobalAddr>(k) * sizeof(std::uint32_t)) !=
            want) {
          ++mismatches;
        }
      }
      node.barrier();
    }
  });
  EXPECT_EQ(mismatches, 0);

  const NodeStats totals = cluster.stats().total_node();
  EXPECT_GT(totals.diff_batches_sent, 0u);
  EXPECT_GT(totals.bulk_fetches, 0u);
}

}  // namespace
}  // namespace gdsm::dsm
