// dsm_playground: the JIAJIA-like DSM substrate by itself.
//
//   build/examples/dsm_playground [--nodes=4]
//
// Three classic shared-memory idioms, with the protocol activity printed
// after each (page faults, twins/diffs, invalidations, message counts):
//   1. a lock-protected shared counter (mutual exclusion + coherence);
//   2. a producer/consumer pipeline over condition variables — exactly the
//      Strategy-1 border-cell handshake;
//   3. a barrier-synchronized multiple-writer page (each node writes its own
//      slice of ONE page; the home merges the diffs).
#include <exception>
#include <iostream>

#include "dsm/cluster.h"
#include "util/args.h"

namespace {

void print_stats(const char* what, const gdsm::dsm::DsmStats& stats) {
  const auto t = stats.total_node();
  std::cout << "  [" << what << "] faults=" << t.read_faults
            << " twins=" << t.write_faults << " diffs=" << t.diffs_sent
            << " (" << t.diff_bytes << " B) invalidations=" << t.invalidations
            << " locks=" << t.lock_acquires << " cv=" << t.cv_signals << "/"
            << t.cv_waits << " barriers=" << t.barriers
            << " msgs=" << stats.total_traffic().total_messages() << "\n\n";
}

int run(int argc, char** argv) {
  using namespace gdsm::dsm;
  const gdsm::Args args(argc, argv);
  const int nodes = static_cast<int>(args.get_int("nodes", 4));

  std::cout << "JIAJIA-like DSM playground, " << nodes << " nodes\n\n";

  // --- 1. lock-protected shared counter ---
  {
    Cluster cluster(nodes);
    const GlobalAddr counter = cluster.alloc(sizeof(int), /*home=*/0);
    cluster.run([&](Node& node) {
      for (int k = 0; k < 100; ++k) {
        node.lock(0);
        node.write<int>(counter, node.read<int>(counter) + 1);
        node.unlock(0);
      }
      node.barrier();
      if (node.id() == 0) {
        std::cout << "1. shared counter after " << 100 * node.nodes()
                  << " locked increments: " << node.read<int>(counter) << "\n";
      }
    });
    print_stats("locks", cluster.stats());
  }

  // --- 2. producer/consumer pipeline (the wave-front handshake) ---
  {
    Cluster cluster(nodes);
    std::vector<GlobalAddr> slots;
    for (int p = 0; p + 1 < nodes; ++p) {
      slots.push_back(cluster.alloc(sizeof(long), p));
    }
    cluster.run([&](Node& node) {
      const int p = node.id();
      constexpr int kRounds = 200;
      for (int r = 0; r < kRounds; ++r) {
        long value = r;
        if (p > 0) {
          node.waitcv(p - 1);  // data ready
          value = node.read<long>(slots[static_cast<std::size_t>(p - 1)]);
          node.setcv(nodes + p - 1);  // slot free
        }
        value += p + 1;
        if (p + 1 < nodes) {
          if (r > 0) node.waitcv(nodes + p);
          node.write<long>(slots[static_cast<std::size_t>(p)], value);
          node.setcv(p);
        } else if (r + 1 == kRounds) {
          // value = (r) + sum(1..nodes)
          std::cout << "2. pipeline delivered " << value << " (expected "
                    << (kRounds - 1) + nodes * (nodes + 1) / 2 << ")\n";
        }
      }
      node.barrier();
    });
    print_stats("pipeline", cluster.stats());
  }

  // --- 3. multiple writers on one page, merged at a barrier ---
  {
    Cluster cluster(nodes);
    const GlobalAddr arr =
        cluster.alloc(static_cast<std::size_t>(nodes) * sizeof(int), 0);
    cluster.run([&](Node& node) {
      node.write<int>(arr + node.id() * sizeof(int), (node.id() + 1) * 11);
      node.barrier();  // diffs travel home, write notices invalidate copies
      if (node.id() == nodes - 1) {
        int sum = 0;
        for (int i = 0; i < node.nodes(); ++i) {
          sum += node.read<int>(arr + i * sizeof(int));
        }
        std::cout << "3. multiple-writer page sums to " << sum << " (expected "
                  << 11 * nodes * (nodes + 1) / 2 << ")\n";
      }
      node.barrier();
    });
    print_stats("multi-writer", cluster.stats());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A bad argument (a size too small for the workload, a non-numeric
  // value, a node count the cluster refuses) is a usage error: report it
  // and exit 2 instead of aborting on the uncaught exception.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "dsm_playground: " << e.what() << "\n";
    return 2;
  }
}
