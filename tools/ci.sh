#!/usr/bin/env bash
# The repository's CI gate, runnable locally or from any CI provider:
#
#   tools/ci.sh            # configure + build + tier1 + bench_smoke + fuzz
#   tools/ci.sh --tsan     # additionally build the tsan preset and run the
#                          # concurrency suites under ThreadSanitizer
#
# Stages:
#   1. docs link check         -- every relative link in README.md and
#                                 docs/*.md resolves; every doc is reachable
#                                 from the README documentation map
#   2. configure + build (Release, build/)
#   3. ctest -L tier1          -- the correctness gate (see ROADMAP.md)
#   4. kernel dispatch         -- tier1 re-run once per SIMD backend this
#                                 host supports besides the auto pick
#                                 (GDSM_KERNEL=scalar|avx2 next to the
#                                 default striped-avx2; docs/KERNELS.md)
#   5. affine dispatch         -- oracle-verified --gap=affine service run
#                                 once per backend (docs/ALGORITHMS.md)
#   6. DSM flake gate          -- the DSM protocol suites repeated 10x
#                                 pinned to one CPU, on both backends
#                                 (GDSM_BACKEND=threads|process), so an
#                                 interleaving-dependent failure shows up
#   7. proc_smoke              -- the DSM/strategy/oracle/db suites re-run
#                                 with the protocol hosted in real OS
#                                 processes (GDSM_BACKEND=process: shm
#                                 segments, SIGSEGV fetch-on-fault, socket
#                                 transport), plus a fault-plan fuzz sweep,
#                                 a db fuzz sweep and an oracle-verified
#                                 two-worker db service burst on that
#                                 backend (docs/DESIGN.md)
#   8. ctest -L bench_smoke    -- tiny benches, schema-validated reports
#   9. fuzz_align, 30 s budget -- differential fuzz over the fault matrix
#  10. service_smoke           -- 5 s oracle-verified loadgen burst against
#                                 the alignment service, mixed gap models
#                                 (docs/SERVICE.md)
#  11. db_smoke                -- database serving gate: oracle-verified
#                                 --db loadgen burst + db fuzz sweep in the
#                                 Release tree, then the db suite, a db
#                                 fuzz replay, the striped overflow-
#                                 escalation suite and the job-scratch
#                                 suite rebuilt and re-run under
#                                 Address/UBSanitizer (docs/SERVICE.md)
#  12. db_scan                 -- the filtration scan and the batch kernel:
#                                 survivor sets vs an independent bound,
#                                 hit-for-hit identity vs the brute-force
#                                 oracle on the direct and cluster paths,
#                                 batch scores lane for lane vs the
#                                 reference kernel and the persisted
#                                 q-gram index round-trip (corrupted
#                                 checksum rejected) in the Release tree AND
#                                 under Address/UBSanitizer, plus
#                                 GDSM_KERNEL=scalar (per-fragment kernel)
#                                 and GDSM_DB_BOUND=scalar (scalar bound)
#                                 reruns of the db suites and a db fuzz
#                                 sweep covering both fallbacks
#                                 (docs/SERVICE.md "Database serving")
#  13. perfbench selftest      -- builds the serving benchmark from src/ and
#                                 checks its oracle gate passes an honest
#                                 run and catches a corrupted answer
#                                 (perfbench/README.md)
#  14. (--tsan) TSan build + the dsm/fault/oracle/service/db suites raced
#      under ThreadSanitizer (admission must stay deadlock-free; the preset
#      builds the same AVX2 kernel objects as the Release build;
#      the process backend is exercised by stage 7, not here -- TSan does
#      not follow children across fork)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
RUN_TSAN=0
for arg in "$@"; do
  case "$arg" in
    --tsan) RUN_TSAN=1 ;;
    *) echo "usage: tools/ci.sh [--tsan]" >&2; exit 2 ;;
  esac
done

# Stage 1: the documentation is part of the interface — a broken relative
# link or an orphaned docs/ page fails CI before anything is compiled.
echo "==> docs link check"
DOCS_FAIL=0
for f in README.md docs/*.md; do
  # Inline markdown link targets, web links and pure #anchors excluded;
  # in-page anchors on relative links are stripped before the existence test.
  links="$(grep -oE '\]\([^)]+\)' "$f" | sed -E 's/^\]\(//; s/\)$//' || true)"
  for link in $links; do
    case "$link" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    target="${link%%#*}"
    [ -n "$target" ] || continue
    if [ ! -e "$(dirname "$f")/$target" ]; then
      echo "ci.sh: broken link in $f: $link" >&2
      DOCS_FAIL=1
    fi
  done
done
# Every docs/ page must be reachable from the README documentation map.
for doc in docs/*.md; do
  if ! grep -q "$(basename "$doc")" README.md; then
    echo "ci.sh: $doc is not linked from README.md" >&2
    DOCS_FAIL=1
  fi
done
[ "$DOCS_FAIL" -eq 0 ] || exit 1

echo "==> configure + build (Release)"
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

echo "==> ctest -L tier1"
ctest --test-dir build -L tier1 --output-on-failure -j "$JOBS"

# The default pass above ran on the auto-picked (widest) backend; repeat the
# gate with dispatch pinned to every other backend this host can run, so the
# scalar reference and each vector path stay release-gated even on AVX2 hosts.
ACTIVE_BACKEND="$(build/tools/kernel_info --active)"
for backend in $(build/tools/kernel_info); do
  [ "$backend" = "$ACTIVE_BACKEND" ] && continue
  echo "==> ctest -L tier1 (GDSM_KERNEL=$backend)"
  GDSM_KERNEL="$backend" ctest --test-dir build -L tier1 \
    --output-on-failure -j "$JOBS"
done

# The affine (Gotoh) mode rides the same dispatch: run an oracle-verified
# service batch with --gap=affine pinned to every backend, so each vector
# path's three-matrix sweep is release-gated against the serial Gotoh
# reference end-to-end (admission -> scheduler -> kernels -> verify).
for backend in $(build/tools/kernel_info); do
  echo "==> affine dispatch (GDSM_KERNEL=$backend, --gap=affine)"
  GDSM_KERNEL="$backend" build/tools/align_serve --queries=8 --subjects=2 \
    --subject-len=1500 --query-len=200 --gap=affine --verify --quiet
done

# Flake gate for the protocol: one CPU forces the node, service and
# transport threads to interleave at every preemption point, and ten
# repeats on each backend give a rare ordering bug room to show.
for backend in threads process; do
  echo "==> DSM flake gate (GDSM_BACKEND=$backend, taskset -c 0, x10)"
  for t in dsm_test dsm_stress_test fault_injection_test \
           cluster_submit_test proc_test; do
    GDSM_BACKEND="$backend" taskset -c 0 "build/tests/$t" \
      --gtest_repeat=10 --gtest_brief=1
  done
done

# The execution-backend counterpart: the tier-1 passes above ran the protocol
# across threads in one address space; re-run the DSM-facing
# suites with the cluster hosted in real OS processes (shm_open/mmap pages,
# mprotect+SIGSEGV fetch-on-fault, Unix-socket transport), so the paper's
# workstation model stays release-gated end to end.  proc_test adds the
# backend-specific gates (killed child surfaces as a failure, not a hang).
# ASAN_OPTIONS lets the user SIGSEGV handler coexist with sanitized builds
# should this stage ever run against one; harmless on the Release tree.
echo "==> proc_smoke (GDSM_BACKEND=process)"
PROC_ASAN="handle_segv=0:allow_user_segv_handler=1${ASAN_OPTIONS:+:$ASAN_OPTIONS}"
for t in proc_test dsm_test dsm_stress_test fault_injection_test \
         differential_oracle_test cluster_submit_test strategy_test svc_test \
         db_test db_scan_test; do
  echo "---- $t (process backend)"
  GDSM_BACKEND=process ASAN_OPTIONS="$PROC_ASAN" \
    "build/tests/$t" --gtest_brief=1
done
# A short differential fuzz on the process backend sweeps the fault-plan
# matrix (drops, delays, reorders, partitions) over forked node processes.
GDSM_BACKEND=process ASAN_OPTIONS="$PROC_ASAN" \
  build/tools/fuzz_align --budget-s=10 --quiet
# The database oracle over forked nodes: db_query vs brute_force_hits
# fuzzed directly on the cluster, then an oracle-verified db burst through
# a two-worker service, so two workers' jobs share the process cluster.
GDSM_BACKEND=process ASAN_OPTIONS="$PROC_ASAN" \
  build/tools/fuzz_align --db --budget-s=10 --quiet
GDSM_BACKEND=process ASAN_OPTIONS="$PROC_ASAN" \
  build/tools/loadgen --db-gen=3 --subject-len=1200 --query-len=150 \
  --rate=150 --duration-s=2 --queue-cap=512 --min-score=40 --workers=2 \
  --quiet

echo "==> ctest -L bench_smoke"
ctest --test-dir build -L bench_smoke --output-on-failure

echo "==> fuzz_align (30 s budget)"
build/tools/fuzz_align --budget-s=30 --quiet

echo "==> service_smoke (5 s oracle-verified loadgen, mixed gap models)"
build/tools/loadgen --rate=120 --duration-s=5 --subjects=2 \
  --subject-len=2000 --query-len=250 --queue-cap=512 --min-in-flight=4 \
  --gap=mixed --quiet

echo "==> db_smoke (oracle-verified database serving + ASan re-run)"
# Release-tree gate: an open-loop database burst judged against the serial
# all-pairs oracle, then a short differential fuzz over the fault matrix.
build/tools/loadgen --db-gen=3 --subject-len=1200 --query-len=150 \
  --rate=150 --duration-s=2 --queue-cap=512 --min-score=40 --quiet
build/tools/fuzz_align --db --budget-s=10 --quiet
# The same surfaces under Address/UBSanitizer: the db suite (SubjectDb,
# oracle, service path), one seeded db fuzz replay, and the striped
# overflow-escalation suite — the 8->16-bit re-run recycles thread-local
# scratch rows at a different lane width, exactly where a stale-size or
# out-of-bounds bug would hide (docs/KERNELS.md).
cmake -B build-asan -S . -DGDSM_SANITIZE=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-asan -j "$JOBS" --target db_test fuzz_align \
  striped_precision_test db_scan_test batch_kernel_test cluster_submit_test
build-asan/tests/db_test --gtest_brief=1
build-asan/tools/fuzz_align --db --seed=1 --faults=none --quiet
echo "==> striped escalation suite (ASan)"
build-asan/tests/striped_precision_test --gtest_brief=1
# Job scratch pages are pooled and handed to the next query.  Pooled heap
# pages are ASan-poisoned, so a use of a released run shows up here
# (DESIGN.md "Global-memory lifecycle").
echo "==> job scratch suite (ASan)"
build-asan/tests/cluster_submit_test --gtest_brief=1 \
  --gtest_filter='ClusterScratch.*'

echo "==> db_scan (filtration scan + batch kernel + persisted index)"
# Survivor sets against an independent per-fragment bound, direct vs
# cluster hit-for-hit identity against the brute-force oracle, the batch
# kernel lane for lane against the reference kernel at its bound edges and
# on ragged tiles, and the persisted-index round-trip with its corrupted-
# checksum reject — in the Release tree, then again under ASan/UBSan: the
# batch kernel recycles thread-local tile and column buffers across tiles
# of different widths and lengths, exactly where a stale-size or
# out-of-bounds bug would hide.
build/tests/db_scan_test --gtest_brief=1
build/tests/batch_kernel_test --gtest_brief=1
build-asan/tests/db_scan_test --gtest_brief=1
build-asan/tests/batch_kernel_test --gtest_brief=1
# The db suites and a db fuzz sweep on each fallback the vector paths
# shadow: GDSM_KERNEL=scalar scores every survivor with the per-fragment
# reference kernel instead of the batch kernel (simd/batch.h), and
# GDSM_DB_BOUND=scalar runs the per-fragment bound instead of the AVX2
# batch (bound_batch.h).  Each must give identical hits.
for fallback in GDSM_KERNEL=scalar GDSM_DB_BOUND=scalar; do
  echo "---- db suites ($fallback)"
  env "$fallback" build/tests/db_scan_test --gtest_brief=1
  env "$fallback" build/tests/db_test --gtest_brief=1
  env "$fallback" build/tools/fuzz_align --db --budget-s=10 --quiet
done

# The serving benchmark builds its own copy of src/ (.bench_build/), so a
# src/ change that breaks the harness build or its oracle gate fails here.
echo "==> perfbench selftest"
python3 perfbench/selftest.py

if [ "$RUN_TSAN" -eq 1 ]; then
  echo "==> TSan build + concurrency suites"
  cmake -B build-tsan -S . -DGDSM_TSAN=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-tsan -j "$JOBS" --target \
    dsm_stress_test fault_injection_test differential_oracle_test mp_test \
    dsm_test cluster_submit_test svc_test db_test loadgen
  for t in dsm_stress_test fault_injection_test differential_oracle_test \
           mp_test dsm_test cluster_submit_test svc_test db_test; do
    echo "---- $t (tsan)"
    TSAN_OPTIONS="halt_on_error=1" "build-tsan/tests/$t"
  done
  # Scratch is released on the cluster's engine thread while other
  # submitters allocate and zero pooled pages next to a running job's
  # service threads: race the job-scratch suite a few more times.
  echo "---- cluster_submit_test ClusterScratch.* x3 (tsan)"
  TSAN_OPTIONS="halt_on_error=1" build-tsan/tests/cluster_submit_test \
    --gtest_filter='ClusterScratch.*' --gtest_repeat=3 --gtest_brief=1
  # Admission under load must be deadlock-free: a short raced loadgen burst.
  echo "---- loadgen (tsan)"
  TSAN_OPTIONS="halt_on_error=1" build-tsan/tools/loadgen --rate=200 \
    --duration-s=2 --subjects=2 --subject-len=1500 --query-len=200 \
    --queue-cap=256 --quiet
  # And the same discipline for database traffic (sharded scan + filter).
  echo "---- loadgen --db (tsan)"
  TSAN_OPTIONS="halt_on_error=1" build-tsan/tools/loadgen --db-gen=2 \
    --subject-len=1000 --query-len=150 --rate=150 --duration-s=2 \
    --queue-cap=256 --min-score=40 --quiet
fi

echo "==> CI OK"
