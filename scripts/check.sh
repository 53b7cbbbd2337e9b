#!/usr/bin/env bash
# Tier-1 verification: build + full ctest, three times — the default
# build, an AddressSanitizer build, and an UndefinedBehaviorSanitizer
# build — so the logic, the memory behavior and the arithmetic of the
# fault-injection and dynamic-maintenance paths are all exercised. The
# fault determinism test
# (same seed => bit-identical stats at any thread count) runs in both
# configurations; it is the one most likely to catch a nondeterministic
# recovery path.
#
# On top of that:
#  - a Release build of every library and tool with -Werror: GCC reports
#    some warnings (e.g. -Wrestrict on string concatenation) only at
#    -O3, which the default RelWithDebInfo build never reaches, while
#    servebench builds Release;
#  - an observability smoke run drives the CLI with --trace-out /
#    --metrics-out on `mpc partition` and `mpc update` and validates the
#    exported JSON (shape + required span/counter names) with
#    tools/trace_check;
#  - a crash-recovery smoke runs a journaled `mpc update`, SIGKILLs it
#    mid-stream, recovers with --recover, and diffs the recovered output
#    against an uninterrupted run;
#  - a remote-cluster chaos smoke runs `mpc serve --remote` over 4 real
#    `mpc site` worker processes, SIGKILLs one mid-reply, and checks both
#    recovery via supervisor respawn and coverage-bounded best-effort
#    degradation, plus SIGTERM graceful drain of worker and coordinator,
#    and requires `mpc site` and `mpc serve --remote` to refuse
#    --store=segment with exit 2;
#  - a live-introspection smoke drives `mpc top` / SIGUSR1 / the
#    slow-query log against a chaos remote serve run and validates a
#    retained per-query trace with `trace_check merged`;
#  - an adaptive-serving smoke replays a skewed workload through
#    `mpc serve --migrate` and checks that hot-vertex migration absorbs
#    the induced drift without a single full repartition;
#  - a localization smoke requires `mpc query` to contact one site of
#    eight for a LUBM query anchored at a constant, and `mpc explain` to
#    name that constant's owner; on a VP partitioning of the same sample
#    `mpc explain` must list each subquery's sites and `mpc query` must
#    count the same results;
#  - a serving-benchmark smoke replays a short dbpedia_log query-log
#    profile through servebench, whose oracle checks every answer;
#  - the tracer and metrics tests run under ThreadSanitizer, since their
#    whole point is lock-free recording from concurrent pool threads;
#    so do the RPC codec and RemoteCluster tests, whose clients share
#    one fleet's connections.
#
# Usage: scripts/check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

run_config() {
  local dir="$1"; shift
  echo "=== configure+build: ${dir} ($*) ==="
  cmake -B "${dir}" -S . "$@" >/dev/null
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== fault determinism test: ${dir} ==="
  "${dir}/tests/fault_tolerance_test" \
    --gtest_filter='FaultToleranceTest.SameSeedSameStatsAtAnyThreadCount'
  echo "=== full test suite: ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
}

# Release -Werror build of src/ and tools/ (no tests, benches or
# examples): no warning may reach the benchmark's build output.
release_werror() {
  echo "=== Release -Werror build: build-release ==="
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release \
    -DMPC_BUILD_TESTS=OFF -DMPC_BUILD_BENCHMARKS=OFF \
    -DMPC_BUILD_EXAMPLES=OFF -DCMAKE_CXX_FLAGS=-Werror >/dev/null
  cmake --build build-release -j "${JOBS}"
}

# Observability smoke: partition + stream updates with tracing on, then
# check the trace JSON parses as Chrome trace_event and names the
# pipeline stages, and the metrics JSON carries the selector/DSF and
# maintenance counters.
trace_smoke() {
  local dir="$1"
  echo "=== observability smoke: ${dir} ==="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  cat > "${tmp}/g.nt" <<'EOF'
<s:a> <p:knows> <s:b> .
<s:b> <p:knows> <s:c> .
<s:c> <p:knows> <s:a> .
<s:a> <p:likes> <s:d> .
<s:d> <p:likes> <s:e> .
<s:e> <p:worksAt> <s:f> .
<s:f> <p:worksAt> <s:g> .
<s:g> <p:knows> <s:h> .
<s:h> <p:likes> <s:a> .
<s:b> <p:worksAt> <s:f> .
<s:c> <p:likes> <s:e> .
<s:d> <p:knows> <s:g> .
EOF
  cat > "${tmp}/updates.ulog" <<'EOF'
+ <s:z> <p:new> <s:a> .
+ <s:z> <p:new> <s:b> .

- <s:a> <p:likes> <s:d> .
+ <s:y> <p:knows> <s:z> .
EOF
  "${dir}/tools/mpc" partition "${tmp}/g.nt" "${tmp}/part" --k=2 \
    --trace-out="${tmp}/trace.json" --metrics-out="${tmp}/metrics.json"
  "${dir}/tools/trace_check" trace "${tmp}/trace.json" \
    rdf.parse partition.run mpc.stage.select mpc.stage.coarsen \
    mpc.stage.uncoarsen mpc.select.iteration partition.materialize
  "${dir}/tools/trace_check" metrics "${tmp}/metrics.json" \
    mpc.selector.iterations mpc.dsf.union_edges partition.runs
  "${dir}/tools/mpc" update "${tmp}/g.nt" "${tmp}/part" \
    "${tmp}/updates.ulog" \
    --trace-out="${tmp}/utrace.json" --metrics-out="${tmp}/umetrics.json"
  "${dir}/tools/trace_check" trace "${tmp}/utrace.json" dynamic.apply_batch
  "${dir}/tools/trace_check" metrics "${tmp}/umetrics.json" \
    dynamic.batches dynamic.inserts dynamic.deletes
  echo "observability smoke passed"
}

# Serving smoke: replay a query file through `mpc serve` at concurrency
# 16 with a concurrent update stream. At this low load (bounded queue of
# 1024, 200 queries) nothing may be rejected or failed, and the exported
# metrics JSON must carry the serve.* counters. Run against the TSan
# build too, so the admission queue, snapshot publishing and the two
# caches get raced under a real data-race detector.
serve_smoke() {
  local dir="$1"
  echo "=== serving smoke: ${dir} ==="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  cat > "${tmp}/g.nt" <<'EOF'
<s:a> <p:knows> <s:b> .
<s:b> <p:knows> <s:c> .
<s:c> <p:knows> <s:a> .
<s:a> <p:likes> <s:d> .
<s:d> <p:likes> <s:e> .
<s:e> <p:worksAt> <s:f> .
<s:f> <p:worksAt> <s:g> .
<s:g> <p:knows> <s:h> .
<s:h> <p:likes> <s:a> .
<s:b> <p:worksAt> <s:f> .
<s:c> <p:likes> <s:e> .
<s:d> <p:knows> <s:g> .
EOF
  cat > "${tmp}/q.txt" <<'EOF'
SELECT * WHERE { ?x <p:knows> ?y . }
SELECT * WHERE { ?x <p:likes> ?y . }
SELECT * WHERE { ?x <p:knows> ?y . ?y <p:likes> ?z . }
SELECT * WHERE { ?x <p:worksAt> ?y . }
EOF
  cat > "${tmp}/updates.ulog" <<'EOF'
+ <s:z> <p:new> <s:a> .
+ <s:z> <p:new> <s:b> .

- <s:a> <p:likes> <s:d> .
+ <s:y> <p:knows> <s:z> .
EOF
  "${dir}/tools/mpc" partition "${tmp}/g.nt" "${tmp}/part" --k=2
  local out
  out="$("${dir}/tools/mpc" serve "${tmp}/g.nt" "${tmp}/part" \
    --queries="${tmp}/q.txt" --concurrency=16 --repeat=50 \
    --updates="${tmp}/updates.ulog" --update-interval-ms=1 \
    --metrics-out="${tmp}/metrics.json")"
  echo "${out}"
  grep -q "^rejected: 0$" <<< "${out}"
  grep -q "^failed:   0$" <<< "${out}"
  grep -q "^served:   200/200" <<< "${out}"
  "${dir}/tools/trace_check" metrics "${tmp}/metrics.json" \
    serve.admitted serve.queries serve.result_cache.hits \
    serve.plan_cache.misses exec.queries
  echo "serving smoke passed"
}

# Adaptive-serving smoke: a skewed workload file makes one internal
# property hot (weight 21 vs 1), then the update stream attaches a new
# vertex whose edges all use that hot property into the other site. The
# integer |L_cross| growth (2) stays under the slack (4), so only the
# WEIGHTED threshold fires — and hot-vertex migration must absorb it by
# moving the one misplaced vertex, with zero full repartitions. The
# replay is qps-paced so both update batches land while queries are
# still in flight (serve stops the updater once the replay drains).
adaptive_smoke() {
  local dir="$1"
  echo "=== adaptive-serving smoke: ${dir} ==="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  cat > "${tmp}/g.nt" <<'EOF'
<s:a1> <p:p> <s:a2> .
<s:a2> <p:p> <s:a3> .
<s:a3> <p:p> <s:a1> .
<s:b1> <p:p> <s:b2> .
<s:b2> <p:p> <s:b3> .
<s:b3> <p:p> <s:b1> .
<s:b1> <p:hot> <s:b2> .
EOF
  cat > "${tmp}/q.txt" <<'EOF'
SELECT * WHERE { ?x <p:hot> ?y . }
SELECT * WHERE { ?x <p:p> ?y . }
EOF
  for _ in $(seq 1 20); do
    echo 'SELECT * WHERE { ?x <p:hot> ?y . }'
  done > "${tmp}/hot.workload"
  cat > "${tmp}/updates.ulog" <<'EOF'
+ <s:mig> <p:anchor> <s:a1> .

+ <s:mig> <p:hot> <s:b1> .
+ <s:mig> <p:hot> <s:b2> .
+ <s:mig> <p:hot> <s:b3> .
EOF
  "${dir}/tools/mpc" partition "${tmp}/g.nt" "${tmp}/part" --k=2
  local out
  out="$("${dir}/tools/mpc" serve "${tmp}/g.nt" "${tmp}/part" \
    --queries="${tmp}/q.txt" --concurrency=4 --repeat=25 --qps=200 \
    --updates="${tmp}/updates.ulog" --update-interval-ms=1 \
    --policy=threshold --min-lcross-slack=4 \
    --workload="${tmp}/hot.workload" --migrate --epsilon=0.3)"
  echo "${out}"
  grep -q "^failed:   0$" <<< "${out}"
  grep -q "(2 update batches published)" <<< "${out}"
  # >= 1 hot-vertex move and zero repartitions: the cheaper escalation
  # level absorbed the drift on its own.
  grep -Eq "^migrated: [1-9][0-9,]* hot-vertex moves, 0 repartitions" \
    <<< "${out}"
  grep -q "weighted |L_cross| 1.00 (seed 0.00)" <<< "${out}"
  echo "adaptive-serving smoke passed"
}

# Chaos smoke for the real multi-process runtime: `mpc serve --remote`
# spawns 4 `mpc site` worker processes over socket RPC.
#  A) One worker SIGKILLs itself mid-reply (--kill-site/--kill-after-
#     queries); the supervisor respawns it and the retried RPC completes
#     every query: zero failures, exit 0. The segments the coordinator
#     packed for its workers then pass segment_check's deep validation.
#  B) Same crash with the restart budget pinned to zero and best-effort
#     enabled: the coordinator must degrade cleanly (exit 0) and report a
#     completeness bound, which must equal the ComputeReplicaCoverage
#     bound the in-process simulator prints for the same dead site.
#  C) Graceful drain: a standalone site worker and a streaming remote
#     coordinator both exit 0 on SIGTERM, finishing in-flight work.
chaos_smoke() {
  local dir="$1"
  echo "=== remote-cluster chaos smoke: ${dir} ==="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  cat > "${tmp}/g.nt" <<'EOF'
<s:a> <p:knows> <s:b> .
<s:b> <p:knows> <s:c> .
<s:c> <p:knows> <s:a> .
<s:a> <p:likes> <s:d> .
<s:d> <p:likes> <s:e> .
<s:e> <p:worksAt> <s:f> .
<s:f> <p:worksAt> <s:g> .
<s:g> <p:knows> <s:h> .
<s:h> <p:likes> <s:a> .
<s:b> <p:worksAt> <s:f> .
<s:c> <p:likes> <s:e> .
<s:d> <p:knows> <s:g> .
EOF
  cat > "${tmp}/q.txt" <<'EOF'
SELECT * WHERE { ?x <p:knows> ?y . }
SELECT * WHERE { ?x <p:likes> ?y . }
SELECT * WHERE { ?x <p:knows> ?y . ?y <p:likes> ?z . }
SELECT * WHERE { ?x <p:worksAt> ?y . }
EOF
  "${dir}/tools/mpc" partition "${tmp}/g.nt" "${tmp}/part" --k=4

  echo "--- A: mid-reply SIGKILL survived via supervisor respawn ---"
  local out
  out="$("${dir}/tools/mpc" serve "${tmp}/g.nt" "${tmp}/part" \
    --queries="${tmp}/q.txt" --remote --socket-dir="${tmp}" \
    --concurrency=4 --repeat=25 \
    --kill-site=1 --kill-after-queries=2 \
    --retries=3 --retry-backoff-ms=300)"
  echo "${out}"
  grep -q "remote cluster: 4 site processes up" <<< "${out}"
  grep -q "^failed:   0$" <<< "${out}"
  grep -q "^served:   100/100" <<< "${out}"
  "${dir}/tools/segment_check" "${tmp}/part"

  echo "--- B: exhausted restart budget -> coverage-bounded best effort ---"
  out="$("${dir}/tools/mpc" serve "${tmp}/g.nt" "${tmp}/part" \
    --queries="${tmp}/q.txt" --remote --socket-dir="${tmp}" \
    --concurrency=4 --repeat=10 \
    --kill-site=1 --kill-after-queries=1 --max-restarts=0 \
    --partial-results=best-effort --retries=1 --retry-backoff-ms=20)"
  echo "${out}"
  grep -q "^failed:   0$" <<< "${out}"
  local remote_bound sim_bound
  remote_bound="$(grep -oE 'completeness>=[0-9.]+%' <<< "${out}")"
  [[ -n "${remote_bound}" ]]
  # The simulator computes its bound from ComputeReplicaCoverage over the
  # same partitioning; the real fleet must report the identical figure.
  sim_bound="$("${dir}/tools/mpc" query "${tmp}/g.nt" "${tmp}/part" \
    'SELECT * WHERE { ?x <p:knows> ?y . }' \
    --fail-sites=1 --partial-results=best-effort \
    | grep -oE 'completeness>=[0-9.]+%')"
  echo "remote bound: ${remote_bound}  simulator bound: ${sim_bound}"
  [[ "${remote_bound}" == "${sim_bound}" ]]

  echo "--- --store=segment is refused by site and serve --remote ---"
  local refused=0
  "${dir}/tools/mpc" site "${tmp}/part" --site=0 \
    --socket="${tmp}/refused.sock" --store=segment \
    > "${tmp}/refused.out" 2>&1 || refused=$?
  [[ "${refused}" -eq 2 ]]
  grep -q -- "--store=segment" "${tmp}/refused.out"
  refused=0
  "${dir}/tools/mpc" serve "${tmp}/g.nt" "${tmp}/part" \
    --queries="${tmp}/q.txt" --remote --socket-dir="${tmp}" \
    --store=segment > "${tmp}/refused.out" 2>&1 || refused=$?
  [[ "${refused}" -eq 2 ]]
  grep -q -- "--store=segment" "${tmp}/refused.out"

  echo "--- C: SIGTERM graceful drain (worker + coordinator) ---"
  "${dir}/tools/mpc" site "${tmp}/part" \
    --site=0 --socket="${tmp}/drain.sock" > "${tmp}/site.out" &
  local site_pid=$!
  for _ in $(seq 1 100); do
    [[ -S "${tmp}/drain.sock" ]] && break
    sleep 0.1
  done
  kill -TERM "${site_pid}"
  local rc=0
  wait "${site_pid}" || rc=$?
  if [[ "${rc}" -ne 0 ]]; then
    echo "site worker exited ${rc} on SIGTERM (want 0)" >&2
    return 1
  fi
  grep -q "drained" "${tmp}/site.out"

  "${dir}/tools/mpc" serve "${tmp}/g.nt" "${tmp}/part" \
    --queries="${tmp}/q.txt" --remote --socket-dir="${tmp}" \
    --concurrency=4 --repeat=100000 --qps=50 > "${tmp}/serve.out" &
  local serve_pid=$!
  sleep 3
  kill -TERM "${serve_pid}"
  rc=0
  wait "${serve_pid}" || rc=$?
  if [[ "${rc}" -ne 0 ]]; then
    echo "coordinator exited ${rc} on SIGTERM (want 0)" >&2
    cat "${tmp}/serve.out" >&2
    return 1
  fi
  grep -q "^drained:" "${tmp}/serve.out"
  grep -q "^failed:   0$" "${tmp}/serve.out"
  echo "remote-cluster chaos smoke passed"
}

# Out-of-core segment smoke: pack a partitioning into .mpcseg segments,
# validate them with segment_check, and require `mpc query` to print the
# identical classification + result rows on the segment backend as on
# the in-memory backend for the whole query set (only the timing figures
# may differ). Then serve the query mix with a concurrent update stream
# on --store=segment (exercises the segment-base + delta-overlay snapshot
# path), require the same serve to refuse segments swapped between two
# sites, and run the acceptance bench at reduced scale, which asserts the
# >=5x cold-start and >=2x footprint ratios and query bit-identity on
# LUBM. (The storage unit/fuzz tests also run under asan/ubsan via the
# full ctest suites.)
segment_smoke() {
  local dir="$1"
  echo "=== segment-store smoke: ${dir} ==="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  cat > "${tmp}/g.nt" <<'EOF'
<s:a> <p:knows> <s:b> .
<s:b> <p:knows> <s:c> .
<s:c> <p:knows> <s:a> .
<s:a> <p:likes> <s:d> .
<s:d> <p:likes> <s:e> .
<s:e> <p:worksAt> <s:f> .
<s:f> <p:worksAt> <s:g> .
<s:g> <p:knows> <s:h> .
<s:h> <p:likes> <s:a> .
<s:b> <p:worksAt> <s:f> .
<s:c> <p:likes> <s:e> .
<s:d> <p:knows> <s:g> .
EOF
  cat > "${tmp}/q.txt" <<'EOF'
SELECT * WHERE { ?x <p:knows> ?y . }
SELECT * WHERE { ?x <p:likes> ?y . }
SELECT * WHERE { ?x <p:knows> ?y . ?y <p:likes> ?z . }
SELECT * WHERE { ?x <p:worksAt> ?y . }
EOF
  cat > "${tmp}/updates.ulog" <<'EOF'
+ <s:z> <p:new> <s:a> .
+ <s:z> <p:new> <s:b> .

- <s:a> <p:likes> <s:d> .
+ <s:y> <p:knows> <s:z> .
EOF
  "${dir}/tools/mpc" partition "${tmp}/g.nt" "${tmp}/part" --k=2
  "${dir}/tools/mpc" pack "${tmp}/g.nt" "${tmp}/part" --block-size=4096
  "${dir}/tools/segment_check" "${tmp}/part"

  # Full query set: everything but the timing line must be identical.
  while IFS= read -r q; do
    "${dir}/tools/mpc" query "${tmp}/g.nt" "${tmp}/part" "${q}" \
      | sed 's/  (QDT.*//' > "${tmp}/memory.out"
    "${dir}/tools/mpc" query "${tmp}/g.nt" "${tmp}/part" "${q}" \
      --store=segment | sed 's/  (QDT.*//' > "${tmp}/segment.out"
    diff "${tmp}/memory.out" "${tmp}/segment.out"
  done < "${tmp}/q.txt"

  local out
  out="$("${dir}/tools/mpc" serve "${tmp}/g.nt" "${tmp}/part" \
    --queries="${tmp}/q.txt" --concurrency=16 --repeat=50 \
    --updates="${tmp}/updates.ulog" --update-interval-ms=1 \
    --store=segment)"
  echo "${out}"
  grep -q "^rejected: 0$" <<< "${out}"
  grep -q "^failed:   0$" <<< "${out}"
  grep -q "^served:   200/200" <<< "${out}"

  # Segments swapped between sites carry a valid fingerprint but the
  # wrong site id: the shared open must refuse them, not serve them.
  mv "${tmp}/part/partition_0.mpcseg" "${tmp}/swap.mpcseg"
  mv "${tmp}/part/partition_1.mpcseg" "${tmp}/part/partition_0.mpcseg"
  mv "${tmp}/swap.mpcseg" "${tmp}/part/partition_1.mpcseg"
  local rc=0
  "${dir}/tools/mpc" serve "${tmp}/g.nt" "${tmp}/part" \
    --queries="${tmp}/q.txt" --updates="${tmp}/updates.ulog" \
    --store=segment > "${tmp}/swap.out" 2>&1 || rc=$?
  if [[ "${rc}" -eq 0 ]]; then
    echo "serve accepted segments swapped between sites" >&2
    cat "${tmp}/swap.out" >&2
    return 1
  fi
  grep -q "segment is for site" "${tmp}/swap.out"

  "${dir}/bench/segment_store" 0.5
  echo "segment-store smoke passed"
}

# Localization smoke: LQ1 carries a constant (Course0) on a non-crossing
# pattern, so on a k=8 MPC partitioning of a LUBM sample `mpc query`
# must contact that constant's owner site only, and `mpc explain` must
# name the constant and its owner.
localization_smoke() {
  local dir="$1"
  echo "=== localization smoke: ${dir} ==="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  # Without arguments the example writes its LUBM sample (4
  # universities) to the temporary directory.
  TMPDIR="${tmp}" "${dir}/examples/custom_dataset_partitioning" > /dev/null
  "${dir}/tools/mpc" partition "${tmp}/mpc_sample.nt" "${tmp}/part" --k=8
  local lq1='SELECT ?x WHERE { ?x <http://example.org/lubm#takesCourse> <http://example.org/lubm/Course0> . ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/lubm/class/GraduateStudent0> . }'
  local out
  out="$("${dir}/tools/mpc" query "${tmp}/mpc_sample.nt" "${tmp}/part" \
    "${lq1}")"
  echo "${out}"
  grep -q "sites 1 evaluated / 7 pruned" <<< "${out}"
  out="$("${dir}/tools/mpc" explain "${tmp}/mpc_sample.nt" "${tmp}/part" \
    "${lq1}")"
  grep -q "owner-localized: <http://example.org/lubm/Course0> is owned by site" \
    <<< "${out}"
  # VP is a plan too: explain shows where each subquery goes, and the
  # query answers as many rows as on MPC.
  "${dir}/tools/mpc" partition "${tmp}/mpc_sample.nt" "${tmp}/vp" \
    --strategy=vp --k=4
  out="$("${dir}/tools/mpc" explain "${tmp}/mpc_sample.nt" "${tmp}/vp" \
    "${lq1}")"
  echo "${out}"
  local subqueries site_lines
  subqueries="$(grep -c "^subquery " <<< "${out}" || true)"
  site_lines="$(grep -c "^  sites:" <<< "${out}" || true)"
  [[ "${subqueries}" -gt 0 && "${subqueries}" -eq "${site_lines}" ]]
  # LQ1 has no answer on this sample (Course0 is taken by undergraduates
  # only), so its undergraduate variant checks a non-empty join too.
  local lq1_ug="${lq1/GraduateStudent0/UndergraduateStudent0}"
  local query mpc_results vp_results
  for query in "${lq1}" "${lq1_ug}"; do
    mpc_results="$("${dir}/tools/mpc" query "${tmp}/mpc_sample.nt" \
      "${tmp}/part" "${query}" | grep -oE "^results: [0-9,]+")"
    vp_results="$("${dir}/tools/mpc" query "${tmp}/mpc_sample.nt" \
      "${tmp}/vp" "${query}" | grep -oE "^results: [0-9,]+")"
    echo "MPC ${mpc_results}; VP ${vp_results}"
    [[ -n "${mpc_results}" && "${mpc_results}" == "${vp_results}" ]]
  done
  [[ "${vp_results}" != "results: 0" ]]
  echo "localization smoke passed"
}

# Crash-recovery smoke: stream updates with a write-ahead journal, kill
# the process mid-stream (SIGKILL via --crash-after, exit 137), recover
# with --recover, and require the recovered final partitioning to be
# byte-identical to an uninterrupted run. A periodic policy repartitions
# at batches 2 and 4, so the crash after batch 3 lands past a repartition
# and its checkpoint, and the resumed stream runs the second one. (The
# journal/checkpoint unit tests also run under asan/ubsan via the full
# ctest suites above.)
recovery_smoke() {
  local dir="$1"
  echo "=== crash-recovery smoke: ${dir} ==="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  cat > "${tmp}/g.nt" <<'EOF'
<s:a> <p:knows> <s:b> .
<s:b> <p:knows> <s:c> .
<s:c> <p:knows> <s:a> .
<s:a> <p:likes> <s:d> .
<s:d> <p:likes> <s:e> .
<s:e> <p:worksAt> <s:f> .
<s:f> <p:worksAt> <s:g> .
<s:g> <p:knows> <s:h> .
<s:h> <p:likes> <s:a> .
<s:b> <p:worksAt> <s:f> .
<s:c> <p:likes> <s:e> .
<s:d> <p:knows> <s:g> .
EOF
  cat > "${tmp}/updates.ulog" <<'EOF'
+ <s:z> <p:new> <s:a> .
+ <s:z> <p:new> <s:b> .

- <s:a> <p:likes> <s:d> .
+ <s:y> <p:knows> <s:z> .

+ <s:q> <p:new> <s:y> .
- <s:b> <p:worksAt> <s:f> .

+ <s:r> <p:likes> <s:q> .
+ <s:r> <p:new> <s:z> .
EOF
  "${dir}/tools/mpc" partition "${tmp}/g.nt" "${tmp}/part" --k=2
  local rc=0
  "${dir}/tools/mpc" update "${tmp}/g.nt" "${tmp}/part" \
    "${tmp}/updates.ulog" --policy=periodic --period=2 \
    --journal-dir="${tmp}/journal" \
    --checkpoint-every=2 --crash-after=3 || rc=$?
  if [[ "${rc}" -ne 137 ]]; then
    echo "expected SIGKILL exit 137 from --crash-after, got ${rc}" >&2
    return 1
  fi
  "${dir}/tools/mpc" update "${tmp}/g.nt" "${tmp}/part" \
    "${tmp}/updates.ulog" --policy=periodic --period=2 \
    --journal-dir="${tmp}/journal" \
    --checkpoint-every=2 --recover --out="${tmp}/out-recovered"
  local out
  out="$("${dir}/tools/mpc" update "${tmp}/g.nt" "${tmp}/part" \
    "${tmp}/updates.ulog" --policy=periodic --period=2 \
    --out="${tmp}/out-clean")"
  echo "${out}"
  grep -q "repartition (" <<< "${out}"
  diff -r "${tmp}/out-recovered" "${tmp}/out-clean"
  echo "crash-recovery smoke passed"
}

# Live-introspection smoke over the real multi-process runtime: a remote
# serve run with chaos (one worker SIGKILLs itself) plus the full
# observability surface:
#  - `mpc top --json` against the admin socket must report the windowed
#    stats, including the supervisor's restart counter for the killed
#    site and the serve.* counters;
#  - SIGUSR1 must flush a stats snapshot to the coordinator's stdout
#    without terminating it;
#  - every query runs over the (absurdly low) slow-query threshold, so
#    the slow-query JSONL must fill with entries carrying shape keys and
#    per-site attempt timelines;
#  - a retained per-query trace must pass `trace_check merged`: one
#    trace id across >= 2 processes, serve.query + exec.rpc.attempt +
#    site.eval present, no orphan parent edges;
#  - SIGTERM still drains gracefully with the admin socket up.
obs_smoke() {
  local dir="$1"
  echo "=== live-introspection smoke: ${dir} ==="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  cat > "${tmp}/g.nt" <<'EOF'
<s:a> <p:knows> <s:b> .
<s:b> <p:knows> <s:c> .
<s:c> <p:knows> <s:a> .
<s:a> <p:likes> <s:d> .
<s:d> <p:likes> <s:e> .
<s:e> <p:worksAt> <s:f> .
<s:f> <p:worksAt> <s:g> .
<s:g> <p:knows> <s:h> .
<s:h> <p:likes> <s:a> .
<s:b> <p:worksAt> <s:f> .
<s:c> <p:likes> <s:e> .
<s:d> <p:knows> <s:g> .
EOF
  cat > "${tmp}/q.txt" <<'EOF'
SELECT * WHERE { ?x <p:knows> ?y . }
SELECT * WHERE { ?x <p:likes> ?y . }
SELECT * WHERE { ?x <p:knows> ?y . ?y <p:likes> ?z . }
SELECT * WHERE { ?x <p:worksAt> ?y . }
EOF
  "${dir}/tools/mpc" partition "${tmp}/g.nt" "${tmp}/part" --k=4

  "${dir}/tools/mpc" serve "${tmp}/g.nt" "${tmp}/part" \
    --queries="${tmp}/q.txt" --remote --socket-dir="${tmp}" \
    --concurrency=4 --repeat=100000 --qps=50 \
    --kill-site=1 --kill-after-queries=2 \
    --retries=3 --retry-backoff-ms=300 \
    --admin-socket="${tmp}/admin.sock" \
    --slow-query-ms=0.001 --slow-log="${tmp}/slow.jsonl" \
    > "${tmp}/serve.out" &
  local serve_pid=$!
  for _ in $(seq 1 100); do
    [[ -S "${tmp}/admin.sock" ]] && break
    sleep 0.1
  done
  [[ -S "${tmp}/admin.sock" ]]

  echo "--- mpc top --json reports windowed stats + the chaos restart ---"
  # Poll until the killed worker's respawn shows up in the counters (the
  # kill fires after 2 queries; at 50 qps that is well under a second).
  local top_ok=0
  for _ in $(seq 1 100); do
    if "${dir}/tools/mpc" top --socket="${tmp}/admin.sock" --json \
        > "${tmp}/top.json" 2>/dev/null \
        && grep -q '"net.supervisor.site_1.restarts"' "${tmp}/top.json" \
        && grep -q '"serve.queries"' "${tmp}/top.json" \
        && grep -q '"window_delta"' "${tmp}/top.json" \
        && grep -q '"serve.queue_depth"' "${tmp}/top.json"; then
      top_ok=1
      break
    fi
    sleep 0.2
  done
  if [[ "${top_ok}" -ne 1 ]]; then
    echo "mpc top --json never showed the restarted site" >&2
    cat "${tmp}/top.json" >&2 || true
    return 1
  fi
  grep -q '"p95"' "${tmp}/top.json"

  echo "--- mpc top text rendering (one frame) ---"
  "${dir}/tools/mpc" top --socket="${tmp}/admin.sock" --count=1 \
    > "${tmp}/top.txt"
  grep -q "queries" "${tmp}/top.txt"
  grep -q "sites" "${tmp}/top.txt"

  echo "--- SIGUSR1 flushes a stats snapshot without terminating ---"
  kill -USR1 "${serve_pid}"
  local flush_ok=0
  for _ in $(seq 1 50); do
    if grep -q '"counters"' "${tmp}/serve.out"; then
      flush_ok=1
      break
    fi
    sleep 0.1
  done
  [[ "${flush_ok}" -eq 1 ]]
  kill -0 "${serve_pid}"  # still running

  echo "--- SIGTERM graceful drain with the admin socket up ---"
  kill -TERM "${serve_pid}"
  local rc=0
  wait "${serve_pid}" || rc=$?
  if [[ "${rc}" -ne 0 ]]; then
    echo "coordinator exited ${rc} on SIGTERM (want 0)" >&2
    cat "${tmp}/serve.out" >&2
    return 1
  fi
  grep -q "^drained:" "${tmp}/serve.out"

  echo "--- slow-query log carries shape keys and attempt timelines ---"
  [[ -s "${tmp}/slow.jsonl" ]]
  grep -q '"shape_key"' "${tmp}/slow.jsonl"
  grep -q '"attempts"' "${tmp}/slow.jsonl"
  grep -q '"site"' "${tmp}/slow.jsonl"

  echo "--- a retained trace passes trace_check merged ---"
  # Executed (non-cache-hit) slow queries retain a merged trace with the
  # site workers' spans; cache hits retain coordinator-only traces. Find
  # one of the former.
  local merged_ok=0 f
  for f in "${tmp}"/slow.jsonl.trace.*.json; do
    [[ -e "${f}" ]] || break
    if grep -q 'site.eval' "${f}"; then
      "${dir}/tools/trace_check" merged "${f}" \
        serve.query exec.rpc.attempt site.eval
      merged_ok=1
      break
    fi
  done
  if [[ "${merged_ok}" -ne 1 ]]; then
    echo "no retained trace with remote site.eval spans found" >&2
    return 1
  fi
  echo "live-introspection smoke passed"
}

# Serving-benchmark smoke: servebench (its own Release build under
# .bench_build/) replays a DBpedia-profile query log for 2 s and checks
# every answer against a single-store oracle. It exits non-zero when any
# answer disagrees or any operation fails — the log's variable-free
# crossing subqueries and self-loop query shapes are what it guards.
servebench_smoke() {
  echo "=== servebench dbpedia_log smoke ==="
  python3 servebench/run.py --workload dbpedia_log --seed 11 --seconds 2 \
    --trace 0
  echo "servebench smoke passed"
}

run_config build
release_werror
trace_smoke build
recovery_smoke build
serve_smoke build
adaptive_smoke build
segment_smoke build
localization_smoke build
chaos_smoke build
obs_smoke build
servebench_smoke
# The asan run_config re-runs the whole suite — including the RPC frame
# decoder fuzz tests and the multi-process RemoteCluster tests — under
# AddressSanitizer (workers exec the asan-built mpc binary).
run_config build-asan -DMPC_SANITIZE=address
run_config build-ubsan -DMPC_SANITIZE=undefined

# The obs tests specifically under TSan: concurrent span recording and
# counter updates are the code most at risk of a data race. The dynamic
# and migration tests join them: repartition and hot-vertex migration
# mutate the partitioning the serving snapshots capture. The
# RPC codec and RemoteCluster tests run here too: several client threads
# share one fleet's per-site connections, which a pipelined batch locks
# several at a time. The site-pruning test covers the overlay snapshot
# the localization rule reads ownership from. The segment test probes
# one SegmentStore (and its restart index) from four threads.
echo "=== configure+build: build-tsan (-DMPC_SANITIZE=thread) ==="
cmake -B build-tsan -S . -DMPC_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "${JOBS}" \
  --target obs_trace_test obs_metrics_test obs_snapshot_test \
  trace_context_test serve_test dynamic_test migration_test \
  executor_test fault_tolerance_test site_pruning_test segment_test \
  net_frame_test remote_cluster_test mpc_cli trace_check
echo "=== tracer/metrics/serving/executor tests under tsan ==="
./build-tsan/tests/obs_trace_test
./build-tsan/tests/obs_metrics_test
./build-tsan/tests/obs_snapshot_test
./build-tsan/tests/trace_context_test
./build-tsan/tests/serve_test
./build-tsan/tests/dynamic_test
./build-tsan/tests/migration_test
./build-tsan/tests/executor_test
./build-tsan/tests/fault_tolerance_test
./build-tsan/tests/site_pruning_test
./build-tsan/tests/segment_test
./build-tsan/tests/net_frame_test
./build-tsan/tests/remote_cluster_test
serve_smoke build-tsan
adaptive_smoke build-tsan
obs_smoke build-tsan

echo "All checks passed (default + Release -Werror + asan + ubsan + obs/serve/segment/servebench smoke + tsan)."
