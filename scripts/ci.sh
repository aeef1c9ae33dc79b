#!/usr/bin/env bash
# Hermetic CI gate for the CRONO workspace.
#
# Verifies the three properties every PR must preserve:
#   1. the workspace builds in release mode with the network disabled,
#   2. the full test suite passes offline,
#   3. the dependency graph contains only workspace path crates — no
#      registry (crates.io) dependency can sneak back in.
#
# Usage: scripts/ci.sh  (from anywhere inside the repository)

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace --bins

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> clippy: crono-graph and crono-trace, all targets, warnings denied"
# The graph substrate and the tracing crate are lint-clean; keep them so.
cargo clippy -q --offline -p crono-graph -p crono-trace --all-targets -- -D warnings

echo "==> benchmark crate: cargo test --release (perfbench/ is its own workspace)"
# Neither step above builds perfbench/, so a library change that breaks
# it would otherwise surface only at the next benchmark run.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "==> dependency audit: workspace path crates only"
# Every node in the resolved graph must be a local path crate, which
# `cargo tree` renders with the crate's absolute path in parentheses.
# `(*)` marks de-duplicated repeats of already-printed subtrees.
non_workspace=$(cargo tree --workspace --edges normal,build,dev --prefix none \
  | sed 's/ (\*)$//' \
  | awk 'NF' \
  | sort -u \
  | grep -v ' (/' || true)
if [ -n "$non_workspace" ]; then
  echo "ERROR: non-workspace (registry) dependencies detected:" >&2
  echo "$non_workspace" >&2
  exit 1
fi
echo "dependency graph is 100% workspace-local"

echo "==> golden counter-invariance test"
# Re-runs the simulated-counter fingerprint gate by name: host-side
# optimizations must never change a simulated counter.
cargo test -q --offline -p crono-suite --test counter_invariance

echo "==> benchmark-input golden: R-MAT scale 18"
# perfbench checks kernel outputs against references built from the
# same generated graph, so it cannot notice a generator whose output
# changed. This ignored golden pins the kernels-rmat input itself.
cargo test -q --release --offline -p crono-graph --test determinism -- --ignored

echo "==> trace smoke test"
trace_out=$(mktemp -d)
trap 'rm -rf "$trace_out"' EXIT
./target/release/crono trace --bench bfs --scale test --quiet \
  --out "$trace_out/trace.json"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$trace_out/trace.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
threads = doc["otherData"]["threads"]
for tid in range(threads):
    spans = [e for e in events
             if e.get("tid") == tid and e["ph"] in ("B", "X")]
    assert spans, f"thread {tid} recorded no spans"
print(f"trace OK: {len(events)} events, {threads} threads, all with spans")
PY
else
  # No python3: fall back to structural greps.
  grep -q '"traceEvents"' "$trace_out/trace.json"
  grep -q '"ph":"B"' "$trace_out/trace.json"
  echo "trace OK (python3 unavailable; grep-validated)"
fi

echo "==> trace-diff smoke test"
# Two traced sim runs of the same configuration must serialize to
# identical counters; `crono trace-diff` must report a zero delta.
./target/release/crono trace --bench pagerank --scale test --threads 4 \
  --quiet --out "$trace_out/a.json"
./target/release/crono trace --bench pagerank --scale test --threads 4 \
  --quiet --out "$trace_out/b.json"
./target/release/crono trace-diff "$trace_out/a.json" "$trace_out/b.json" --quiet
echo "trace-diff OK: identical configs produce a zero counter delta"

echo "==> ablation kernel-variant smoke runs"
# Every (benchmark, ablation) pair of every ablation group: each traced
# run must complete and produce a parseable Chrome trace.
for pair in "bfs frontier_repr" "sssp_dijk frontier_repr" \
            "pagerank pagerank_update" "apsp task_steal" \
            "betw_cent task_steal" "dfs task_steal" "tsp lockfree_bound" \
            "bfs dirop_bfs" "sssp_dijk delta_sssp" "conn_comp afforest_cc"; do
  set -- $pair
  ./target/release/crono trace --bench "$1" --ablation "$2" --scale test \
    --threads 4 --quiet --out "$trace_out/abl-$1-$2.json"
  grep -q '"traceEvents"' "$trace_out/abl-$1-$2.json"
done
echo "ablation smokes OK: all opt-in kernel variants traced"

echo "==> lock-free TSP lock_hold gate"
# The paper-faithful TSP serializes on the bound lock; the lock-free
# variant must trace zero lock_hold spans. The default must trace some,
# or the gate would be vacuous.
./target/release/crono trace --bench tsp --scale test --threads 4 \
  --quiet --out "$trace_out/tsp-default.json"
if ! grep -q 'lock_hold' "$trace_out/tsp-default.json"; then
  echo "ERROR: default TSP trace has no lock_hold spans (gate vacuous)" >&2
  exit 1
fi
if grep -q 'lock_hold' "$trace_out/abl-tsp-lockfree_bound.json"; then
  echo "ERROR: lock-free TSP trace still contains lock_hold spans" >&2
  exit 1
fi
echo "lock_hold gate OK: default TSP locks, lockfree variant does not"

echo "==> NoC heatmap well-formedness"
# Aggregate a traced run into the per-router heatmap: rectangular TSV,
# header plus at least one mesh row, every line with the same columns.
./target/release/crono heatmap "$trace_out/abl-apsp-task_steal.json" --quiet \
  --out "$trace_out/heat.tsv"
awk -F'\t' 'NR == 1 { cols = NF; next } NF != cols { exit 1 }
            END { exit (NR < 2) }' "$trace_out/heat.tsv"
echo "heatmap OK: rectangular per-router TSV"

echo "==> ablation determinism gate"
# The deterministic ablation groups must be byte-identical across fresh
# processes (seeded stealing order, sequenced schedule).
for group in lockfree_bound dirop_bfs; do
  ./target/release/crono ablation --ablation "$group" --scale test \
    --quiet --out "$trace_out/abl-run-$group-a" >/dev/null
  ./target/release/crono ablation --ablation "$group" --scale test \
    --quiet --out "$trace_out/abl-run-$group-b" >/dev/null
  cmp "$trace_out/abl-run-$group-a/ablation_kernels.tsv" \
      "$trace_out/abl-run-$group-b/ablation_kernels.tsv"
done
echo "ablation determinism OK: two runs byte-identical per group"

echo "==> direction-optimizing BFS NoC-traffic gate"
# The dirop_bfs group tabulates simulated sharing misses and NoC flits
# on the R-MAT workload. Bottom-up levels replace the push phase's
# scattered parent CASes with owner-local pulls, so at 64 simulated
# cores the optimized kernel must move strictly fewer flits (and take
# strictly fewer sharing misses) than the paper-faithful default.
dirop_tsv="$trace_out/abl-run-dirop_bfs-a/ablation_kernels.tsv"
awk -F'\t' '$2 == "BFS/rmat" && $3 == "default:noc_flits"   { d = $7 }
            $2 == "BFS/rmat" && $3 == "optimized:noc_flits" { o = $7 }
            END { exit !(d + 0 > 0 && o + 0 > 0 && o + 0 < d + 0) }' "$dirop_tsv"
awk -F'\t' '$2 == "BFS/rmat" && $3 == "default:l1_sharing"   { d = $7 }
            $2 == "BFS/rmat" && $3 == "optimized:l1_sharing" { o = $7 }
            END { exit !(d + 0 > 0 && o + 0 < d + 0) }' "$dirop_tsv"
echo "dirop NoC gate OK: fewer flits and sharing misses at 64 cores"

echo "==> fault-injection smoke test"
# The quick sweep must produce a TSV whose non-zero-rate row actually
# injected NoC retransmits (column 5), and the checkpoint must be gone
# after a successful run.
./target/release/crono faults --quick --quiet --out "$trace_out/faults-a"
faults_tsv="$trace_out/faults-a/faults.tsv"
head -1 "$faults_tsv" | grep -q 'NocRetx'
awk -F'\t' 'NR > 1 && $2 != "0" { if ($5 + 0 == 0) exit 1; found = 1 }
            END { exit !found }' "$faults_tsv"
if [ -e "$trace_out/faults-a/faults.resume.tsv" ]; then
  echo "ERROR: finished faults sweep left its checkpoint behind" >&2
  exit 1
fi
echo "faults OK: injected events counted, checkpoint cleaned up"

echo "==> fault-sweep determinism"
# A seeded sweep is byte-identical across fresh invocations.
./target/release/crono faults --quick --quiet --out "$trace_out/faults-b"
cmp "$faults_tsv" "$trace_out/faults-b/faults.tsv"
echo "faults determinism OK: two sweeps byte-identical"

echo "==> serve smoke: mixed query batch, well-formed serve.tsv"
# The serving engine must answer a mixed workload (every query kind,
# a duplicate, and a deliberate out-of-range error) and report a
# rectangular TSV with the latency percentiles in the header.
cat > "$trace_out/workload.txt" <<'EOF'
# CI smoke workload: every kind, one duplicate, one bad vertex
bfs 17
sssp 40
pagerank 12
centrality 3
bfs 17
bfs 9999
EOF
./target/release/crono serve --scale test --threads 4 --quiet \
  --workload "$trace_out/workload.txt" --out "$trace_out/serve" >/dev/null
serve_tsv="$trace_out/serve/serve.tsv"
head -1 "$serve_tsv" | grep -q 'p50_us'
awk -F'\t' 'NR == 1 { cols = NF; next } NF != cols { exit 1 }
            END { exit (NR < 2) }' "$serve_tsv"
# TOTAL row: 6 queries, 5 served, exactly the bad vertex errors.
awk -F'\t' '$1 == "TOTAL" { exit !($2 == 6 && $3 == 5 && $6 == 1) }' "$serve_tsv"
echo "serve OK: mixed batch served, rectangular serve.tsv"

echo "==> bombard determinism gate"
# Seeded closed-loop load generation reports modeled latency, so two
# fresh processes must write byte-identical serve.tsv files.
./target/release/crono bombard --scale test --threads 4 --queries 96 \
  --clients 8 --seed 11 --quiet --out "$trace_out/bombard-a" >/dev/null
./target/release/crono bombard --scale test --threads 4 --queries 96 \
  --clients 8 --seed 11 --quiet --out "$trace_out/bombard-b" >/dev/null
cmp "$trace_out/bombard-a/serve.tsv" "$trace_out/bombard-b/serve.tsv"
echo "bombard determinism OK: two runs byte-identical"

echo "==> batched multi-source SSSP gate"
# Under the sssp-heavy mix, the shared-bucket multi-source sweep
# (Plan::MultiSssp) must beat the independent per-query Dijkstra
# baseline (--ms-sssp-width 1) on both QPS and p99 of the sssp row,
# and the batched plan must be byte-deterministic across processes.
./target/release/crono bombard --scale test --threads 4 --queries 96 \
  --clients 16 --seed 11 --mix sssp-heavy --quiet \
  --out "$trace_out/bombard-ms-a" >/dev/null
./target/release/crono bombard --scale test --threads 4 --queries 96 \
  --clients 16 --seed 11 --mix sssp-heavy --quiet \
  --out "$trace_out/bombard-ms-b" >/dev/null
cmp "$trace_out/bombard-ms-a/serve.tsv" "$trace_out/bombard-ms-b/serve.tsv"
./target/release/crono bombard --scale test --threads 4 --queries 96 \
  --clients 16 --seed 11 --mix sssp-heavy --ms-sssp-width 1 --quiet \
  --out "$trace_out/bombard-ms-base" >/dev/null
awk -F'\t' '$1 == "sssp" && FILENAME ~ /ms-a/ { bq = $9 + 0; bp = $8 + 0 }
            $1 == "sssp" && FILENAME ~ /ms-base/ { sq = $9 + 0; sp = $8 + 0 }
            END { exit !(bq > 0 && bq >= sq && bp <= sp) }' \
  "$trace_out/bombard-ms-a/serve.tsv" "$trace_out/bombard-ms-base/serve.tsv"
echo "batched sssp OK: multi-source sweep >= per-query baseline (QPS, p99), deterministic"

echo "==> scale-track smoke: streaming build + sharded kernels"
# A small out-of-core build (sort buffer forced tiny so the external
# sort actually spills) must produce a well-formed scale.tsv whose
# compressed build row beats the flat-CSR reference on bytes/edge, and
# whose simulator rows show block placement moving fewer NoC flits than
# hashed placement.
./target/release/crono scale --graph-scale 11 --degree 8 --shards 4 \
  --threads 2 --sort-buffer 4096 --quiet --out "$trace_out/scale-a"
scale_tsv="$trace_out/scale-a/scale.tsv"
head -1 "$scale_tsv" | grep -q 'BytesPerEdge'
awk -F'\t' 'NR == 1 { cols = NF; next } NF != cols { exit 1 }
            END { exit (NR < 2) }' "$scale_tsv"
awk -F'\t' '$1 == "build" && $2 != "flat-csr-reference" { packed = $6 }
            $1 == "build" && $2 == "flat-csr-reference" { flat = $6 }
            END { exit !(packed + 0 > 0 && packed + 0 <= 0.7 * flat) }' "$scale_tsv"
awk -F'\t' '$1 == "sim-bfs" && $2 == "block"  { block = $10 }
            $1 == "sim-bfs" && $2 == "hashed" { hashed = $10 }
            END { exit !(block + 0 > 0 && block + 0 < hashed + 0) }' "$scale_tsv"
if [ -e "$trace_out/scale-a/scale.resume.tsv" ]; then
  echo "ERROR: finished scale run left its checkpoint behind" >&2
  exit 1
fi
echo "scale OK: >=30% bytes/edge saved, block placement cheaper"

echo "==> scale-track determinism"
# A seeded scale run is byte-identical across fresh processes (modeled
# cycles only, no wall-clock or RSS in the artifact). Both the 1-D
# compressed run above and a 2-D flat-CSR run go through it, so the
# shared scan/claim body is gated on both lane layouts and encodings.
./target/release/crono scale --graph-scale 11 --degree 8 --shards 4 \
  --threads 2 --sort-buffer 4096 --quiet --out "$trace_out/scale-b"
cmp "$scale_tsv" "$trace_out/scale-b/scale.tsv"
for run in 2d-a 2d-b; do
  ./target/release/crono scale --graph-scale 9 --degree 8 --shards 2 \
    --threads 2 --partition 2d --repr plain --quiet --out "$trace_out/scale-$run"
done
cmp "$trace_out/scale-2d-a/scale.tsv" "$trace_out/scale-2d-b/scale.tsv"
echo "scale determinism OK: 1-D compressed and 2-D plain runs byte-identical"

echo "==> compressed-vs-plain golden-distance gate"
# BFS distances through the varint-compressed representation must
# fingerprint identically to the flat CSR and the sequential oracle.
cargo test -q --offline -p crono-algos --test scale_kernels golden_distance

echo "==> panic-containment tests"
# A panicking kernel must yield a typed error (not a deadlock or abort)
# on both backends; re-run those tests by name.
cargo test -q --offline -p crono-runtime worker_panic
cargo test -q --offline -p crono-sim worker_panic

echo "==> zero-fault timing-invariance gate"
# Attaching an all-zero-rate FaultPlan must reproduce the golden
# counter fingerprint exactly.
cargo test -q --offline -p crono-suite --test counter_invariance zero_fault

echo "==> degraded-serve smoke: permanent faults under load"
# The four-phase sweep (healthy -> dead link -> dead core mid-batch ->
# dead DRAM controller) must complete with every query answered
# (OK == Queries, Errors == 0), every phase p99 finite and within the
# SLO, and a rectangular TSV plus both heatmap artifacts written.
./target/release/crono faults --degraded --quiet \
  --out "$trace_out/degraded-a" >/dev/null
degraded_tsv="$trace_out/degraded-a/faults_degraded.tsv"
head -1 "$degraded_tsv" | grep -q 'p99_us'
awk -F'\t' 'NR == 1 { cols = NF; next } NF != cols { exit 1 }
            END { exit (NR != 5) }' "$degraded_tsv"
awk -F'\t' 'NR > 1 { if ($5 != $4 || $6 != "0" || $9 + 0 <= 0 ||
                         $11 != "pass") exit 1; rows++ }
            END { exit (rows != 4) }' "$degraded_tsv"
for map in heatmap_healthy heatmap_degraded; do
  awk -F'\t' 'NR == 1 { cols = NF; next } NF != cols { exit 1 }
              END { exit (NR < 2) }' "$trace_out/degraded-a/$map.tsv"
done
if cmp -s "$trace_out/degraded-a/heatmap_healthy.tsv" \
          "$trace_out/degraded-a/heatmap_degraded.tsv"; then
  echo "ERROR: dead link did not change the routing heatmap" >&2
  exit 1
fi
echo "degraded OK: all queries served in every phase, SLO met"

echo "==> degraded-serve determinism"
# The sweep's latencies are modeled cycles under the sequencer, so two
# fresh processes must write byte-identical artifacts.
./target/release/crono faults --degraded --quiet \
  --out "$trace_out/degraded-b" >/dev/null
cmp "$degraded_tsv" "$trace_out/degraded-b/faults_degraded.tsv"
cmp "$trace_out/degraded-a/heatmap_healthy.tsv" \
    "$trace_out/degraded-b/heatmap_healthy.tsv"
cmp "$trace_out/degraded-a/heatmap_degraded.tsv" \
    "$trace_out/degraded-b/heatmap_degraded.tsv"
echo "degraded determinism OK: two sweeps byte-identical"

echo "==> XY-routing dead-link typed-error gate"
# Dimension-ordered routing cannot avoid the dead link: the sweep must
# exit nonzero with the backend's typed route error — not hang, not
# serve a partial table as success.
if timeout 120 ./target/release/crono faults --degraded --routing xy \
     --quiet >/dev/null 2>"$trace_out/xy.err"; then
  echo "ERROR: --routing xy succeeded despite the dead link" >&2
  exit 1
fi
grep -q 'dead east link' "$trace_out/xy.err"
if grep -q 'panicked' "$trace_out/xy.err"; then
  echo "ERROR: --routing xy leaked panic messages to stderr:" >&2
  cat "$trace_out/xy.err" >&2
  exit 1
fi
echo "XY typed-error OK: unroutable link reported, no hang, no panic text"

echo "==> armed-but-inactive permanent-fault gate"
# A plan declaring a dead link, core, and DRAM controller armed at
# u64::MAX must reproduce the golden fingerprint byte-for-byte.
cargo test -q --offline -p crono-suite --test counter_invariance zero_permanent

echo "==> tracked-file audit: no build artifacts in git"
if git ls-files | grep -q '^target/'; then
  echo "ERROR: files under target/ are tracked by git:" >&2
  git ls-files | grep '^target/' >&2
  exit 1
fi
echo "no target/ files tracked"

echo "CI gate passed."
