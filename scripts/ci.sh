#!/usr/bin/env bash
# Tier-1 CI for the TGLite reproduction. The workspace is
# dependency-free (std only), so everything runs with --offline and no
# lockfile network round-trips.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
# --bins too: the steps below run ./target/release/{tgl,quickstart},
# which --benches alone does not build in a fresh checkout.
cargo build --release --offline --workspace --bins --benches

echo "==> every observability flag of \`tgl --help\` has a row in DESIGN.md's Consumers table"
# A surface without a consumer is deleted (DESIGN.md "Consumers"); this
# keeps the table and the help text from drifting apart.
CONSUMER_ROWS="$(awk '/^### Consumers/ {on=1; next} on && /^#/ {on=0} on && /^\|/ {split($0, c, "|"); print c[2]}' DESIGN.md)"
OBS_FLAGS="$(./target/release/tgl --help \
    | awk '/^OBSERVABILITY OPTIONS/ {on=1; next} on && /^[A-Z]/ {on=0} on && /^    --/ {print $1}')"
[ -n "$OBS_FLAGS" ] || { echo "tgl --help lists no OBSERVABILITY OPTIONS"; exit 1; }
for flag in $OBS_FLAGS; do
    grep -Fq -- "\`$flag\`" <<<"$CONSUMER_ROWS" \
        || { echo "$flag is in tgl --help but has no consumer row in DESIGN.md"; exit 1; }
done

echo "==> SIMD intrinsics live in crates/tensor/src/kernel.rs alone"
# Every other kernel is written once on `kernel::Lanes`; an `_mm*_`
# call anywhere else is a second SIMD mechanism.
INTRINSICS="$(grep -rlE '_mm[0-9]*_' crates --include='*.rs' | grep -vx 'crates/tensor/src/kernel.rs' || true)"
[ -z "$INTRINSICS" ] \
    || { echo "SIMD intrinsics outside crates/tensor/src/kernel.rs:"; echo "$INTRINSICS"; exit 1; }

echo "==> a SIMD level is entered through kernel::run_lanes alone"
# `run_lanes` is the one match on the active level that enables an
# instruction set; its AVX2 and AVX-512F instances are the only two
# `#[target_feature` functions, so another one is a second way in.
TF_OUTSIDE="$(grep -rlF '#[target_feature' crates --include='*.rs' | grep -vx 'crates/tensor/src/kernel.rs' || true)"
TF_INSIDE="$(grep -cF '#[target_feature' crates/tensor/src/kernel.rs || true)"
[ -z "$TF_OUTSIDE" ] && [ "$TF_INSIDE" -le 2 ] \
    || { echo "#[target_feature beyond run_lanes' two instances:"; grep -rnF '#[target_feature' crates --include='*.rs'; exit 1; }

echo "==> parallel outputs are split by tgl-runtime alone"
# A chunk of a parallel region gets its own `&mut` rows from
# `tgl_runtime::parallel_rows`; a raw-pointer split of an output
# anywhere else is a second, unchecked mechanism.
RAW_SPLITS="$(grep -rnE 'UnsafeSlice|from_raw_parts_mut' crates --include='*.rs' | grep -v '^crates/runtime/' || true)"
[ -z "$RAW_SPLITS" ] \
    || { echo "raw output splits outside crates/runtime:"; echo "$RAW_SPLITS"; exit 1; }

echo "==> every unsafe block and unsafe impl states its invariant"
# A `// SAFETY:` comment (or the comment block it opens) must end at
# most three lines above each `unsafe {` and `unsafe impl`.
UNSAID="$(find crates -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { delete said }
    { said[FNR] = /SAFETY/ || (/^[ ]*\/\// && said[FNR - 1]) }
    /unsafe[ ]*\{|unsafe impl/ && !/^[ ]*\/\// && !(said[FNR] || said[FNR - 1] || said[FNR - 2] || said[FNR - 3]) {
        printf "%s:%d:%s\n", FILENAME, FNR, $0
    }')"
[ -z "$UNSAID" ] || { echo "unsafe without a SAFETY comment:"; echo "$UNSAID"; exit 1; }

# Test passes run under `timeout`: block chains cross threads behind
# one lock per block, and a lock cycle would otherwise hang the job
# instead of failing it. A full pass takes about two minutes here once
# the test binaries are built.
TEST_TIMEOUT=1800

echo "==> cargo test -q --offline"
timeout "$TEST_TIMEOUT" cargo test -q --offline --workspace

# Tier-1 is the debug profile; the harness, the tensor crate and the
# runtime are where release-only behaviour lives (a CPU clock coarser
# than a test pass went unseen for nine PRs, `debug_assert!`s compile
# out, and `parallel_rows` must reject bad offsets in release too).
echo "==> cargo test --release -q --offline -p tgl-harness -p tgl-tensor -p tgl-runtime"
timeout "$TEST_TIMEOUT" cargo test --release -q --offline -p tgl-harness -p tgl-tensor -p tgl-runtime

# The GEMM's register tile differs per SIMD level. The gemm unit tests
# and kernel_parity walk every level below the runner's own through the
# in-process cap (`kernel::set_simd`), so the passes above have held the
# AVX2 tile to the naive loop's bits on an AVX-512 runner; this one
# starts the process itself at the scalar level, the only level
# `TGL_SIMD` names.
echo "==> GEMM + kernel parity once more with the process at the scalar level (TGL_SIMD=off)"
TGL_SIMD=off timeout "$TEST_TIMEOUT" cargo test -q --offline -p tgl-tensor gemm
TGL_SIMD=off timeout "$TEST_TIMEOUT" cargo test -q --offline -p tgl-integration --test kernel_parity

# The end-to-end benchmark is its own package (own lockfile and target
# dir). Its smoke run trains every workload at 1/8 size and exits
# non-zero on any failed check, so a kernel change that breaks the
# tgat_train == tgat_train_1t loss bit-equality fails here.
echo "==> benchmark package: unit tests + smoke run"
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- smoke

echo "==> quickstart with tracing + metrics"
OBS_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR"' EXIT
TGL_THREADS=2 cargo run --release --offline -q -p tgl-examples --bin quickstart -- \
    --scale 8 --epochs 1 \
    --profile --trace-out "$OBS_DIR/trace.json" --metrics-out "$OBS_DIR/report.json"
./target/release/tgl jsoncheck "$OBS_DIR/trace.json"
./target/release/tgl jsoncheck "$OBS_DIR/report.json"
# The training epoch must actually recycle tensor buffers: a zero (or
# missing) pool hit count means the hot path regressed to fresh allocs.
grep -Eq '"tensor\.pool\.hit": *[1-9]' "$OBS_DIR/report.json" \
    || { echo "run report shows no tensor pool hits"; exit 1; }

echo "==> quickstart with op-level profiling (roofline table + the report's profile section), run outside the checkout"
PROF_LOG="$OBS_DIR/profile.log"
# From a directory outside the checkout, so an input read from the
# working directory (a committed bench artifact, say) fails here.
ROOT="$PWD"
(cd "$OBS_DIR" && TGL_THREADS=2 "$ROOT/target/release/quickstart" \
    --scale 8 --epochs 1 \
    --profile --metrics-out "$OBS_DIR/profile-report.json") >"$PROF_LOG" 2>&1 \
    || { cat "$PROF_LOG"; exit 1; }
# jsoncheck shape-validates the report's profile / critpath sections,
# so a drifting row writer fails here.
./target/release/tgl jsoncheck "$OBS_DIR/profile-report.json" | grep -q "schema tgl-run-report/v3 ok" \
    || { echo "run report failed its schema check"; exit 1; }
grep -Eq '"name": *"linear", *"phase": *"attention", *"stage": *"forward", *"kind": *"op"' "$OBS_DIR/profile-report.json" \
    || { echo "report profile section has no attention-phase linear op row"; exit 1; }
# The top-k table must attribute real GEMM work with a roofline verdict.
grep -Eq "^(linear|matmul) " "$PROF_LOG" \
    || { echo "profile table names no GEMM op"; cat "$PROF_LOG"; exit 1; }
grep -Eq "compute-bound|bandwidth-bound" "$PROF_LOG" \
    || { echo "profile table carries no roofline verdict"; cat "$PROF_LOG"; exit 1; }
grep -q "phase coverage" "$PROF_LOG" \
    || { echo "profile output missing phase coverage lines"; cat "$PROF_LOG"; exit 1; }
# The roofline header must name the peak this run measured at its
# thread count, and no op may be reported above that peak — a ">peak!"
# marker means the probe missed a faster GEMM than it timed.
grep -Eq "roofline: peak [0-9.]+ GFLOP/s \(measured, 2t\)" "$PROF_LOG" \
    || { echo "roofline header does not name a peak measured at 2 threads"; cat "$PROF_LOG"; exit 1; }
if grep -q ">peak!" "$PROF_LOG"; then
    echo "profile reports an op above the measured GEMM peak"; cat "$PROF_LOG"; exit 1
fi

echo "==> op profile coverage: every phase above 5% of the wall is at least half covered by op frames (TGAT inference, TGN training)"
# Coverage lines read "  <phase>  <ops>s of <span>s  ( <pct>%)"; the
# wall is the sum of the phase spans.
phase_coverage() {
    awk '/^phase coverage/ {on=1; next}
         on && $3=="of" {name[n]=$1; span[n]=$4+0; pct[n]=$5+0; wall+=span[n]; n++}
         on && $3!="of" {on=0}
         END {
             if (n == 0) { print "no phase coverage lines"; exit 1 }
             for (i = 0; i < n; i++)
                 if (span[i] > 0.05 * wall && pct[i] < 50) {
                     printf "phase %s: %.4fs of a %.4fs wall, %.1f%% covered by ops\n", name[i], span[i], wall, pct[i]; bad=1
                 }
             exit bad
         }' <(sed 's/[()%]/ /g' "$1")
}
EVAL_LOG="$OBS_DIR/eval-profile.log"
TGL_THREADS=2 ./target/release/tgl eval --model tgat --dataset reddit --scale 4 --profile >"$EVAL_LOG" 2>&1 \
    || { cat "$EVAL_LOG"; exit 1; }
phase_coverage "$EVAL_LOG" \
    || { echo "tgl eval --profile leaves a heavy phase unattributed"; cat "$EVAL_LOG"; exit 1; }

echo "==> one span stream, three views: phase table, op profile and critical path agree per stage (TGN training, 1 thread)"
VIEWS_LOG="$OBS_DIR/views.log"
TGL_THREADS=1 ./target/release/tgl train --model tgn --scale 8 --epochs 1 \
    --profile --profile-top 200 --critpath >"$VIEWS_LOG" 2>&1 \
    || { cat "$VIEWS_LOG"; exit 1; }
phase_coverage "$VIEWS_LOG" \
    || { echo "tgl train --model tgn --profile leaves a heavy phase unattributed"; cat "$VIEWS_LOG"; exit 1; }
# Stage rows read "<stage> <phase_s> <ops_s> <rest_s> <ops+rest_s>
# <critpath_s>". Every stage above 5% of the wall must read the same
# (within 5%) in all three views, `other` must stay below 5% of the
# critical path, the sample phase must be covered by an op, and no
# (no-phase) op row may hold more than 1% of op time. The GRU gates
# must be the one `gru_gates` kernel under the `memory` phase, and the
# scatter-add backward of `index_select` (35% of this epoch while the
# gates were six strided gathers) must stay below 5% of op time.
awk '/^stage seconds/ {on=1; next}
     on && NF==6 && $2+0==$2 {ph[$1]=$2; ops[$1]=$5; cp[$1]=$6; wall+=$6; n++}
     on && /^critical path:/ {on=0; crit=$3+0}
     $2=="(no-phase)" && $5+0 > 1.0 {printf "(no-phase) row %s holds %s of op time\n", $1, $5; bad=1}
     $1=="gru_gates" && $2=="memory" {gates=1}
     $1=="index_select.bwd" {scatter+=$5}
     /^ +sample +[0-9.]+s of/ {sample=$2+0}
     function off(a, b) { d = a > b ? a - b : b - a; m = a > b ? a : b; return d > 0.05 * m }
     END {
         if (n != 6) { print "no stage table"; exit 1 }
         for (s in cp) if (cp[s] > 0.05 * wall && (off(ph[s], cp[s]) || off(ops[s], cp[s]))) {
             printf "stage %s: phase table %ss, op profile %ss, critical path %ss\n", s, ph[s], ops[s], cp[s]; bad=1
         }
         if (cp["other"] > 0.05 * crit) { printf "other holds %ss of a %ss critical path\n", cp["other"], crit; bad=1 }
         if (sample <= 0) { print "no op covers the sample phase"; bad=1 }
         if (!gates) { print "no gru_gates op row in phase memory"; bad=1 }
         if (scatter >= 5.0) { printf "index_select.bwd holds %s%% of op time\n", scatter; bad=1 }
         exit bad
     }' <(sed 's/%//g' "$VIEWS_LOG") \
    || { echo "the timing views disagree"; cat "$VIEWS_LOG"; exit 1; }

echo "==> the part of a TGAT step that is not a GEMM stays small (1 thread, --scale 1, 2 epochs)"
# Shares of op self time from the run report's profile section, each
# limit the measured share plus about two or three points. Φ(Δt) and
# its backward (`time_encode` + `.bwd`) read 9.8-10.4% over four
# alternating pairs once the attention lost its per-edge keys and
# values (limit 13%). That attention, one `edge_attention` op each way
# with its per-destination GEMMs inside, read 61.8-63.6% (limit 66%),
# and 63.1-66.0% once the copies below left the total.
# `cat` + `cat.bwd` read 0.02% since the affine layers read their
# inputs' parts in place (limit 1.5%; it was 6%). The edge features
# reach the attention through their staged rows: the `index_select`
# gather in phase `attention` that copied them was 3.8% and is gone,
# so no such row may pass 1%. The layers read their other inputs in
# place too: the tail's node features as rows of the staged table (the
# `index_select` gathers in phase `feature_load` were 3.6-3.9%) and each
# layer boundary as rows of the layer's output (the `narrow_rows`
# copies in phase `aggregate` were 0.7-0.8%), so neither may pass 0.5%.
# Prints "<name> <phase> <self_ns>" per op row of a run report.
op_rows() {
    grep -o '{"name":"[^"]*","phase":"[^"]*","stage":"[^"]*","kind":"op"[^}]*' "$1" \
        | sed 's/{"name":"\([^"]*\)","phase":"\([^"]*\)".*"self_ns":\([0-9]*\).*/\1 \2 \3/'
}
SHARE_REPORT="$OBS_DIR/tgat-shares.json"
TGL_THREADS=1 ./target/release/tgl train --model tgat --scale 1 --epochs 2 --profile \
    --metrics-out "$SHARE_REPORT" >"$OBS_DIR/tgat-shares.log" 2>&1 \
    || { cat "$OBS_DIR/tgat-shares.log"; exit 1; }
op_rows "$SHARE_REPORT" \
    | awk '{total += $3}
           $1 == "time_encode" || $1 == "time_encode.bwd" {trig += $3}
           $1 == "edge_attention" || $1 == "edge_attention.bwd" {att += $3}
           $1 == "cat" || $1 == "cat.bwd" {cat += $3}
           $1 == "index_select" && $2 == "attention" && $3 > gather {gather = $3}
           $1 == "index_select" && $2 == "feature_load" && $3 > fload {fload = $3}
           $1 == "narrow_rows" && $2 == "aggregate" && $3 > copy {copy = $3}
           END {
               if (total == 0) { print "the report has no op rows"; exit 1 }
               printf "time_encode + .bwd %.2f%%, edge_attention + .bwd %.2f%%, cat + .bwd %.2f%% of %.3f s of op self time\n", 100 * trig / total, 100 * att / total, 100 * cat / total, total / 1e9
               if (trig > 0.13 * total) { print "time_encode + time_encode.bwd exceed 13% of op self time"; bad = 1 }
               if (att > 0.66 * total) { print "edge_attention + edge_attention.bwd exceed 66% of op self time"; bad = 1 }
               if (cat > 0.015 * total) { print "cat + cat.bwd exceed 1.5% of op self time"; bad = 1 }
               if (gather > 0.01 * total) { print "an index_select row in phase attention exceeds 1% of op self time"; bad = 1 }
               if (fload > 0.005 * total) { print "an index_select row in phase feature_load exceeds 0.5% of op self time"; bad = 1 }
               if (copy > 0.005 * total) { print "a narrow_rows row in phase aggregate exceeds 0.5% of op self time"; bad = 1 }
               exit bad
           }' \
    || { echo "the non-GEMM share of a TGAT epoch grew back"; exit 1; }

echo "==> the lookups of TGAT inference stay lookups (1 thread, --scale 1)"
# `cache()`'s key -> slot map under SipHash held 11.1-14.0% of this
# pass's op self time (`cache_lookup` + `cache_store`), 7.2-8.7% under
# the integer hasher (limit 10.5%, the measured share plus two points);
# the attention-phase gather was 7.2-8.8% before the K / V projections
# read the staged edge rows in place (limit 1% per row).
INFER_REPORT="$OBS_DIR/tgat-infer-shares.json"
TGL_THREADS=1 ./target/release/tgl eval --model tgat --dataset reddit --scale 1 --threads 1 --profile \
    --metrics-out "$INFER_REPORT" >"$OBS_DIR/tgat-infer-shares.log" 2>&1 \
    || { cat "$OBS_DIR/tgat-infer-shares.log"; exit 1; }
op_rows "$INFER_REPORT" \
    | awk '{total += $3}
           $1 == "cache_lookup" || $1 == "cache_store" {cache += $3}
           $1 == "index_select" && $2 == "attention" && $3 > gather {gather = $3}
           END {
               if (total == 0) { print "the report has no op rows"; exit 1 }
               printf "cache_lookup + cache_store %.2f%%, largest attention index_select %.2f%% of %.3f s of op self time\n", 100 * cache / total, 100 * gather / total, total / 1e9
               if (cache > 0.105 * total) { print "cache_lookup + cache_store exceed 10.5% of op self time"; bad = 1 }
               if (gather > 0.01 * total) { print "an index_select row in phase attention exceeds 1% of op self time"; bad = 1 }
               exit bad
           }' \
    || { echo "a lookup of TGAT inference costs more than a lookup again"; exit 1; }

echo "==> TGL_SIMD=off and the default print the same epoch (the in-tree scalar reference is the contract on every host)"
for simd in off auto; do
    TGL_SIMD="$simd" TGL_THREADS=2 ./target/release/tgl train --model tgat --scale 8 --epochs 1 \
        >"$OBS_DIR/simd-$simd.log" 2>&1 \
        || { cat "$OBS_DIR/simd-$simd.log"; exit 1; }
done
result_lines() { sed -n 's/^\(epoch  *1: loss [0-9.]*  val AP [0-9.]*%\).*/\1/p; s/^\(test AP [0-9.]*%\).*/\1/p' "$1"; }
[ "$(result_lines "$OBS_DIR/simd-off.log" | wc -l)" -eq 2 ] \
    && [ "$(result_lines "$OBS_DIR/simd-off.log")" = "$(result_lines "$OBS_DIR/simd-auto.log")" ] \
    || { echo "scalar and SIMD kernels disagree end to end"; cat "$OBS_DIR/simd-off.log" "$OBS_DIR/simd-auto.log"; exit 1; }

echo "==> critical-path analysis + the run report's recent spans"
CP_LOG="$OBS_DIR/critpath.log"
TGL_THREADS=2 ./target/release/quickstart \
    --scale 8 --epochs 1 \
    --critpath --metrics-out "$OBS_DIR/critpath-report.json" >"$CP_LOG" 2>&1 \
    || { cat "$CP_LOG"; exit 1; }
./target/release/tgl jsoncheck "$OBS_DIR/critpath-report.json" | grep -q "schema tgl-run-report/v3 ok" \
    || { echo "run report failed its schema check"; exit 1; }
grep -Eq '"critpath": *\{"wall_s"' "$OBS_DIR/critpath-report.json" \
    || { echo "run report of a --critpath run has no critpath section"; exit 1; }
# Every thread's last spans are the report's recent section, the last
# training step among them.
grep -Eq '"name": *"step", *"kind": *"region"' "$OBS_DIR/critpath-report.json" \
    || { echo "the run report's recent section holds no step region"; exit 1; }
# The table must lead with the critical-path headline and break the
# run down into the pipeline stages the paper's Figure 7 names.
grep -q "critical path" "$CP_LOG" \
    || { echo "critpath table missing headline"; cat "$CP_LOG"; exit 1; }
for stage in sample transfer forward backward; do
    grep -Eq "^$stage +[0-9]" "$CP_LOG" \
        || { echo "critpath table missing $stage stage"; cat "$CP_LOG"; exit 1; }
done
grep -q "serial/wall" "$CP_LOG" \
    || { echo "critpath table missing serial/wall"; cat "$CP_LOG"; exit 1; }

echo "==> pipelined trainer smoke (--pipeline 2, overlap via critpath)"
PIPE_LOG="$OBS_DIR/pipeline.log"
TGL_THREADS=2 ./target/release/quickstart \
    --scale 8 --epochs 1 --pipeline 2 --critpath >"$PIPE_LOG" 2>&1 \
    || { cat "$PIPE_LOG"; exit 1; }
grep -q "pipeline: sampler stage prefetching up to 2 batches" "$PIPE_LOG" \
    || { echo "quickstart did not enable the pipeline"; cat "$PIPE_LOG"; exit 1; }
# The sampler stage must actually run concurrently with compute: the
# critpath table's sample/transfer rows need nonzero overlap columns.
awk '$1=="sample" {s=$4+0} $1=="transfer" {t=$4+0} END {exit !(s>0 || t>0)}' "$PIPE_LOG" \
    || { echo "pipelined run shows no overlapped sample/transfer time"; cat "$PIPE_LOG"; exit 1; }

echo "==> host-resident TGN (--move --pipeline 2): each feature row crosses the link once"
MOVE_REPORT="$OBS_DIR/tgn-move.json"
MOVE_LOG="$OBS_DIR/tgn-move.log"
TGL_THREADS=2 ./target/release/tgl train --model tgn --move --pipeline 2 --scale 8 --epochs 1 \
    --metrics-out "$MOVE_REPORT" >"$MOVE_LOG" 2>&1 \
    || { cat "$MOVE_LOG"; exit 1; }
./target/release/tgl jsoncheck "$MOVE_REPORT"
# Staging one row per feature slot moves at least 4 * (d_v + d_e) bytes
# per sampled neighbor; staging distinct rows moves about an eighth of
# that at any scale. Fail at a quarter.
move_counter() { grep -o "\"$1\": *[0-9]*" "$MOVE_REPORT" | tail -1 | grep -o '[0-9]*$'; }
H2D_BYTES="$(move_counter 'transfer\.h2d_bytes')"
NEIGHBORS="$(move_counter 'sampler\.neighbors')"
read -r D_V D_E < <(./target/release/tgl stats --dataset wiki --scale 8 \
    | sed -n 's/.*d_v = \([0-9]*\) *d_e = \([0-9]*\).*/\1 \2/p')
PER_SLOT_BYTES=$((4 * (D_V + D_E) * NEIGHBORS))
[ "$PER_SLOT_BYTES" -gt 0 ] && [ $((4 * H2D_BYTES)) -le "$PER_SLOT_BYTES" ] \
    || { echo "host-resident TGN moved $H2D_BYTES B over the link; per-slot staging would move $PER_SLOT_BYTES B, the limit is a quarter of that"; exit 1; }

echo "==> host-resident APAN / JODIE (--move): --pipeline 0 and 2 print the same epoch line"
# Both models start at build_chain like TGAT and TGN; the sampler stage
# building their head block ahead must not move a bit of loss or AP.
epoch_line() { sed -n 's/^\(epoch  *1: loss [0-9.]*  val AP [0-9.]*%\).*/\1/p' "$1"; }
for model in apan jodie; do
    for depth in 0 2; do
        TGL_THREADS=2 ./target/release/tgl train --model "$model" --move --pipeline "$depth" --scale 8 --epochs 1 \
            >"$OBS_DIR/$model-$depth.log" 2>&1 \
            || { cat "$OBS_DIR/$model-$depth.log"; exit 1; }
    done
    [ -n "$(epoch_line "$OBS_DIR/$model-0.log")" ] \
        && [ "$(epoch_line "$OBS_DIR/$model-0.log")" = "$(epoch_line "$OBS_DIR/$model-2.log")" ] \
        || { echo "$model --move: epoch line differs between --pipeline 0 and 2"; cat "$OBS_DIR/$model-0.log" "$OBS_DIR/$model-2.log"; exit 1; }
done

echo "==> health policy: --health warn skips poisoned batches and completes, --health fail aborts leaving a flight dump"
HEALTH_LOG="$OBS_DIR/health.log"
HEALTH_FLIGHT_DIR="$OBS_DIR/health-flight"
mkdir -p "$HEALTH_FLIGHT_DIR"
TGL_THREADS=2 ./target/release/quickstart --scale 4 --epochs 1 --lr 1e18 --health warn \
    --metrics-out "$OBS_DIR/health-report.json" >"$HEALTH_LOG" 2>&1 \
    && grep -Eq '"health\.nonfinite_loss": *[1-9]' "$OBS_DIR/health-report.json" \
    || { echo "--health warn did not complete reporting its skipped batches"; cat "$HEALTH_LOG"; exit 1; }
if TGL_FLIGHT_DIR="$HEALTH_FLIGHT_DIR" TGL_THREADS=2 ./target/release/quickstart \
    --scale 4 --epochs 1 --lr 1e18 --health fail >"$HEALTH_LOG" 2>&1; then
    echo "--health fail should have aborted on the non-finite loss"; cat "$HEALTH_LOG"; exit 1
fi
# A flight dump is a run report: the reason it was taken in
# meta.reason, every thread's last spans (the last training step among
# them) in its recent section.
flight_dump() {
    ./target/release/tgl jsoncheck "$1" | grep -q "schema tgl-run-report/v3 ok" \
        && grep -Eq "\"reason\": *\"$2\"" "$1" \
        && grep -Eq '"name": *"step", *"kind": *"region"' "$1"
}
HEALTH_DUMP="$(ls "$HEALTH_FLIGHT_DIR"/*.json 2>/dev/null | head -1)"
[ -n "$HEALTH_DUMP" ] && flight_dump "$HEALTH_DUMP" health-fail \
    || { echo "the health-fail abort left no valid flight dump"; cat "$HEALTH_LOG"; exit 1; }

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --offline -D warnings"
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "==> clippy unavailable; skipping lint"
fi

echo "==> micro bench against the parent on this host (scripts/ab: cargo bench --bench micro)"
# `ab` is a gate, and the noisiest one: the lint above runs before it,
# and the record checks below read what it wrote whether or not it
# passed; its verdict fails the job after them.
AB_FAILED=0
scripts/ab || AB_FAILED=1
# BENCH_micro.json of ab's last change-side round is at the root, beside
# the committed paper record (not rerun here: a run would overwrite it).
for f in BENCH_micro.json BENCH_paper.json; do
    ./target/release/tgl jsoncheck "$f"
done
grep -q '"bitwise_identical": true' BENCH_micro.json \
    || { echo "BENCH_micro.json missing bitwise-identity marker"; exit 1; }
# The two backward products and the fused Linear op (forward and
# backward) are compared beside the forward product, and the named
# kernel sweeps are there.
for name in gemm_nn_512x32x32 gemm_nt_512x32x32 gemm_tn_512x32x32 \
    gemm_linear_512x32x32 gemm_linear.bwd_512x32x32 \
    gru_cell_4608x112x32 gru_cell_chain_4608x112x32 \
    time_encode_4612x16_trained_step 'linear_4612x(32+32+16)x32_parts_step' \
    'edge_attention_507x4612x(32+32+16)' 'edge_attention_507x4612x(32+32+16)_step'; do
    grep -Fq "\"name\":\"$name\"" BENCH_micro.json \
        || { echo "BENCH_micro.json missing $name rows"; exit 1; }
done
[ "$AB_FAILED" -eq 0 ] \
    || { echo "scripts/ab failed: a micro-bench row is slower than the parent's (its table above)"; exit 1; }

echo "==> CI green"
