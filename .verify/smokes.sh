#!/usr/bin/env bash
# The acceptance smokes: each bench bin run on its artifact, with its
# determinism and gate checks. `.verify/check.sh` and CI's test job both
# run this one list after `cargo build --release --offline`.
#
# Usage: .verify/smokes.sh     (outputs land in target/smokes)
set -euo pipefail
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
OUT="$ROOT/target/smokes"
mkdir -p "$OUT"
SMOKE_BATCH="$ROOT/crates/bench/baselines/serve_smoke.ndjson"
SMOKE_EXPECTED="$ROOT/crates/bench/baselines/serve_smoke.expected.ndjson"
BENCH="$OUT/bench_harness_ci.json"

STEP=""
smoke() { STEP="$1"; echo "== smoke: $STEP"; }
fail() { echo "SMOKE FAILED ($STEP): $*" >&2; exit 1; }
trap '[ $? -eq 0 ] || echo "SMOKE FAILED ($STEP)" >&2' EXIT
bin() { cargo run -q --release --offline -p gemini-bench --bin "$@"; }

# The scenario bin must emit a valid Chrome trace and a Prometheus
# exposition carrying the ckpt/recovery/kv/net/sim metric families.
smoke "telemetry (scenario trace + metrics exports)"
bin scenario -- --trace-out "$OUT/drill.json" --metrics-out "$OUT/drill.prom" > /dev/null
python3 -c "import json, sys; json.load(open(sys.argv[1]))['traceEvents']" "$OUT/drill.json"
for fam in ckpt_ recovery_ kv_ net_ sim_; do
  grep -q "^# TYPE ${fam}" "$OUT/drill.prom" || fail "missing ${fam}* metrics"
done

# Deterministic parallelism: the parallel figure render and its metrics
# export are byte-identical to the serial ones. See docs/PERFORMANCE.md.
smoke "parallel figures (--jobs 2 vs --jobs 1)"
bin figures -- --fast --jobs 2 --metrics-out "$OUT/figs_j2.prom" > "$OUT/figs_j2.md"
bin figures -- --fast --jobs 1 --metrics-out "$OUT/figs_j1.prom" > "$OUT/figs_j1.md"
cmp "$OUT/figs_j1.md" "$OUT/figs_j2.md" || fail "figures differ across --jobs"
cmp "$OUT/figs_j1.prom" "$OUT/figs_j2.prom" || fail "figure metrics differ across --jobs"
grep -q "^# TYPE parallel_" "$OUT/figs_j2.prom" || fail "missing parallel_* metrics"

# The timing wheel must be observationally identical to the reference
# heap under randomized interleavings. `cargo test` runs it too; it is
# rerun by name so a filter change cannot silently drop it.
smoke "DES differential property (wheel vs heap)"
cargo test -q --release --offline -p gemini-sim --test queue_differential

# The full fault-plan catalog runs green (the bin exits non-zero on any
# invariant violation) and byte-identically across --jobs counts.
# See docs/CHAOS.md.
smoke "chaos catalog (--jobs 2 vs --jobs 1)"
bin chaos -- --jobs 2 > "$OUT/chaos_a.txt"
bin chaos -- --jobs 1 > "$OUT/chaos_b.txt"
cmp "$OUT/chaos_a.txt" "$OUT/chaos_b.txt" || fail "chaos differs across --jobs"

# Perf report: the bin asserts backend fingerprints equal, the parallel
# render byte-identical and the fleet DES past a simulated month. Wall
# clocks and speedups read the host, so they are printed, never asserted;
# their deterministic counterparts are gated by benchgate below.
smoke "perf report (--quick)"
rm -f "$BENCH"
bin perf -- --quick --jobs 2 --out "$BENCH" > "$OUT/perf.log"
python3 - "$BENCH" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
des = r['des']
assert set(des) == {'dense_timers', 'heavy_cancel', 'chaos_replay'}, des.keys()
figs = r['figures']
assert figs['byte_identical'], figs
assert r['parallel_metrics']['tasks'] == figs['artifacts'], (figs, r['parallel_metrics'])
scale = r['scale']
assert scale['dp']['n'] == 10000, scale['dp']
assert scale['fleet_des']['sim_days'] >= 30.0, scale['fleet_des']
print('des speedup', {k: v['speedup'] for k, v in des.items()},
      'mc kernel_speedup', r['monte_carlo']['kernel_speedup'],
      'figures', figs['speedup'], 'fallback', figs['serial_fallback'],
      'dp_ms', scale['dp']['dp_ms'],
      'fleet_Mev/s', round(scale['fleet_des']['events_per_s'] / 1e6, 1),
      'fleet_wheel_cascaded', scale['fleet_des']['wheel_cascaded'],
      'fleet_wheel_drained', scale['fleet_des']['wheel_drained'])
EOF

# Policy matrix: the bin exits non-zero unless every run is invariant-
# green, adaptive never has a less fresh recoverable checkpoint than the
# paper's fixed configuration, adaptive wastes no more than the best fixed
# comparator, and the campaign renders byte-identically across --jobs.
# The JSON re-check keeps the spliced report honest. See docs/POLICY.md.
smoke "policy matrix (--quick)"
bin policy -- --quick --jobs 2 --out "$BENCH" > "$OUT/policy.log"
python3 - "$BENCH" <<'EOF'
import json, sys
p = json.load(open(sys.argv[1]))['policy']
assert p['safety_violations'] == 0, p
best_fixed = min(v['wasted_s'] for k, v in p['policies'].items() if k != 'adaptive')
assert p['policies']['adaptive']['wasted_s'] <= best_fixed + 1e-6, p
EOF

# Every catalogued chaos plan stitches into >= 1 incident whose wasted-
# time attribution matches the ledger to the nanosecond (the bin exits 2
# otherwise), byte-identically across --jobs. See docs/OBSERVABILITY.md.
smoke "incident flight recorder (--jobs 2 vs --jobs 1)"
bin incidents -- --jobs 2 > "$OUT/inc_a.txt"
bin incidents -- --jobs 1 > "$OUT/inc_b.txt"
cmp "$OUT/inc_a.txt" "$OUT/inc_b.txt" || fail "incidents differ across --jobs"
grep -q "attribution: exact" "$OUT/inc_a.txt" || fail "no exact attribution"

# Scenario-as-a-service: the canned batch serves byte-identically at
# --jobs 2 vs 1 and in file vs stdin mode, one response per request,
# with per-query errors isolated. The responses are pinned byte for byte
# to serve_smoke.expected.ndjson: each is simulated output, with no value
# read from the host. It doubles as the workload/mode smoke: an MoE
# drill (q12), shrink-mode and MoE chaos runs (q13/q14) and a
# shrink-mode drill (q15) answer ok. q16–q20 sweep one `m` over fleets
# of 1 000 to 9 000 machines and back: the recoverability memo's stored
# group powers are extended (q16, q17), rebuilt one degree deeper (q18)
# and resumed from (q19, q20). The byte-for-byte diff against
# one-shot Scenario runs is tests/integration_service.rs. See
# docs/SERVICE.md and docs/WORKLOADS.md.
smoke "serve (canned batch: jobs 2 vs 1, file vs stdin, committed responses)"
bin scenario -- serve --requests "$SMOKE_BATCH" --jobs 2 > "$OUT/serve_a.txt"
bin scenario -- serve --requests "$SMOKE_BATCH" --jobs 1 > "$OUT/serve_b.txt"
bin scenario -- serve < "$SMOKE_BATCH" > "$OUT/serve_c.txt"
cmp "$OUT/serve_a.txt" "$OUT/serve_b.txt" || fail "serve differs across --jobs"
cmp "$OUT/serve_a.txt" "$OUT/serve_c.txt" || fail "serve differs file vs stdin"
cmp "$OUT/serve_a.txt" "$SMOKE_EXPECTED" || fail "serve differs from the committed responses"
[ "$(wc -l < "$OUT/serve_a.txt")" -eq "$(grep -c . "$SMOKE_BATCH")" ] \
  || fail "one response per request"
grep -q '"id":"q10","kind":"drill","ok":false' "$OUT/serve_a.txt" || fail "q10 must fail"
! grep -q '"id":"q1","kind":"drill","ok":false' "$OUT/serve_a.txt" || fail "q1 must not fail"
for q in q12:drill q13:chaos q14:chaos q15:drill q16:recoverability q17:recoverability \
  q18:recoverability q19:recoverability q20:recoverability; do
  grep -q "\"id\":\"${q%%:*}\",\"kind\":\"${q##*:}\",\"ok\":true" "$OUT/serve_a.txt" \
    || fail "${q%%:*} must answer ok"
done

# The service bench asserts response byte-identity (jobs 1 vs N, cold vs
# warm), exact error isolation and single-flight collapse internally, and
# splices the "service" section gated below.
smoke "service bench (--quick)"
bin service -- --quick --jobs 2 --out "$BENCH" > "$OUT/service.log"
grep -q '"dedup_collapsed": 1' "$BENCH" || fail "single-flight did not collapse"

# Deterministic sections of the fresh report (DES event counts, kernel
# and wheel work counters, KV op counts, simulated policy outcomes) stay
# within 25% of the committed baselines; wall-clock readings are skipped.
smoke "bench trajectory gate (benchgate vs committed baselines)"
for base in perf_quick policy_quick service_quick; do
  bin benchgate -- --fresh "$BENCH" --baseline "crates/bench/baselines/$base.json"
done

STEP="done"
echo "SMOKES: OK"
