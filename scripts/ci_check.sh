#!/usr/bin/env bash
# Lightweight CI gate: tier-1 test suite + the quickstart example.
#
# Usage:  scripts/ci_check.sh [extra pytest args...]
#
# Runs the repo's tier-1 verify verbatim (ROADMAP.md), then smoke-runs
# the quickstart (which exercises analysis, pruned checkpointing and
# restart end-to-end, including the --workers/cache workflow).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"
export PYTHONPATH="$repo_root/src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1: pytest =="
python -m pytest -x -q "$@"

echo "== quickstart example =="
python examples/quickstart.py

echo "== CLI smoke: warm-cache analyze =="
cache_dir="$(mktemp -d)"
trap 'rm -rf "$cache_dir"' EXIT
python -m repro.cli --class T --cache-dir "$cache_dir" analyze CG >/dev/null
python -m repro.cli --class T --cache-dir "$cache_dir" analyze CG

echo "== sweep driver: gradient, batched probe and activity walks =="
# one driver runs every sweep: --sweep monolithic is its one-segment walk
# (tail = steps) and --sweep segmented traces only the output reduction
# (tail = 0); at those tails and at tail = steps // 2
# (test_multi_iteration_output_segment_matches_one_tape) each walk must
# stay bitwise equal to its one-tape traced_restart oracle or the
# per-probe loop, and every tape a walk records must be freed by reference
# counting alone (no cycles, the cyclic collector off)
python -m pytest -q tests/ad/test_segmented.py tests/ad/test_tape_lifetime.py \
    tests/experiments/test_sweep_plumbing.py tests/npb/test_class_a.py \
    tests/ad/test_probes.py tests/experiments/test_probe_plumbing.py \
    tests/ad/test_activity_sweep.py tests/experiments/test_activity_plumbing.py

echo "== snapshot store: shared boundaries, pure run(), dtypes, no knobs =="
# boundaries are kept uncopied, so every port's run() must leave the state
# it is handed untouched and an in-place run() must be refused by name
python -m pytest -q tests/ad/test_schedule.py \
    tests/experiments/test_schedule_plumbing.py \
    "tests/npb/test_base.py::test_run_never_writes_into_the_state_it_is_handed"

echo "== fault tolerance: retries, quarantine, chaos, resumable batches =="
python -m pytest -q tests/experiments/test_faults.py \
    tests/experiments/test_chaos.py tests/core/test_store.py

echo "== checkpoint codec: no writer bigger than its fallback, format errors =="
python -m pytest -q tests/ckpt/test_never_bigger.py \
    tests/ckpt/test_aux_format_errors.py tests/ckpt/test_roundtrip_properties.py \
    tests/ckpt/test_incremental.py tests/ckpt/test_precision.py \
    tests/ckpt/test_precision_properties.py
python -m repro.cli --class T --no-cache precision >/dev/null

echo "== replay plans: plan-vs-tracer bitwise equivalence =="
python -m pytest -q tests/ad/test_plan.py

echo "== plan lowering: IR passes, fused-vs-unfused bitwise equivalence =="
python -m pytest -q tests/ad/test_passes.py tests/ad/test_primitive_coverage.py \
    tests/ad/test_banded.py

echo "== FT kernel: bitwise vs the numpy chain =="
# the sampled inverse FFT transforms only what the checksum reads (blocked
# slabs, a pruned last forward pass, a pruned first adjoint pass); it must
# stay bitwise the whole-grid numpy chain on FT's T/S/A grids for any block
# budget, and every port's recorded verification values must still hold
python -m pytest -q tests/ad/test_ifftn_sampled.py \
    tests/npb/test_reference_values.py

echo "== CLI smoke: segmented sweep, enlarged class A =="
python -m repro.cli --class A --sweep segmented analyze CG >/dev/null

echo "== CLI smoke: batched multi-probe analysis =="
python -m repro.cli --class T --probes 4 analyze CG >/dev/null

echo "== perf baseline: BENCH_segmented.json =="
python benchmarks/test_segmented_memory.py --json BENCH_segmented.json

echo "== perf baseline: BENCH_probes.json =="
python benchmarks/test_probe_batching.py --json BENCH_probes.json

echo "== perf baseline: BENCH_plan.json =="
python benchmarks/test_trace_plan.py --json BENCH_plan.json

echo "== perf baseline: BENCH_lowering.json =="
python benchmarks/test_plan_lowering.py --json BENCH_lowering.json

echo "== CLI smoke: segmented activity analysis =="
python -m repro.cli --class T --method activity --sweep segmented \
    analyze CG >/dev/null

echo "== verification values: recorded table matches fresh full runs =="
# every port's verify compares against repro.npb.reference; a kernel change
# that moves a recorded value must regenerate the table
python -m repro.npb.reference --check

echo "== correctness: class-S restart verification, default engine =="
# every port's pruned restart must verify and the negative control (a
# restart with its critical elements corrupted) must fail; exit 0 iff so
python -m repro.cli verify >/dev/null

echo "== restart verification: scenarios resumed from the analysed state =="
# each scenario resumes from ScrutinyResult.state instead of step 0; its
# restart, final state and checkpoint files must equal a run from step 0,
# and the masks it writes at later steps must equal the analysed step's
python -m pytest -q tests/experiments/test_verify_resume.py \
    tests/ckpt/test_failure_storage.py \
    tests/experiments/test_step_independence.py
python -m repro.cli --class T --no-cache verify >/dev/null

echo "== correctness: negative control on the ports whose control crashes =="
# garbage critical elements crash FT's and IS's replay; the control must
# still report a failed verification (exit 0) instead of raising
python -m repro.cli --class T verify --benchmarks FT IS >/dev/null

echo "== benchmark harness self-tests =="
python -m pytest perfbench/tests -q

echo "== CLI smoke: chaos harness (worker kills + cache corruption) =="
# a chaos-injected batch must complete, quarantine nothing (the CLI exits
# non-zero otherwise) and print the same report as a fault-free run
chaos_cache="$(mktemp -d)"
plain_out="$(mktemp)"; chaos_out="$(mktemp)"; warm_out="$(mktemp)"
trap 'rm -rf "$cache_dir" "$chaos_cache" "$plain_out" "$chaos_out" "$warm_out"' EXIT
python -m repro.cli --class T verify --benchmarks CG EP IS > "$plain_out"
python -m repro.cli --class T --workers 2 --cache-dir "$chaos_cache" \
    --chaos worker-kill,corrupt-cache verify --benchmarks CG EP IS \
    > "$chaos_out"
grep -Eq "[1-9][0-9]* worker death" "$chaos_out"
grep -q "chaos-corrupted file" "$chaos_out"
diff <(grep -v '^$' "$plain_out") \
     <(sed '/^fault-tolerance:/,$d' "$chaos_out" | grep -v '^$')
# the warm re-run hits the chaos-corrupted cache entries: they must be
# quarantined and recomputed, with the report again unchanged
python -m repro.cli --class T --cache-dir "$chaos_cache" \
    verify --benchmarks CG EP IS > "$warm_out" 2>/dev/null
grep -q "corrupt entr" "$warm_out"
diff <(grep -v '^$' "$plain_out") \
     <(sed '/^fault-tolerance:/,$d' "$warm_out" | grep -v '^$')

echo "== code size: src/ Python lines =="
# reported like a benchmark figure: the lines every change has to carry
find src -name '*.py' -exec cat {} + | wc -l | sed 's/^ */src_python_lines: /'

echo "ci_check: OK"
