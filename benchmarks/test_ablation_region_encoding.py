"""Ablation -- auxiliary-file encodings and checkpoint I/O cost.

Compares the strided (start, length, stride, count) region records -- the
paper's start/end records, generalised to arithmetic progressions of runs --
against a raw bitmap of the criticality mask, and measures the
encode/decode and pruned-write/restore costs on the paper's largest
variable (FT's ``y``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt.reader import read_checkpoint
from repro.ckpt.writer import write_pruned_checkpoint
from repro.core.regions import (aux_record_nbytes, decode_records,
                                encode_records)
from repro.experiments import ablation


@pytest.mark.paper
def test_ablation_region_records_vs_bitmap(benchmark, runner_s):
    report = benchmark.pedantic(lambda: ablation.run_encoding(
        benchmarks=("BT", "SP", "MG", "CG", "LU", "FT"), problem_class="S"),
        iterations=1, rounds=1)
    print("\n" + report.text)
    rows = report.data["rows"]
    # the records cost less than the payload they save back everywhere but
    # CG's x (2 elements, 16 bytes), which the writer's break-even rule
    # stores whole
    too_costly = {var for var, entry in rows.items()
                  if entry["region_bytes"] >= entry["payload_saved"]}
    assert too_costly == {("CG", "x")}
    crit = runner_s.result("CG").variables["x"]
    assert aux_record_nbytes(crit.mask, crit.variable.element_nbytes) == 0
    # FT's per-row padding plane is one progression: a single record
    assert rows[("FT", "y")]["n_records"] == 1
    assert rows[("FT", "y")]["region_bytes"] \
        < rows[("FT", "y")]["payload_saved"]
    # MG's striped residual stays cheap: ~1k runs, < 20 KiB of records
    assert rows[("MG", "r")]["region_bytes"] < 20 * 1024


def test_region_encode_decode_cost_mg_r(benchmark, runner_s):
    """Encode+decode cost of the most fragmented mask in the study."""
    mask = runner_s.result("MG").variables["r"].mask

    def roundtrip():
        return decode_records(encode_records(mask), mask.size)

    decoded = benchmark(roundtrip)
    np.testing.assert_array_equal(decoded, mask.reshape(-1))


def test_pruned_checkpoint_roundtrip_cost_ft(benchmark, runner_s, tmp_path):
    """Write + read + materialise cost for the largest variable (FT y)."""
    bench = runner_s.benchmark("FT")
    result = runner_s.result("FT")
    base = bench.initial_state()

    def roundtrip(counter=[0]):
        counter[0] += 1
        written = write_pruned_checkpoint(
            tmp_path / f"ft_{counter[0]}.ckpt", bench, result.state,
            result.variables, step=result.step)
        loaded = read_checkpoint(written.path)
        return loaded.materialize(base)

    state = benchmark.pedantic(roundtrip, iterations=1, rounds=3)
    mask = result.variables["y"].mask
    np.testing.assert_array_equal(state["y_re"][mask],
                                  result.state["y_re"][mask])


def test_aux_overhead_never_exceeds_the_savings(runner_s, benchmark):
    """Per benchmark, the region records the writer stores never cost more
    than the bytes pruning saves, and suite-wide they stay below 5% of the
    savings."""

    def per_benchmark_totals():
        totals = {}
        for name in ("BT", "SP", "MG", "CG", "LU", "FT"):
            overhead = saved = 0
            for crit in runner_s.result(name).variables.values():
                records = aux_record_nbytes(crit.mask,
                                            crit.variable.element_nbytes)
                if records:
                    overhead += records
                    saved += crit.full_nbytes - crit.critical_nbytes
            totals[name] = (overhead, saved)
        return totals

    totals = benchmark(per_benchmark_totals)
    for name, (overhead, saved) in totals.items():
        assert overhead <= saved, f"{name}: aux records exceed savings"
    total = sum(overhead for overhead, _ in totals.values())
    total_saved = sum(saved for _, saved in totals.values())
    assert total < 0.05 * total_saved
