"""Tests of the recorded verification values and the shared ``verify``."""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np
import pytest

from repro.npb import reference, registry
from repro.npb.base import NPBBenchmark
from repro.npb.common import relative_error
from repro.npb.params import CLASSES, params_for

KEYS = reference.registered_keys()
T_PORTS = [name for name, cls in KEYS if cls == "T"]


def _key_id(key: tuple[str, str]) -> str:
    return "-".join(key)


class TestTable:
    def test_every_registered_port_and_class_but_is_has_an_entry(self):
        expected = set()
        for name in registry.BENCHMARKS:
            for cls in CLASSES:
                try:
                    params_for(name, cls)
                except KeyError:
                    continue
                if name != "IS":
                    expected.add((name, cls))
        assert set(KEYS) == expected
        assert set(reference.VALUES) == expected

    def test_printed_table_round_trips_exactly(self):
        namespace: dict[str, Any] = {"Any": Any}
        exec(reference.format_values(reference.VALUES), namespace)
        assert namespace["VALUES"] == reference.VALUES


@pytest.mark.parametrize("key", KEYS, ids=_key_id)
def test_fresh_full_run_matches_the_table(key):
    bench = registry.create(*key)
    final = bench.run_full()
    got = bench.verification_quantities(final)
    recorded = reference.VALUES[key]
    assert set(got) == set(recorded)
    for quantity, ref in recorded.items():
        # FT's sums are complex: the error is relative to the magnitude
        rel = relative_error(got[quantity], ref)
        assert np.max(rel) <= reference.DRIFT_TOLERANCE, (key, quantity)
    result = bench.verify(final)
    assert result.passed, result.summary()
    assert result.notes == ("NPB published values"
                            if key in reference.PUBLISHED
                            else "recorded values")


def _scaled_cases() -> list[tuple[str, str]]:
    return [(name, quantity) for name in T_PORTS
            for quantity in reference.VALUES[(name, "T")]]


@pytest.mark.parametrize("name,quantity", _scaled_cases(),
                         ids=lambda case: str(case))
def test_one_scaled_recorded_element_fails_verify(monkeypatch, name,
                                                  quantity):
    bench = registry.create(name, "T")
    final = bench.run_full()
    key = (name, "T")
    entry = dict(reference.VALUES[key])
    values = np.array(entry[quantity], ndmin=1)
    values[0] = values[0] * (1.0 + 10.0 * bench.epsilon)
    entry[quantity] = values if np.ndim(entry[quantity]) else values[0]
    monkeypatch.setitem(reference.VALUES, key, entry)
    result = bench.verify(final)
    assert not result.passed
    assert max(result.details.values()) > bench.epsilon


@pytest.mark.parametrize("name", list(registry.BENCHMARKS))
def test_verify_runs_no_iteration(monkeypatch, name):
    bench = registry.create(name, "T")
    final = bench.run_full()
    calls = []

    def spy(state):
        calls.append(state)
        return type(bench)._advance(bench, state)

    monkeypatch.setattr(bench, "_advance", spy)
    assert bench.verify(final).passed
    assert calls == []


@pytest.mark.parametrize("name", T_PORTS)
def test_unregistered_params_raise(name):
    params = params_for(name, "T")
    field = "niter" if hasattr(params, "niter") else "m"
    changed = dataclasses.replace(params, **{field: getattr(params, field)
                                             + 1})
    bench = type(registry.create(name, "T"))(params=changed)
    with pytest.raises(ValueError, match=f"{name} class T"):
        bench.verify(bench.initial_state())


def test_unregistered_class_raises():
    # BT has no class A, so nothing is recorded for it
    bench = registry.BENCHMARKS["BT"](
        params=dataclasses.replace(params_for("BT", "T"),
                                   problem_class="A"))
    with pytest.raises(ValueError, match="BT class A"):
        bench.verify(bench.initial_state())


def test_base_class_has_no_quantities():
    with pytest.raises(NotImplementedError):
        NPBBenchmark(params_for("CG", "T")).verification_quantities({})
