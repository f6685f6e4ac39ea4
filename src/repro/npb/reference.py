"""Recorded verification values of the NPB ports.

NPB verifies a run by comparing a few quantities of its final state
against reference values written into its source, one set per problem
class.  This module is that table for the ports: for every registered
(port, class) it holds the quantities the port's
:meth:`~repro.npb.base.NPBBenchmark.verification_quantities` returns, and
:meth:`~repro.npb.base.NPBBenchmark.verify` compares against them -- so
verifying a restart never reruns the benchmark.

* BT, SP: per-component ``error_rms`` and ``residual_rms``;
* LU: per-component ``error_rms`` and ``rsd_rms``, and ``flux``;
* MG: ``rnm2`` and ``unorm``;
* CG: ``zeta``;
* FT: the per-iteration complex checksums ``sums``;
* EP: the Gaussian sums ``sx``, ``sy`` and the accepted-pair count ``gc``.

IS verifies its ranking directly and has no entry.  The values come from
this repository's own full runs, written with ``repr`` so they round-trip
exactly, except EP class S, which holds NPB's published class-S values
(:data:`PUBLISHED`).  After a kernel change, regenerate the table with::

    python -m repro.npb.reference          # prints VALUES to paste below
    python -m repro.npb.reference --check  # exit 1 if any entry drifted
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Mapping, Sequence

import numpy as np

from .common import relative_error
from .params import CLASSES, params_for

__all__ = ["DRIFT_TOLERANCE", "PUBLISHED", "VALUES", "check",
           "format_values", "main", "recompute", "recorded_values",
           "registered_keys"]


#: entries holding NPB's published values rather than a run of this port
PUBLISHED = frozenset({("EP", "S")})

#: largest relative difference (per element, FT's complex criterion
#: included) between a fresh full run and its recorded value that is not
#: drift
DRIFT_TOLERANCE = 1.0e-13


def registered_keys() -> list[tuple[str, str]]:
    """Every (port, class) whose ``verify`` reads this table."""
    from .base import NPBBenchmark
    from .registry import BENCHMARKS, registered

    ports = {problem_class: registered(problem_class)
             for problem_class in CLASSES}
    return [(name, problem_class) for name, port in BENCHMARKS.items()
            if port.verification_quantities
            is not NPBBenchmark.verification_quantities
            for problem_class in CLASSES if name in ports[problem_class]]


def recorded_values(bench) -> tuple[Mapping[str, Any], str]:
    """The recorded quantities of ``bench``, and where they come from.

    Raises ``ValueError`` unless ``bench`` runs the registered parameters
    of its class: values are recorded for those alone.
    """
    key = (bench.name, bench.params.problem_class)
    try:
        registered = params_for(*key)
    except (KeyError, ValueError):
        registered = None
    if key not in VALUES or bench.params != registered:
        raise ValueError(
            f"{key[0]} class {key[1]}: verification values are recorded "
            f"only for the registered parameters, params_for{key!r}")
    source = "NPB published values" if key in PUBLISHED \
        else "recorded values"
    return VALUES[key], source


def recompute(keys: Sequence[tuple[str, str]] | None = None
              ) -> dict[tuple[str, str], dict[str, Any]]:
    """Verification quantities of a fresh full run of every entry."""
    from .registry import create

    values = {}
    for name, problem_class in registered_keys() if keys is None else keys:
        bench = create(name, problem_class)
        values[(name, problem_class)] = \
            bench.verification_quantities(bench.run_full())
    return values


def check() -> list[str]:
    """Entries whose fresh full run drifted from the table (empty if none)."""
    keys = registered_keys()
    drifts = [f"{name} class {cls}: no recorded values"
              for name, cls in keys if (name, cls) not in VALUES]
    for (name, cls), got in recompute(
            [key for key in keys if key in VALUES]).items():
        for quantity, ref in VALUES[(name, cls)].items():
            worst = float(np.max(relative_error(got[quantity], ref)))
            if not worst <= DRIFT_TOLERANCE:
                drifts.append(f"{name} class {cls}: {quantity} drifted by "
                              f"{worst:.3e} relative")
    return drifts


def _literal(value: Any) -> list[str]:
    """``repr`` of every element of a recorded quantity."""
    arr = np.asarray(value)
    items = [complex(v) if np.iscomplexobj(arr) else float(v)
             for v in arr.reshape(-1)]
    return [repr(v) for v in items]


def format_values(values: Mapping[tuple[str, str], Mapping[str, Any]]
                  ) -> str:
    """Python source of ``VALUES = {...}`` holding ``values``."""
    lines = ["VALUES: dict[tuple[str, str], dict[str, Any]] = {"]
    for (port, problem_class), quantities in values.items():
        lines.append(f'    ("{port}", "{problem_class}"): {{')
        for name, value in quantities.items():
            items = _literal(value)
            if np.ndim(value) == 0:
                lines.append(f'        "{name}": {items[0]},')
                continue
            lines.append(f'        "{name}": (')
            row = "           "
            for item in items:
                if len(row) + len(item) + 2 > 79:
                    lines.append(row)
                    row = "           "
                row += f" {item},"
            lines.extend([row, "        ),"])
        lines.append("    },")
    lines.append("}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """Print the regenerated table, or with ``--check`` report drift."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.npb.reference",
        description="Regenerate the recorded NPB verification values.")
    parser.add_argument("--check", action="store_true",
                        help="recompute every entry and exit 1 if any "
                             "differs from the table by more than "
                             f"{DRIFT_TOLERANCE:g} relative")
    args = parser.parse_args(argv)
    if args.check:
        drifts = check()
        for line in drifts:
            print(line)
        print(f"{len(registered_keys())} entries checked, "
              f"{len(drifts)} drifted")
        return 1 if drifts else 0
    keys = registered_keys()
    fresh = recompute([key for key in keys if key not in PUBLISHED])
    print(format_values({key: VALUES[key] if key in PUBLISHED
                         else fresh[key] for key in keys}))
    return 0


# generated by ``python -m repro.npb.reference``; EP class S is NPB's
# published class-S values
VALUES: dict[tuple[str, str], dict[str, Any]] = {
    ("BT", "T"): {
        "error_rms": (
            0.15896049195541823, 0.07677213724008881, 0.18374141318123854,
            0.11277313113922494, 0.3825975006647784,
        ),
        "residual_rms": (
            0.3434654117491287, 0.17268416148783758, 0.38112751952193363,
            0.23166378998657883, 0.8840624727379908,
        ),
    },
    ("BT", "S"): {
        "error_rms": (
            0.16763756383649533, 0.08842825020950061, 0.1844124279949879,
            0.11690810216314838, 0.36507492978538253,
        ),
        "residual_rms": (
            0.28912419953503277, 0.16092249224612287, 0.3134375676093092,
            0.20745115935458397, 0.5479046584844577,
        ),
    },
    ("SP", "T"): {
        "error_rms": (
            0.1583798166186673, 0.0764301715708333, 0.18310122345950158,
            0.1123530201244523, 0.3813877137069294,
        ),
        "residual_rms": (
            0.2734354771585486, 0.1374613058033781, 0.30385567546299286,
            0.18473013084621343, 0.705677038505476,
        ),
    },
    ("SP", "S"): {
        "error_rms": (
            0.2351428606438865, 0.12828573849238883, 0.25564566553878004,
            0.16613662078371005, 0.47586766616546117,
        ),
        "residual_rms": (
            0.1924437012595673, 0.11398468066388465, 0.20597194765837298,
            0.14389950237602386, 0.30484864771828135,
        ),
    },
    ("SP", "A"): {
        "error_rms": (
            0.10278274552982378, 0.05195490948342596, 0.11700875308502015,
            0.07310755100303679, 0.23666072641543728,
        ),
        "residual_rms": (
            0.2740828886567739, 0.1413680451809531, 0.30163625173268016,
            0.18683308775482002, 0.6479998726409915,
        ),
    },
    ("MG", "T"): {
        "rnm2": 0.01936079230927752,
        "unorm": 0.0022508790829574715,
    },
    ("MG", "S"): {
        "rnm2": 0.003405398620014377,
        "unorm": 8.108619768348532e-05,
    },
    ("MG", "A"): {
        "rnm2": 0.008644514838972198,
        "unorm": 0.0009408650909175479,
    },
    ("CG", "T"): {
        "zeta": 23.03093078618427,
    },
    ("CG", "S"): {
        "zeta": 21.51987178076716,
    },
    ("CG", "A"): {
        "zeta": 41.542799332218365,
    },
    ("LU", "T"): {
        "error_rms": (
            0.12132128437287948, 0.08147789895890704, 0.1321119600411358,
            0.09825714393918565, 0.21597223738053353,
        ),
        "rsd_rms": (
            0.054784892903663125, 0.049071153191455184, 0.05717764441665079,
            0.05029118168477903, 0.08850052185755367,
        ),
        "flux": (
            2.733603168745638,
        ),
    },
    ("LU", "S"): {
        "error_rms": (
            0.5360985658899826, 0.3786940931014363, 0.5695699080338967,
            0.44909004036923045, 0.7637362368872859,
        ),
        "rsd_rms": (
            0.31776517992609726, 0.22005529760086026, 0.3378730088912251,
            0.26314409786272613, 0.45969514304250775,
        ),
        "flux": (
            2.9510807666179115,
        ),
    },
    ("FT", "T"): {
        "sums": (
            (0.24812812311584864+0j), (0.24813073966744303+0j),
            (0.24813335478327603+0j),
        ),
    },
    ("FT", "S"): {
        "sums": (
            (0.001989817758387089+8.649786571890302e-21j),
            (0.001988540278997301+2.7691658190316754e-21j),
            (0.001987296076804908-3.9357077337719836e-21j),
            (0.001986084928474333-1.1801726840499392e-21j),
            (0.0019849065252337647-5.466828376639741e-21j),
            (0.0019837604856034127-8.05206229369851e-21j),
        ),
    },
    ("FT", "A"): {
        "sums": (
            (0.0008825093079941897-2.229198834306973e-21j),
            (0.0008817627700894329-1.8670770844532875e-21j),
            (0.0008810492415610919-3.890256889246458e-21j),
            (0.0008803698835562806-3.4739426232420057e-22j),
            (0.0008797251270874245-2.0290948765851381e-22j),
            (0.0008791148403898849-1.5347497202187931e-21j),
            (0.000878538464299081-2.8222704832310398e-21j),
            (0.0008779951213534885+1.6185990714358709e-21j),
            (0.0008774837033457145+1.7699488677273635e-21j),
            (0.0008770029412259015-3.286222654380152e-22j),
        ),
    },
    ("EP", "T"): {
        "sx": -108.8663595302369,
        "sy": 67.47355257976994,
        "gc": 3178.0,
    },
    ("EP", "S"): {
        "sx": -3247.83465203474,
        "sy": -6958.407078382297,
        "gc": 13176389.0,
    },
    ("EP", "A"): {
        "sx": 377.6455003569185,
        "sy": 16.262768426731487,
        "gc": 411449.0,
    },
}


if __name__ == "__main__":
    sys.exit(main())
