"""Writing full and pruned checkpoints.

The writer operates on the same state dicts the benchmarks produce.  A
*full* checkpoint stores every state entry verbatim.  A *pruned* checkpoint
hands every variable's criticality mask to the codec
(:mod:`repro.ckpt.codec`), which stores the variable's critical elements
with their regions as strided records in the auxiliary file when that is
smaller than the variable (:func:`repro.core.regions.prune_records`), and
verbatim otherwise.  When the pruned file plus its auxiliary file would not
be smaller than the full checkpoint, the pruned writer writes exactly the
full checkpoint and no auxiliary file.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.core.criticality import VariableCriticality
# ``encode_mask`` stays importable from here: profilers hook the region
# encoders by that name (see perfbench/spans.py)
from repro.core.regions import encode_mask  # noqa: F401

from .codec import (WrittenCheckpoint, as_arrays, default_aux_path,
                    encode_checkpoint, verbatim_record,  # noqa: F401
                    write_smallest)
from .format import write_container

__all__ = ["WrittenCheckpoint", "write_full_checkpoint",
           "write_pruned_checkpoint"]


def header_meta(bench, state: Mapping[str, Any], step: int | None) -> dict:
    """Benchmark name, problem class and step of a checkpoint header; the
    step defaults to the benchmark's step counter in ``state``."""
    if step is None:
        step_name = bench.step_variable() if hasattr(bench, "step_variable") \
            else None
        step = int(np.asarray(state[step_name])) if step_name else 0
    return {
        "benchmark": getattr(bench, "name", "unknown"),
        "problem_class": str(getattr(getattr(bench, "params", None),
                                     "problem_class", "?")),
        "step": int(step),
    }


def write_full_checkpoint(path: str | Path, bench, state: Mapping[str, Any],
                          step: int | None = None) -> WrittenCheckpoint:
    """Write every state entry verbatim (the conventional checkpoint)."""
    meta = header_meta(bench, state, step)
    layout = encode_checkpoint(meta, "full", as_arrays(state))
    nbytes = write_container(path, layout.header, layout.payloads)
    return WrittenCheckpoint(Path(path), "full", meta["step"], nbytes)


def write_pruned_checkpoint(path: str | Path, bench,
                            state: Mapping[str, Any],
                            criticality: Mapping[str, VariableCriticality],
                            aux_path: str | Path | None = None,
                            step: int | None = None) -> WrittenCheckpoint:
    """Write only critical elements, with the regions in the auxiliary file.

    Parameters
    ----------
    path, aux_path:
        Checkpoint and auxiliary file paths; ``aux_path`` defaults to
        ``path`` with an ``.aux`` suffix appended.
    bench, state:
        The benchmark and the state to checkpoint.
    criticality:
        Per-variable criticality (``{variable name: VariableCriticality}``),
        e.g. ``ScrutinyResult.variables`` from :func:`repro.core.scrutinize`.

    When nothing is worth pruning the file is byte-identical to
    :func:`write_full_checkpoint`'s, ``mode`` is ``"full"`` and
    ``aux_nbytes`` is 0.
    """
    path = Path(path)
    aux_path = default_aux_path(path, aux_path)
    meta = header_meta(bench, state, step)
    arrays = as_arrays(state)
    variables = [(crit.name, crit.variable.state_keys(), crit.mask, None)
                 for crit in criticality.values()]
    return write_smallest(path, aux_path, [
        encode_checkpoint(meta, "full", arrays),
        encode_checkpoint(meta, "pruned", arrays, variables, aux_path.name)])
