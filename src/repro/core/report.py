"""Reporting: uncritical-element counts and the checkpoint storage model.

Turns the per-variable criticality results into the two quantitative tables
of the paper:

* Table II -- number (and rate) of uncritical elements per checkpoint
  variable (:func:`uncritical_rows`);
* Table III -- checkpoint storage before/after eliminating uncritical
  elements (:func:`storage_rows`), using the same accounting as the
  homemade checkpoint library: a pruned checkpoint stores the critical
  elements' bytes plus the auxiliary file's region records, or a variable
  whole when pruning it would not pay (:func:`pruned_variable_nbytes`).

Formatting helpers render the rows as fixed-width text tables so the
experiment drivers, the CLI and the benchmark harness all print the same
thing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.core.criticality import VariableCriticality
from repro.core.regions import RECORD_NBYTES, prune_records
from repro.core.variables import VariableKind

__all__ = [
    "UncriticalRow",
    "StorageRow",
    "uncritical_rows",
    "storage_rows",
    "format_table",
    "format_bytes",
]


@dataclass(frozen=True)
class UncriticalRow:
    """One row of the paper's Table II."""

    benchmark: str
    variable: str
    uncritical: int
    total: int

    @property
    def uncritical_rate(self) -> float:
        """Fraction of uncritical elements."""
        return self.uncritical / self.total if self.total else 0.0

    @property
    def label(self) -> str:
        """``Benchmark(variable)`` label as printed in the paper."""
        return f"{self.benchmark}({self.variable})"

    def as_cells(self) -> tuple[str, ...]:
        """Render the row for :func:`format_table`."""
        return (self.label, str(self.uncritical), str(self.total),
                f"{100.0 * self.uncritical_rate:.1f}%")


@dataclass(frozen=True)
class StorageRow:
    """One row of the paper's Table III.

    ``original_nbytes`` / ``optimized_nbytes`` are checkpoint-*file* bytes
    (element data), matching the paper's accounting.  What the pruned
    checkpoint stores beyond the critical elements is reported separately
    in ``aux_nbytes``: the region records the paper keeps in a separate
    small file, plus the uncritical elements of variables stored whole
    because pruning them would not pay.
    """

    benchmark: str
    original_nbytes: int
    optimized_nbytes: int
    aux_nbytes: int = 0

    @property
    def saved_nbytes(self) -> int:
        """Checkpoint-file bytes saved by pruning."""
        return self.original_nbytes - self.optimized_nbytes

    @property
    def saved_fraction(self) -> float:
        """Fraction of checkpoint-file storage saved (the Table III cell)."""
        if self.original_nbytes == 0:
            return 0.0
        return self.saved_nbytes / self.original_nbytes

    @property
    def net_saved_fraction(self) -> float:
        """Saved fraction of what the pruned writer stores: records and
        break-even fallbacks charged."""
        if self.original_nbytes == 0:
            return 0.0
        return (self.saved_nbytes - self.aux_nbytes) / self.original_nbytes

    def as_cells(self) -> tuple[str, ...]:
        """Render the row for :func:`format_table`."""
        return (self.benchmark, format_bytes(self.original_nbytes),
                format_bytes(self.optimized_nbytes),
                f"{100.0 * self.saved_fraction:.1f}%")


def _array_float_variables(result: Mapping[str, VariableCriticality]
                           ) -> list[VariableCriticality]:
    """Non-scalar floating-point / dcomplex variables, in Table I order."""
    rows = []
    for crit in result.values():
        var = crit.variable
        if var.kind is VariableKind.INTEGER or var.is_scalar:
            continue
        rows.append(crit)
    return rows


def uncritical_rows(results: Mapping[str, Mapping[str, VariableCriticality]],
                    include_fully_critical: bool = False
                    ) -> list[UncriticalRow]:
    """Table II rows from per-benchmark criticality results.

    Parameters
    ----------
    results:
        ``{benchmark name: {variable name: VariableCriticality}}``.
    include_fully_critical:
        The paper's Table II only lists variables with at least one
        uncritical element; pass ``True`` to include the rest as well.
    """
    rows: list[UncriticalRow] = []
    for bench_name, variables in results.items():
        for crit in _array_float_variables(variables):
            if crit.n_uncritical == 0 and not include_fully_critical:
                continue
            rows.append(UncriticalRow(bench_name, crit.variable.name,
                                      crit.n_uncritical, crit.n_elements))
    return rows


def pruned_variable_nbytes(crit: VariableCriticality) -> int:
    """Bytes a pruned checkpoint stores for one variable: its critical
    elements plus their region records, or the whole variable when that is
    no larger (the writer's break-even rule,
    :func:`repro.core.regions.prune_records`)."""
    records = prune_records(crit.mask, crit.variable.element_nbytes)
    if records is None:
        return crit.full_nbytes
    return crit.critical_nbytes + RECORD_NBYTES * len(records)


def storage_rows(results: Mapping[str, Mapping[str, VariableCriticality]]
                 ) -> list[StorageRow]:
    """Table III rows: full vs. pruned checkpoint bytes per benchmark.

    Every checkpoint variable contributes: floating-point variables count
    their critical elements, integer / rule-critical variables are counted
    in full (they are fully critical).  That element count is the Table III
    figure compared with the paper.  What the homemade checkpoint library
    writes on top -- region records, and whole variables where pruning
    would not pay -- is reported in :attr:`StorageRow.aux_nbytes`.
    """
    rows: list[StorageRow] = []
    for bench_name, variables in results.items():
        original = 0
        optimized = 0
        aux = 0
        for crit in variables.values():
            original += crit.full_nbytes
            if crit.n_uncritical == 0:
                optimized += crit.full_nbytes
            else:
                optimized += crit.critical_nbytes
                aux += pruned_variable_nbytes(crit) - crit.critical_nbytes
        rows.append(StorageRow(bench_name, original, optimized, aux))
    return rows


def format_bytes(nbytes: int) -> str:
    """Human-readable byte count in the paper's style (``79.4kb``)."""
    if nbytes < 1024:
        return f"{nbytes}b"
    if nbytes < 1024 ** 2:
        return f"{nbytes / 1024.0:.1f}kb"
    if nbytes < 1024 ** 3:
        return f"{nbytes / 1024.0 ** 2:.1f}Mb"
    return f"{nbytes / 1024.0 ** 3:.2f}Gb"


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[str]],
                 title: str | None = None) -> str:
    """Fixed-width text rendering of a table."""
    str_rows = [tuple(str(c) for c in row) for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render(cells: Sequence[str]) -> str:
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

    lines = []
    if title:
        lines.append(title)
    lines.append(render(headers))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(render(row) for row in str_rows)
    return "\n".join(lines)
