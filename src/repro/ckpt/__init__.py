"""The homemade checkpointing library (paper Section III-B).

Writes conventional *full* checkpoints and *pruned* checkpoints that store
only the critical elements identified by the analysis, with the critical
regions recorded as strided records in a small auxiliary file (none when
nothing is worth pruning), plus incremental and mixed-precision ones, all
through one per-variable codec (:mod:`repro.ckpt.codec`); restores every
kind with one reader; manages
versioned checkpoint directories; and provides the failure-injection harness
the restart-correctness experiments (Section IV-C) are built on.

Typical use::

    from repro import ckpt
    from repro.core import scrutinize
    from repro.npb import registry

    bench = registry.create("BT")
    result = scrutinize(bench)
    written = ckpt.write_pruned_checkpoint("bt.ckpt", bench, result.state,
                                           result.variables)
    outcome = ckpt.restart_benchmark(bench, written.path)
    assert outcome.passed
"""

from .auxfile import read_aux_file, write_aux_file
from .failure import (FailureScenarioResult, SimulatedFailure, corrupt_state,
                      run_failure_scenario)
from .format import (CheckpointFormatError, CheckpointHeader, RecordSpec,
                     read_container, read_header, write_container)
from .incremental import (apply_incremental, changed_mask,
                          read_incremental_checkpoint, restore_chain,
                          write_incremental_checkpoint)
from .manager import CheckpointManager, run_with_checkpoints
from .precision import (read_mixed_precision_checkpoint,
                        write_mixed_precision_checkpoint)
from .reader import LoadedCheckpoint, read_checkpoint
from .restart import RestartOutcome, restart_benchmark, restore_state
from .storage import StorageComparison, measure_checkpoint_storage
from .writer import (WrittenCheckpoint, write_full_checkpoint,
                     write_pruned_checkpoint)

__all__ = [
    "CheckpointFormatError",
    "CheckpointHeader",
    "RecordSpec",
    "write_container",
    "read_container",
    "read_header",
    "write_aux_file",
    "read_aux_file",
    "WrittenCheckpoint",
    "write_full_checkpoint",
    "write_pruned_checkpoint",
    "LoadedCheckpoint",
    "read_checkpoint",
    "RestartOutcome",
    "restore_state",
    "restart_benchmark",
    "CheckpointManager",
    "run_with_checkpoints",
    "SimulatedFailure",
    "corrupt_state",
    "FailureScenarioResult",
    "run_failure_scenario",
    "StorageComparison",
    "measure_checkpoint_storage",
    "write_mixed_precision_checkpoint",
    "read_mixed_precision_checkpoint",
    "changed_mask",
    "write_incremental_checkpoint",
    "read_incremental_checkpoint",
    "apply_incremental",
    "restore_chain",
]
