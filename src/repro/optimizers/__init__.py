"""Post-synthesis circuit optimizers: the PyZX and BQSKit substitutes.

The list-based :func:`fold_phases` remains as the paper's original
PyZX stand-in; the DAG passes of :mod:`repro.optimizers.dag_passes`
(:func:`optimize_circuit` and friends) are the stronger
commutation-aware optimizer built on :class:`repro.circuits.CircuitDAG`.
They run the vectorized kernels of :mod:`repro.optimizers.columnar`
over the struct-of-arrays :class:`repro.circuits.DAGTable`; the
original per-node loops are kept as byte-identical ``*_reference``
specifications for tests and the passes bench.
"""

from repro.optimizers.columnar import (
    OptimizeStats,
    cancel_inverses_table,
    collect_two_qubit_blocks_table,
    fold_phases_table,
    merge_rotations_table,
    optimize_table,
)
from repro.optimizers.dag_passes import (
    cancel_inverses,
    cancel_inverses_reference,
    collect_two_qubit_blocks,
    collect_two_qubit_blocks_reference,
    fold_phases_dag,
    fold_phases_dag_reference,
    merge_rotations,
    merge_rotations_reference,
    optimize_circuit,
    optimize_dag,
    optimize_dag_reference,
)
from repro.optimizers.kak import KAKDecomposition, kak_decompose
from repro.optimizers.phase_folding import fold_phases
from repro.optimizers.resynth import partition_two_qubit_blocks, resynthesize

__all__ = [
    "KAKDecomposition",
    "OptimizeStats",
    "cancel_inverses",
    "cancel_inverses_reference",
    "cancel_inverses_table",
    "collect_two_qubit_blocks",
    "collect_two_qubit_blocks_reference",
    "collect_two_qubit_blocks_table",
    "fold_phases",
    "fold_phases_dag",
    "fold_phases_dag_reference",
    "fold_phases_table",
    "kak_decompose",
    "merge_rotations",
    "merge_rotations_reference",
    "merge_rotations_table",
    "optimize_circuit",
    "optimize_dag",
    "optimize_dag_reference",
    "optimize_table",
    "partition_two_qubit_blocks",
    "resynthesize",
]
