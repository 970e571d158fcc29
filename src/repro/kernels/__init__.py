"""Batched NumPy CSR kernels for classified signal UDFs.

The interpreter executes one Python call per (vertex, machine) pair —
correct, but the dominant wall-clock cost.  This package executes whole
per-(machine, step) candidate batches as NumPy array programs over the
flattened CSR neighbor segments, for UDFs the analyzer classified into
a known shape (:mod:`repro.analysis.kernelspec`): pull signals and push
signals (:mod:`repro.kernels.csr`) and slot folds applied to a whole
update buffer at once (:mod:`repro.kernels.slots`).  Results, counters,
and simulated network traffic are bit-identical to the interpreter;
anything unclassified falls back to the per-vertex path, and
``SympleOptions.use_kernels=False`` (or ``use_kernels=False`` on the
baseline engines) turns the fast path off entirely.

Importing the package registers the built-in kernels; see
:func:`repro.kernels.registry.register_kernel` to add more.
"""

from repro.kernels import csr, slots  # noqa: F401 - registers built-in kernels
from repro.kernels.registry import (
    KernelBatch,
    PushBatch,
    available_kernels,
    get_kernel,
    register_kernel,
)

__all__ = [
    "KernelBatch",
    "PushBatch",
    "available_kernels",
    "get_kernel",
    "register_kernel",
]
