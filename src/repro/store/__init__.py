"""Columnar result store and grid refinement.

``repro.store`` is a leaf package: it imports numpy and ``repro.core``
only, never ``repro.scenarios`` (which imports *it*).  The two modules
are independently useful:

- :mod:`repro.store.columnar` — the memory-mapped point-level store
  under :class:`repro.scenarios.sweep.SweepRunner`;
- :mod:`repro.store.refine` — progressive worker-grid refinement.
"""

from repro.store.columnar import (
    LazyPoints,
    ResultStore,
    StorePlan,
    default_cache_dir,
    family_key,
    grid_geometry,
    materialize_point,
    sweep_signature,
)
from repro.store.refine import RefinedCurve, refine_worker_grid

__all__ = [
    "LazyPoints",
    "RefinedCurve",
    "ResultStore",
    "StorePlan",
    "default_cache_dir",
    "family_key",
    "grid_geometry",
    "materialize_point",
    "refine_worker_grid",
    "sweep_signature",
]
