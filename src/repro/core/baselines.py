"""Classical scaling laws and related-work models used as baselines.

The paper positions its framework against:

* **Amdahl's law** [2] — strong scaling with a fixed serial fraction.
* **Gustafson's law** [3] — weak ("scaled") speedup.
* **Sparks et al.** [9] — ``t(n) = compute / n + comm * n`` (linear
  communication only; the paper shows this mis-models tree/all-reduce).
* **Ernest** (Venkataraman et al.) [11] — ``t(n) = a + b/n + c*log n + d*n``
  fitted by non-negative least squares on profiling runs.

Each baseline implements :class:`~repro.core.model.ScalabilityModel`, so
the ablation benches can overlay all of them on the same workload.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.communication import TorrentBroadcast
from repro.core.complexity import (
    CommunicationCost,
    ComputationCost,
    CostTerm,
    FixedCost,
    NamedCost,
    OverheadCost,
    SumCost,
)
from repro.core.errors import CalibrationError, ModelError
from repro.core.model import ScalabilityModel


@dataclass(frozen=True)
class AmdahlLaw(ScalabilityModel):
    """Amdahl's law: ``s(n) = 1 / (f + (1 - f)/n)`` for serial fraction f.

    Expressed as a time model with unit single-node time so it plugs into
    the shared speedup tooling.
    """

    serial_fraction: float
    single_node_time: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.serial_fraction <= 1.0:
            raise ModelError(f"serial_fraction must be in [0, 1], got {self.serial_fraction}")
        if self.single_node_time <= 0:
            raise ModelError(f"single_node_time must be positive, got {self.single_node_time}")

    def cost(self) -> CostTerm:
        f = self.serial_fraction
        return SumCost(
            (
                NamedCost("serial", FixedCost(self.single_node_time * f)),
                NamedCost(
                    "parallel",
                    ComputationCost(
                        total_operations=self.single_node_time * (1.0 - f), flops=1.0
                    ),
                    kind="computation",
                ),
            )
        )

    @property
    def max_speedup(self) -> float:
        """The asymptotic speedup ceiling ``1/f`` (infinite for f = 0)."""
        if self.serial_fraction == 0:
            return math.inf
        return 1.0 / self.serial_fraction


@dataclass(frozen=True)
class GustafsonLaw:
    """Gustafson's scaled speedup: ``s(n) = n - f * (n - 1)``.

    This is a *speedup* law for a workload grown with the machine, so it
    exposes ``speedup`` directly instead of a time function.
    """

    serial_fraction: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.serial_fraction <= 1.0:
            raise ModelError(f"serial_fraction must be in [0, 1], got {self.serial_fraction}")

    def speedup(self, workers: int) -> float:
        """Scaled speedup with ``workers`` nodes."""
        if workers < 1:
            raise ModelError(f"workers must be >= 1, got {workers}")
        return workers - self.serial_fraction * (workers - 1)


@dataclass(frozen=True)
class SparksModel(ScalabilityModel):
    """The cluster-size estimator of Sparks et al. [9].

    ``t(n) = compute_seconds / n + communication_seconds * n`` — parallel
    computation plus communication that grows linearly with the cluster,
    which is accurate for master-serialised gathers but pessimistic for
    tree or all-reduce collectives (the paper's critique).
    """

    compute_seconds: float
    communication_seconds: float
    fixed_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.compute_seconds < 0:
            raise ModelError(f"compute_seconds must be non-negative, got {self.compute_seconds}")
        if self.communication_seconds < 0:
            raise ModelError(
                f"communication_seconds must be non-negative, got {self.communication_seconds}"
            )
        if self.fixed_seconds < 0:
            raise ModelError(f"fixed_seconds must be non-negative, got {self.fixed_seconds}")

    def cost(self) -> CostTerm:
        return SumCost(
            (
                FixedCost(self.fixed_seconds),
                ComputationCost(total_operations=self.compute_seconds, flops=1.0),
                NamedCost(
                    "communication",
                    OverheadCost(seconds_per_worker=self.communication_seconds),
                    kind="communication",
                ),
            )
        )

    @property
    def analytic_optimum(self) -> float:
        """Continuous minimiser ``sqrt(compute / communication)``."""
        if self.communication_seconds == 0:
            return math.inf
        return math.sqrt(self.compute_seconds / self.communication_seconds)

    @classmethod
    def fit(cls, workers: Sequence[int], times: Sequence[float]) -> "SparksModel":
        """Fit the three coefficients by non-negative least squares."""
        features = _feature_matrix(workers, (lambda n: 1.0, lambda n: 1.0 / n, lambda n: float(n)))
        coeffs = _nnls(features, times)
        return cls(
            fixed_seconds=coeffs[0], compute_seconds=coeffs[1], communication_seconds=coeffs[2]
        )


@dataclass(frozen=True)
class ErnestModel(ScalabilityModel):
    """Ernest (Venkataraman et al.) [11]: ``a + b/n + c*log2(n) + d*n``.

    The paper notes this family needs experimental runs to estimate its
    parameters — exactly what :meth:`fit` does — whereas the paper's own
    models are built from hardware specifications alone.
    """

    fixed_seconds: float
    compute_seconds: float
    log_seconds: float
    linear_seconds: float

    def __post_init__(self) -> None:
        for name in ("fixed_seconds", "compute_seconds", "log_seconds", "linear_seconds"):
            value = getattr(self, name)
            if value < 0:
                raise ModelError(f"{name} must be non-negative, got {value}")

    def cost(self) -> CostTerm:
        # The smooth-log term is a torrent-shaped collective carrying
        # ``log_seconds`` worth of payload on a unit-bandwidth link.
        log_term = CommunicationCost(TorrentBroadcast(1.0), bits=self.log_seconds)
        return SumCost(
            (
                FixedCost(self.fixed_seconds),
                ComputationCost(total_operations=self.compute_seconds, flops=1.0),
                NamedCost("log", log_term, kind="communication"),
                NamedCost("linear", OverheadCost(seconds_per_worker=self.linear_seconds)),
            )
        )

    @classmethod
    def fit(cls, workers: Sequence[int], times: Sequence[float]) -> "ErnestModel":
        """Fit the four coefficients by non-negative least squares (as Ernest does)."""
        features = _feature_matrix(
            workers,
            (
                lambda n: 1.0,
                lambda n: 1.0 / n,
                lambda n: math.log2(n) if n > 1 else 0.0,
                lambda n: float(n),
            ),
        )
        coeffs = _nnls(features, times)
        return cls(
            fixed_seconds=coeffs[0],
            compute_seconds=coeffs[1],
            log_seconds=coeffs[2],
            linear_seconds=coeffs[3],
        )


def _feature_matrix(workers: Sequence[int], features) -> np.ndarray:
    if len(workers) == 0:
        raise CalibrationError("cannot fit a model to zero measurements")
    if any(n < 1 for n in workers):
        raise CalibrationError("worker counts must be >= 1")
    return np.array([[feature(n) for feature in features] for n in workers], dtype=float)


def _nnls(features: np.ndarray, times: Sequence[float]) -> np.ndarray:
    import scipy.optimize  # ~0.6 s on first import; only fits pay it

    observed = np.asarray(times, dtype=float)
    if observed.ndim != 1 or observed.shape[0] != features.shape[0]:
        raise CalibrationError(
            f"times must be a vector matching {features.shape[0]} measurements"
        )
    if np.any(observed <= 0):
        raise CalibrationError("measured times must be positive")
    if features.shape[0] < features.shape[1]:
        raise CalibrationError(
            f"need at least {features.shape[1]} measurements, got {features.shape[0]}"
        )
    coeffs, _residual = scipy.optimize.nnls(features, observed)
    return coeffs
