"""The paper's gradient-descent scalability models (Sections IV-A, V-A).

Three variants, in the paper's notation (``C`` ops/sample, ``S`` batch,
``F`` FLOPS/node, ``W`` parameters, ``B`` bit/s):

* generic data-parallel GD:       ``t = C*S/(F*n) + 2*(32W/B)*log2(n)``
* Spark batch GD (Figure 2):      ``t = 6W*S/(F*n) + (64W/B)*log2(n)
                                       + 2*(64W/B)*ceil(sqrt(n))``
* weak-scaling sync SGD (Fig. 3): ``t = ((C*S)/F + 2*(32W/B)*log2(n))/n``
  per training instance, plus a linear-communication variant the paper
  contrasts it with ("the linear communication model allows only finite
  scaling").

Every model is a *cost-term tree* (see :mod:`repro.core.complexity`):
the subclass builds its labeled terms in :meth:`cost` and inherits
batched ``times``, generic ``decompose`` and the speedup helpers from
:class:`~repro.core.model.ScalabilityModel`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.communication import LinearCommunication, TorrentBroadcast, TwoWaveAggregation
from repro.core.complexity import (
    AmortizedCost,
    CommunicationCost,
    ComputationCost,
    CostTerm,
    NamedCost,
    ScaledCost,
    SumCost,
)
from repro.core.errors import ModelError
from repro.core.model import ScalabilityModel


def _validate_common(
    operations_per_sample: float,
    batch_size: float,
    flops: float,
    parameters: float,
    bandwidth_bps: float,
    bits_per_parameter: int,
) -> None:
    if operations_per_sample <= 0:
        raise ModelError(f"operations_per_sample must be positive, got {operations_per_sample}")
    if batch_size <= 0:
        raise ModelError(f"batch_size must be positive, got {batch_size}")
    if flops <= 0:
        raise ModelError(f"flops must be positive, got {flops}")
    if parameters <= 0:
        raise ModelError(f"parameters must be positive, got {parameters}")
    if bandwidth_bps <= 0:
        raise ModelError(f"bandwidth_bps must be positive, got {bandwidth_bps}")
    if bits_per_parameter <= 0:
        raise ModelError(f"bits_per_parameter must be positive, got {bits_per_parameter}")


@dataclass(frozen=True)
class _GradientDescentBase(ScalabilityModel):
    """Shared parameters and term builders of the GD family."""

    operations_per_sample: float
    batch_size: float
    flops: float
    parameters: float
    bandwidth_bps: float
    bits_per_parameter: int = 32

    def __post_init__(self) -> None:
        _validate_common(
            self.operations_per_sample,
            self.batch_size,
            self.flops,
            self.parameters,
            self.bandwidth_bps,
            self.bits_per_parameter,
        )

    @property
    def gradient_bits(self) -> float:
        """The payload of one parameter transfer: ``bits * W``."""
        return float(self.bits_per_parameter) * self.parameters

    def _transfer(self) -> float:
        return self.gradient_bits / self.bandwidth_bps

    def _computation_term(self, parallel: bool = True) -> CostTerm:
        """``tcp = C * S / (F * n)`` (or the undivided ``C * S / F``)."""
        return ComputationCost(
            total_operations=self.operations_per_sample * self.batch_size,
            flops=self.flops,
            parallel=parallel,
        )

    def _tree_comm_term(self) -> CostTerm:
        """``2 * (bits*W/B) * log2(n)`` — two tree stages, smooth log.

        The paper's formula uses the smooth ``log2`` (its plotted curves
        are smooth), which is exactly :class:`TorrentBroadcast` with
        continuous rounds; the factor 2 is the paper's "two-stage
        communication" (distribute parameters, collect gradients).
        """
        return ScaledCost(
            CommunicationCost(
                TorrentBroadcast(self.bandwidth_bps), bits=self.gradient_bits
            ),
            2.0,
        )


@dataclass(frozen=True)
class GradientDescentModel(_GradientDescentBase):
    """Generic data-parallel GD: tree communication both ways.

    ``tcm = 2 * (bits*W/B) * log2(n)`` — the ``2`` is the paper's
    "two-stage communication" (distribute parameters, collect gradients).
    """

    def cost(self) -> CostTerm:
        return SumCost(
            (
                self._computation_term(),
                NamedCost("communication", self._tree_comm_term(), kind="communication"),
            )
        )


@dataclass(frozen=True)
class SparkGradientDescentModel(_GradientDescentBase):
    """The paper's Figure 2 model for Spark ML batch gradient descent.

    "Distribution of parameters is implemented with a torrent-like
    protocol.  Aggregation is done in two waves":

        tcm = (64W/B) * log2(n) + 2 * (64W/B) * ceil(sqrt(n))

    Note the two-wave term does not vanish at ``n = 1`` (a single worker
    still hands its gradient to the driver), exactly as the formula reads.
    """

    bits_per_parameter: int = 64

    def cost(self) -> CostTerm:
        broadcast = CommunicationCost(
            TorrentBroadcast(self.bandwidth_bps), bits=self.gradient_bits
        )
        aggregation = CommunicationCost(
            TwoWaveAggregation(self.bandwidth_bps), bits=self.gradient_bits
        )
        return SumCost(
            (
                self._computation_term(),
                NamedCost("broadcast", broadcast, kind="communication"),
                NamedCost("aggregation", aggregation, kind="communication"),
            )
        )


@dataclass(frozen=True)
class WeakScalingSGDModel(_GradientDescentBase):
    """Figure 3: time per training instance under weak scaling.

    Every worker computes a fixed batch ``S``; one superstep therefore
    processes ``S * n`` instances:

        t = ((C*S)/F + 2*(32W/B)*log2(n)) / n

    "Such assumption allows infinite weak scaling": t(n) is strictly
    decreasing, so adding workers always increases per-instance speedup.
    (The fixed per-worker batch ``S`` is a constant factor and cancels
    in speedups, as the paper notes.)
    """

    def _superstep_term(self) -> CostTerm:
        # Per-worker batch: the compute part does not shrink with n.
        return SumCost(
            (
                self._computation_term(parallel=False),
                NamedCost("communication", self._tree_comm_term(), kind="communication"),
            )
        )

    def cost(self) -> CostTerm:
        return AmortizedCost(self._superstep_term())

    def superstep_time(self, workers: int) -> float:
        """Wall time of one synchronous iteration at ``n`` workers."""
        return self._superstep_term().time(workers)


@dataclass(frozen=True)
class WeakScalingLinearCommModel(_GradientDescentBase):
    """The contrast case of Section V-A: linear instead of log communication.

    ``t = ((C*S)/F + (32W/B) * n) / n`` — as ``n`` grows the per-instance
    time approaches the constant ``32W/B``, so speedup saturates: "the
    linear communication model allows only finite scaling".
    """

    def cost(self) -> CostTerm:
        # include_self=True gives n serialised rounds (0 at n = 1).
        comm = CommunicationCost(
            LinearCommunication(self.bandwidth_bps, include_self=True),
            bits=self.gradient_bits,
        )
        return AmortizedCost(
            SumCost(
                (
                    self._computation_term(parallel=False),
                    NamedCost("communication", comm, kind="communication"),
                )
            )
        )

    @property
    def asymptotic_time(self) -> float:
        """The floor per-instance time ``32W/B`` that caps weak scaling."""
        return self._transfer()
