"""Hardware specifications — the only inputs the paper's models require.

A key selling point of the paper is that its models are built from
*hardware specifications alone* (peak FLOPS, network bandwidth), with an
efficiency factor expressing how much of peak a real workload reaches
(80 % for the Xeon experiments, 50 % for the K40 GPUs).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.errors import UnitError


@dataclass(frozen=True)
class NodeSpec:
    """One homogeneous computing device.

    ``peak_flops`` is the vendor's peak for the precision the workload
    uses; ``efficiency`` is the achievable fraction of peak.  The model
    input ``F`` is :attr:`effective_flops`.  ``price_per_hour`` (USD per
    node-hour) is the capacity planner's cost input; it defaults to zero
    because the paper's models are price-free — only planning studies
    (:mod:`repro.planner`) read it.
    """

    name: str
    peak_flops: float
    efficiency: float = 1.0
    cores: int = 1
    memory_bytes: float = 0.0
    price_per_hour: float = 0.0

    def __post_init__(self) -> None:
        if self.peak_flops <= 0:
            raise UnitError(f"peak_flops must be positive, got {self.peak_flops}")
        if not 0.0 < self.efficiency <= 1.0:
            raise UnitError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if self.cores < 1:
            raise UnitError(f"cores must be >= 1, got {self.cores}")
        if self.memory_bytes < 0:
            raise UnitError(f"memory_bytes must be non-negative, got {self.memory_bytes}")
        if self.price_per_hour < 0:
            raise UnitError(
                f"price_per_hour must be non-negative, got {self.price_per_hour}"
            )

    @property
    def effective_flops(self) -> float:
        """``F`` in the paper: achievable floating-point throughput."""
        return self.peak_flops * self.efficiency

    def with_efficiency(self, efficiency: float) -> "NodeSpec":
        """Copy of this spec with a different achievable fraction of peak."""
        return replace(self, efficiency=efficiency)

    def seconds_for(self, operations: float) -> float:
        """Time for this node to execute ``operations`` floating-point ops."""
        if operations < 0:
            raise UnitError(f"operations must be non-negative, got {operations}")
        return operations / self.effective_flops


@dataclass(frozen=True)
class LinkSpec:
    """A point-to-point network link.

    ``bandwidth_bps`` is ``B`` in the paper.  ``latency_s`` defaults to
    zero because the paper's formulas neglect it; the simulator accepts a
    non-zero value to study latency-bound regimes.
    """

    name: str
    bandwidth_bps: float
    latency_s: float = 0.0
    full_duplex: bool = True

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise UnitError(f"bandwidth_bps must be positive, got {self.bandwidth_bps}")
        if self.latency_s < 0:
            raise UnitError(f"latency_s must be non-negative, got {self.latency_s}")

    def transfer_seconds(self, bits: float) -> float:
        """Time to move ``bits`` across this link once."""
        if bits < 0:
            raise UnitError(f"bits must be non-negative, got {bits}")
        return self.latency_s + bits / self.bandwidth_bps


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster: ``workers`` nodes joined by identical links.

    ``dedicated_master`` mirrors the paper's Spark setup, where the driver
    had its own node and every worker ran on a dedicated machine.
    """

    node: NodeSpec
    link: LinkSpec
    workers: int
    dedicated_master: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise UnitError(f"workers must be >= 1, got {self.workers}")

    @property
    def total_effective_flops(self) -> float:
        """Aggregate ``F * n`` across workers."""
        return self.node.effective_flops * self.workers

    def with_workers(self, workers: int) -> "ClusterSpec":
        """Copy of this cluster resized to ``workers`` worker nodes."""
        return replace(self, workers=workers)


@dataclass(frozen=True)
class SharedMemoryMachineSpec:
    """A multi-core shared-memory host (the paper's DL980 BP testbed).

    "Workers" are cores; communication happens through memory, which the
    paper models as free.  ``sync_overhead_s`` and ``per_worker_overhead_s``
    capture the execution overhead the paper observed taking over at high
    core counts.  ``price_per_hour`` prices the *whole machine* per hour
    (you rent the host, not its cores one by one) — the capacity planner
    charges it independently of how many cores a run uses.
    """

    name: str
    cores: int
    core_flops: float
    sync_overhead_s: float = 0.0
    per_worker_overhead_s: float = 0.0
    contention_saturation_cores: float = 0.0
    price_per_hour: float = 0.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise UnitError(f"cores must be >= 1, got {self.cores}")
        if self.core_flops <= 0:
            raise UnitError(f"core_flops must be positive, got {self.core_flops}")
        if self.sync_overhead_s < 0:
            raise UnitError(f"sync_overhead_s must be non-negative, got {self.sync_overhead_s}")
        if self.per_worker_overhead_s < 0:
            raise UnitError(
                f"per_worker_overhead_s must be non-negative, got {self.per_worker_overhead_s}"
            )
        if self.contention_saturation_cores < 0:
            raise UnitError(
                "contention_saturation_cores must be non-negative,"
                f" got {self.contention_saturation_cores}"
            )
        if self.price_per_hour < 0:
            raise UnitError(
                f"price_per_hour must be non-negative, got {self.price_per_hour}"
            )

    def overhead_seconds(self, workers: int) -> float:
        """Framework overhead of one superstep on ``workers`` cores."""
        if workers < 1:
            raise UnitError(f"workers must be >= 1, got {workers}")
        if workers == 1:
            return 0.0
        return self.sync_overhead_s + self.per_worker_overhead_s * workers

    def contention_factor(self, workers: int) -> float:
        """Slowdown of each core from shared memory-bandwidth contention.

        Memory-bound workloads (graph message passing prominently) do not
        scale linearly on large shared-memory hosts: concurrent cores
        contend for bandwidth and NUMA links.  We use the standard linear
        contention model ``1 + (n - 1) / saturation``; with
        ``contention_saturation_cores = 0`` (the default) there is no
        contention.
        """
        if workers < 1:
            raise UnitError(f"workers must be >= 1, got {workers}")
        if self.contention_saturation_cores == 0 or workers == 1:
            return 1.0
        return 1.0 + (workers - 1) / self.contention_saturation_cores
