"""Single-node training loop (the distributed loop lives in repro.distributed)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import TrainingError
from repro.nn.losses import Loss
from repro.nn.network import Sequential
from repro.nn.optim import MiniBatchSGD, Optimizer


@dataclass
class TrainingHistory:
    """Loss per step plus convergence bookkeeping."""

    losses: list[float] = field(default_factory=list)
    converged: bool = False
    steps: int = 0


def train(
    network: Sequential,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss: Loss,
    optimizer: Optimizer,
    steps: int,
    convergence_delta: float | None = None,
) -> TrainingHistory:
    """Run up to ``steps`` optimisation steps.

    Batch optimisers see the full dataset each step;
    :class:`~repro.nn.optim.MiniBatchSGD` samples its own batches.  If
    ``convergence_delta`` is given, training stops early once the loss
    improves by less than that amount between steps (the paper's
    "iterations are repeated until the parameter values converge").
    """
    if steps < 1:
        raise TrainingError(f"steps must be >= 1, got {steps}")
    if inputs.shape[0] != targets.shape[0]:
        raise TrainingError(f"{inputs.shape[0]} inputs but {targets.shape[0]} targets")
    if np.isnan(inputs).any() or np.isnan(targets).any():
        raise TrainingError("training data contains NaNs")

    history = TrainingHistory()
    previous_loss: float | None = None
    for _step in range(steps):
        if isinstance(optimizer, MiniBatchSGD):
            batch_inputs, batch_targets = optimizer.sample_batch(inputs, targets)
        else:
            batch_inputs, batch_targets = inputs, targets
        value, gradients = network.loss_and_gradients(batch_inputs, batch_targets, loss)
        if not np.isfinite(value):
            raise TrainingError(f"training diverged: loss became {value}")
        optimizer.step(network.parameters(), gradients)
        history.losses.append(value)
        history.steps += 1
        if (
            convergence_delta is not None
            and previous_loss is not None
            and abs(previous_loss - value) < convergence_delta
        ):
            history.converged = True
            break
        previous_loss = value
    return history


def accuracy(network: Sequential, inputs: np.ndarray, labels: np.ndarray) -> float:
    """Classification accuracy against integer labels."""
    if inputs.shape[0] != labels.shape[0]:
        raise TrainingError(f"{inputs.shape[0]} inputs but {labels.shape[0]} labels")
    if inputs.shape[0] == 0:
        raise TrainingError("cannot compute accuracy on an empty set")
    predictions = network.predict_classes(inputs)
    return float(np.mean(predictions == labels))
