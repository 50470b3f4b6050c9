"""Phase one of DiffTune: training the surrogate on the simulated dataset.

Solves Equation (2) of the paper: fit the differentiable surrogate so that
``surrogate(theta, x) ≈ simulator(theta, x)`` over the simulated dataset, with
Adam and MAPE loss.

Training featurizes every block once per dataset through a
:class:`~repro.core.surrogate.FeaturizationCache`, looks up each example's
packed block arrays once per run, normalizes each sampled parameter table
once per run (:class:`~repro.core.surrogate.NormalizedTables`, addressed by a
per-example table index), and advances a whole padded minibatch per
autodiff op via the surrogate's ``forward_batch``; a minibatch's parameter
inputs are one gather.  A surrogate without a batched forward
(``supports_batched_forward = False``, e.g. a registered plugin) is trained
one example at a time instead; that per-example loop is also the reference
the property tests pin the batched path to (within 1e-9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.autodiff.optim import Adam
from repro.autodiff.tensor import no_grad
from repro.core.losses import mape_loss_value, surrogate_loss
from repro.core.simulated_dataset import SimulatedExample, example_tables
from repro.core.surrogate import (FeaturizationCache, NormalizedTables,
                                  _SurrogateBase, pack_block_arrays)
from repro.core.training_loop import run_minibatch_loop


@dataclass
class SurrogateTrainingConfig:
    """Hyper-parameters for surrogate training.

    Defaults follow the paper where feasible (Adam, learning rate 0.001,
    batch-based updates); batch size and epoch count are scaled down for CPU
    training and can be overridden.
    """

    learning_rate: float = 0.001
    batch_size: int = 16
    epochs: int = 2
    gradient_clip: float = 5.0
    shuffle: bool = True
    seed: int = 0
    log_every: int = 0  # batches; 0 disables logging callbacks


@dataclass
class SurrogateTrainingResult:
    """Summary of a surrogate training run."""

    epoch_losses: List[float]
    final_training_error: float
    used_batched_path: bool = False
    examples_per_second: float = 0.0


class _ExampleInputs:
    """A run's surrogate inputs of a simulated dataset, addressed by example.

    Built once per training or evaluation run: each distinct table is
    normalized once (:class:`~repro.core.surrogate.NormalizedTables`), and
    each in-memory example's packed block arrays are looked up once, per
    distinct featurized block.  A streaming source (e.g.
    :class:`repro.corpus.streaming.StreamingExamples`, recognized by its
    ``block_arrays`` accessor) serves block arrays itself, possibly
    memory-mapped from disk, so no whole-dataset list of them is built.
    """

    def __init__(self, surrogate: _SurrogateBase, examples: Sequence,
                 cache: FeaturizationCache) -> None:
        spec = surrogate.spec
        if hasattr(examples, "block_arrays"):
            self.tables = NormalizedTables(spec, examples.tables,
                                           examples.example_table)
            self.targets = [examples.timing(row) for row in range(len(examples))]
            self.block_arrays = examples.block_arrays
            self.featurized = examples.featurized
            return
        featurized = [cache.featurize(example.block) for example in examples]
        distinct = {id(block): block for block in featurized}
        arrays = {key: cache.arrays_for(block) for key, block in distinct.items()}
        self.tables = NormalizedTables(spec, *example_tables(examples))
        self.targets = [example.simulated_timing for example in examples]
        self.block_arrays = [arrays[id(block)] for block in featurized].__getitem__
        self.featurized = featurized.__getitem__

    def batch(self, rows: np.ndarray) -> tuple:
        """Packed blocks, parameter inputs and targets of the examples ``rows``."""
        rows = [int(row) for row in rows]
        packed = pack_block_arrays([self.block_arrays(row) for row in rows])
        per_instruction, global_values = self.tables.batch_inputs(rows, packed)
        return (packed, per_instruction, global_values,
                [self.targets[row] for row in rows])

    def example(self, row: int) -> tuple:
        """Featurized block, parameter inputs and target of example ``row``."""
        featurized = self.featurized(row)
        per_instruction, global_values = self.tables.example_inputs(
            row, featurized.opcode_indices)
        return featurized, per_instruction, global_values, self.targets[row]


def train_surrogate(surrogate: _SurrogateBase, examples: Sequence[SimulatedExample],
                    config: SurrogateTrainingConfig,
                    progress: Optional[Callable[[int, int, float], None]] = None
                    ) -> SurrogateTrainingResult:
    """Train ``surrogate`` to mimic the simulator on ``examples``.

    Args:
        surrogate: The surrogate model (weights are updated in place).
        examples: The simulated dataset.
        config: Training hyper-parameters.
        progress: Optional callback ``(epoch, batch, loss)``; with
            ``log_every=N`` it fires every N batches and always on the final
            (possibly partial) batch of each epoch.

    Returns:
        Per-epoch mean losses and the final full-pass training error.
    """
    if not examples:
        raise ValueError("cannot train the surrogate on an empty dataset")
    optimizer = Adam(surrogate.parameters(), lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    use_batched = surrogate.supports_batched_forward
    inputs = _ExampleInputs(surrogate, examples,
                            FeaturizationCache(surrogate.featurizer))

    def _batched_loss(batch_indices: np.ndarray):
        packed, per_instruction, global_values, targets = inputs.batch(batch_indices)
        predictions = surrogate.forward_batch(packed, per_instruction, global_values)
        return surrogate_loss(predictions, targets)

    def _per_example_loss(batch_indices: np.ndarray):
        predictions = []
        targets = []
        for example_index in batch_indices:
            featurized, per_instruction, global_values, target = inputs.example(
                int(example_index))
            predictions.append(surrogate.forward(featurized, per_instruction,
                                                 global_values))
            targets.append(target)
        return surrogate_loss(predictions, targets)

    surrogate.train()
    loop = run_minibatch_loop(
        len(examples), _batched_loss if use_batched else _per_example_loss,
        optimizer, rng,
        batch_size=config.batch_size, epochs=config.epochs,
        shuffle=config.shuffle, gradient_clip=config.gradient_clip,
        log_every=config.log_every, progress=progress)

    surrogate.eval()
    final_error = _evaluate(surrogate, inputs, len(examples), batch_size=64)
    return SurrogateTrainingResult(
        epoch_losses=loop.epoch_losses, final_training_error=final_error,
        used_batched_path=use_batched,
        examples_per_second=loop.examples_per_second)


def evaluate_surrogate(surrogate: _SurrogateBase,
                       examples: Sequence[SimulatedExample],
                       batch_size: int = 64,
                       cache: Optional[FeaturizationCache] = None) -> float:
    """MAPE of the surrogate against the simulator on ``examples``.

    Uses the surrogate's batched forward in ``batch_size`` chunks when it
    has one, and the per-example forward otherwise.
    """
    if not examples:
        raise ValueError("cannot evaluate the surrogate on an empty dataset")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    inputs = _ExampleInputs(surrogate, examples,
                            cache or FeaturizationCache(surrogate.featurizer))
    return _evaluate(surrogate, inputs, len(examples), batch_size)


def _evaluate(surrogate: _SurrogateBase, inputs: _ExampleInputs,
              count: int, batch_size: int) -> float:
    predictions: List[float] = []
    with no_grad():
        if surrogate.supports_batched_forward:
            for chunk_start in range(0, count, batch_size):
                chunk = np.arange(chunk_start, min(chunk_start + batch_size, count))
                packed, per_instruction, global_values, _ = inputs.batch(chunk)
                chunk_predictions = surrogate.forward_batch(
                    packed, per_instruction, global_values)
                predictions.extend(float(value)
                                   for value in chunk_predictions.numpy())
        else:
            for row in range(count):
                featurized, per_instruction, global_values, _ = inputs.example(row)
                predictions.append(surrogate.forward(
                    featurized, per_instruction, global_values).item())
    return mape_loss_value(np.array(predictions), np.array(inputs.targets))
