"""Loss functions used by the two DiffTune optimization phases.

Both phases optimize the mean absolute percentage error (MAPE), matching the
error definition of Section V-A.  During surrogate training the target is the
*simulated* timing; during parameter-table training the target is the
*measured* (ground-truth) timing.  The plain NumPy value is
:func:`repro.eval.metrics.mean_absolute_percentage_error`, re-exported here
as :func:`mape_loss_value` so the optimizers and the evaluation share one
implementation (with its shape and empty-input checks).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.autodiff import functional as F
from repro.autodiff.tensor import Tensor, stack
from repro.eval.metrics import mean_absolute_percentage_error as mape_loss_value


def surrogate_loss(predictions, targets: Sequence[float],
                   epsilon: float = 1e-6) -> Tensor:
    """Differentiable MAPE over a batch of predictions.

    ``predictions`` is either a sequence of scalar tensors (the per-example
    path stacks them) or a single 1-D :class:`Tensor` of shape ``(B,)`` (the
    batched fast path hands the whole minibatch over at once).  Both routes
    compute the identical loss expression.
    """
    if isinstance(predictions, Tensor) and predictions.ndim != 1:
        raise ValueError(
            f"batched surrogate loss expects a 1-D prediction tensor, "
            f"got shape {predictions.shape}")
    if len(predictions) == 0:
        raise ValueError("cannot compute a loss over an empty batch")
    prediction_vector = (predictions if isinstance(predictions, Tensor)
                         else stack(list(predictions)))
    if len(prediction_vector) != len(targets):
        raise ValueError("predictions and targets must have the same length")
    target_array = np.maximum(np.abs(np.asarray(targets, dtype=np.float64)), epsilon)
    diff = (prediction_vector - Tensor(target_array)).abs()
    return (diff / Tensor(target_array)).mean()
