"""Neural-network modules built on the autodiff tensor.

The module hierarchy mirrors the pieces the DiffTune surrogate needs:

* :class:`Linear` — fully connected layer.
* :class:`Embedding` — token-id → vector lookup table.
* :class:`LSTMCell` / :class:`LSTM` / :class:`StackedLSTM` — recurrent layers
  used for the per-instruction and per-block sequence models.  A padded
  minibatch runs each LSTM layer as one autodiff node
  (:func:`lstm_sequence`, with a hand-written backprop-through-time); the
  per-example cell path stays as its test oracle.
* :class:`MLP`, :class:`Sequential`, :class:`ReLU`, :class:`Tanh`,
  :class:`Dropout` — glue for the prediction head and for baseline models.

All modules expose ``parameters()`` / ``named_parameters()`` /
``state_dict()`` / ``load_state_dict()`` so that optimizers and the
serialization helpers can treat them uniformly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.autodiff import init
from repro.autodiff.tensor import Tensor, concat, gather


class Parameter(Tensor):
    """A tensor that is registered as a learnable module parameter."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for neural-network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; those are discovered automatically by ``parameters()`` and
    ``state_dict()``.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Parameter discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, parameter in self._parameters.items():
            yield (prefix + name, parameter)
        for module_name, module in self._modules.items():
            yield from module.named_parameters(prefix + module_name + ".")

    def parameters(self) -> List[Parameter]:
        return [parameter for _, parameter in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of scalar parameters in the module."""
        return int(sum(parameter.size for parameter in self.parameters()))

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    # ------------------------------------------------------------------
    # Train / eval mode
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    # State dict
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: parameter.data.copy() for name, parameter in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, parameter in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != parameter.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {parameter.data.shape}, got {value.shape}"
                )
            parameter.data = value.copy()

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Fully connected layer: ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng), name="weight")
        self.has_bias = bias
        if bias:
            self.bias = Parameter(np.zeros(out_features), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        out = x.matmul(self.weight)
        if self.has_bias:
            out = out + self.bias
        return out


class Embedding(Module):
    """A lookup table mapping integer token ids to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.uniform_embedding((num_embeddings, embedding_dim), rng),
                                name="weight")

    def forward(self, token_ids: Sequence[int]) -> Tensor:
        """Look up ``token_ids`` (any shape — scalars, sequences, or padded
        ``(B, I, T)`` id arrays); the result appends the embedding dim."""
        return gather(self.weight, self._checked(token_ids))

    def lookup_sequences(self, token_ids: np.ndarray) -> Tensor:
        """Embed a padded ``(N, T)`` id array as one ``(N, T, D)`` node.

        The backward scatters one token position at a time, in position
        order, so the table's gradient sums exactly as a lookup per position
        would.
        """
        indices = self._checked(token_ids)
        weight = self.weight

        def _backward(grad: np.ndarray) -> None:
            for position in range(indices.shape[1]):
                full = np.zeros_like(weight.data)
                np.add.at(full, indices[:, position], grad[:, position])
                weight._accumulate(full)

        return Tensor._make(weight.data[indices], (weight,), _backward)

    def _checked(self, token_ids) -> np.ndarray:
        indices = np.asarray(token_ids, dtype=np.int64)
        if np.any(indices < 0) or np.any(indices >= self.num_embeddings):
            raise IndexError(
                f"token id out of range [0, {self.num_embeddings}): {indices.tolist()}"
            )
        return indices


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Dropout(Module):
    """Inverted dropout.  Active only in training mode."""

    def __init__(self, probability: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= probability < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.probability = probability
        self._rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.probability == 0.0:
            return x
        keep = 1.0 - self.probability
        mask = (self._rng.random(x.shape) < keep).astype(np.float64) / keep
        return x * Tensor(mask)


class Sequential(Module):
    """Apply a list of modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        for index, module in enumerate(modules):
            name = f"layer{index}"
            setattr(self, name, module)
            self._order.append(name)

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = getattr(self, name)(x)
        return x

    def __len__(self) -> int:
        return len(self._order)


class MLP(Module):
    """Multi-layer perceptron with ReLU activations between layers."""

    def __init__(self, sizes: Sequence[int], rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP requires at least an input and an output size")
        rng = rng or np.random.default_rng(0)
        layers: List[Module] = []
        for index, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            layers.append(Linear(fan_in, fan_out, rng=rng))
            if index < len(sizes) - 2:
                layers.append(ReLU())
        self.network = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.network(x)


class LayerNorm(Module):
    """Layer normalization over the last dimension.

    Normalizes each input vector to zero mean and unit variance, then applies
    a learned affine transform.  Used by the deeper surrogate variants to keep
    stacked recurrent layers trainable at small batch sizes.
    """

    def __init__(self, normalized_size: int, eps: float = 1e-5) -> None:
        super().__init__()
        if normalized_size < 1:
            raise ValueError("normalized_size must be >= 1")
        self.normalized_size = normalized_size
        self.eps = eps
        self.gain = Parameter(np.ones(normalized_size), name="gain")
        self.bias = Parameter(np.zeros(normalized_size), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.normalized_size:
            raise ValueError(
                f"LayerNorm expected last dimension {self.normalized_size}, got {x.shape[-1]}")
        mean = x.mean(axis=-1, keepdims=True) if x.ndim > 1 else x.mean().reshape(1)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True) if x.ndim > 1 \
            else (centered * centered).mean().reshape(1)
        normalized = centered / (variance + self.eps).sqrt()
        return normalized * self.gain + self.bias


class GRUCell(Module):
    """A single gated-recurrent-unit cell.

    Provided as a lighter-weight alternative to the LSTM cell for surrogate
    ablations: it has ~25% fewer parameters per hidden unit, which matters at
    the CPU-budget scale of this reproduction.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        # Gates are ordered: reset, update, candidate.
        self.weight_input = Parameter(
            init.xavier_uniform((input_size, 3 * hidden_size), rng), name="weight_input")
        self.weight_hidden = Parameter(
            init.xavier_uniform((hidden_size, 3 * hidden_size), rng), name="weight_hidden")
        self.bias = Parameter(np.zeros(3 * hidden_size), name="bias")

    def forward(self, x: Tensor, hidden: Tensor) -> Tensor:
        h = self.hidden_size
        input_part = x.matmul(self.weight_input) + self.bias
        hidden_part = hidden.matmul(self.weight_hidden)
        reset_gate = (input_part[..., 0:h] + hidden_part[..., 0:h]).sigmoid()
        update_gate = (input_part[..., h:2 * h] + hidden_part[..., h:2 * h]).sigmoid()
        candidate = (input_part[..., 2 * h:3 * h]
                     + reset_gate * hidden_part[..., 2 * h:3 * h]).tanh()
        return update_gate * hidden + (1.0 - update_gate) * candidate

    def initial_state(self, batch_shape: Tuple[int, ...] = ()) -> Tensor:
        return Tensor(np.zeros(tuple(batch_shape) + (self.hidden_size,)))


class GRU(Module):
    """Process a sequence of vectors with a single-layer GRU.

    Mirrors :class:`LSTM`: the input is a sequence of tensors of shape
    ``(input_size,)`` (or ``(batch, input_size)``) and the output is the final
    hidden state.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.cell = GRUCell(input_size, hidden_size, rng=rng)
        self.input_size = input_size
        self.hidden_size = hidden_size

    def forward(self, sequence: Sequence[Tensor],
                hidden: Optional[Tensor] = None) -> Tensor:
        return self.forward_all(sequence, hidden)[-1]

    def forward_all(self, sequence: Sequence[Tensor],
                    hidden: Optional[Tensor] = None) -> List[Tensor]:
        """Return the hidden state after every element of the sequence."""
        if len(sequence) == 0:
            raise ValueError("GRU.forward requires a non-empty sequence")
        if hidden is None:
            hidden = self.cell.initial_state(sequence[0].shape[:-1])
        hidden_states: List[Tensor] = []
        for element in sequence:
            hidden = self.cell(element, hidden)
            hidden_states.append(hidden)
        return hidden_states


class LSTMCell(Module):
    """A single LSTM cell following the standard gate formulation."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        # Gates are ordered: input, forget, cell, output.
        self.weight_input = Parameter(
            init.xavier_uniform((input_size, 4 * hidden_size), rng), name="weight_input")
        self.weight_hidden = Parameter(
            init.xavier_uniform((hidden_size, 4 * hidden_size), rng), name="weight_hidden")
        bias = np.zeros(4 * hidden_size)
        # Initialize forget-gate bias to 1, a standard trick for trainability.
        bias[hidden_size:2 * hidden_size] = 1.0
        self.bias = Parameter(bias, name="bias")

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        hidden, cell = state
        gates = x.matmul(self.weight_input) + hidden.matmul(self.weight_hidden) + self.bias
        h = self.hidden_size
        input_gate = gates[..., 0:h].sigmoid()
        forget_gate = gates[..., h:2 * h].sigmoid()
        cell_candidate = gates[..., 2 * h:3 * h].tanh()
        output_gate = gates[..., 3 * h:4 * h].sigmoid()
        new_cell = forget_gate * cell + input_gate * cell_candidate
        new_hidden = output_gate * new_cell.tanh()
        return new_hidden, new_cell

    def initial_state(self, batch_shape: Tuple[int, ...] = ()) -> Tuple[Tensor, Tensor]:
        shape = tuple(batch_shape) + (self.hidden_size,)
        return Tensor(np.zeros(shape)), Tensor(np.zeros(shape))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def lstm_sequence(x: Tensor, mask, cell: LSTMCell) -> Tensor:
    """Run ``cell`` over a padded batch-first sequence as one autodiff node.

    ``x`` is ``(B, T, D)`` and ``mask`` is ``(T, B)`` with 1 on real steps and
    0 on padding; the result is the ``(B, T, H)`` hidden state after every
    step.  A masked step holds the row's previous state, so a row's state
    after its last real step equals running it alone through
    :meth:`LSTM.forward`.  The forward uses the cell's NumPy expressions and
    the backward is a hand-written backprop-through-time that sums every
    gradient in the order the per-step cell graph would, so the two agree
    bit for bit.  Weight gradients are skipped for weights that do not
    require grad.
    """
    if x.ndim != 3 or x.shape[1] == 0:
        raise ValueError("lstm_sequence requires a non-empty (B, T, D) sequence, "
                         f"got shape {x.shape}")
    batch, steps = x.shape[0], x.shape[1]
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != (steps, batch):
        raise ValueError(f"mask must have shape (T, B) = {(steps, batch)}, "
                         f"got {mask.shape}")
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise ValueError("mask entries must be 0 or 1")
    wi, wh, bias = cell.weight_input, cell.weight_hidden, cell.bias
    n = cell.hidden_size
    hidden, state = np.zeros((batch, n)), np.zeros((batch, n))
    outputs = np.empty((batch, steps, n))
    saved = []
    for t in range(steps):
        gates = x.data[:, t] @ wi.data + hidden @ wh.data + bias.data
        i, f = _sigmoid(gates[:, 0:n]), _sigmoid(gates[:, n:2 * n])
        g, o = np.tanh(gates[:, 2 * n:3 * n]), _sigmoid(gates[:, 3 * n:4 * n])
        new_state = f * state + i * g
        tanh_state = np.tanh(new_state)
        new_hidden = o * tanh_state
        keep = None if mask[t].all() else mask[t][:, None]
        saved.append((hidden, state, i, f, g, o, tanh_state, keep))
        if keep is None:
            hidden, state = new_hidden, new_state
        else:
            hidden = new_hidden * keep + hidden * (1.0 - keep)
            state = new_state * keep + state * (1.0 - keep)
        outputs[:, t] = hidden

    def _backward(grad: np.ndarray) -> None:
        dgates_per_step = [None] * steps
        # Gradient pieces flowing into step t - 1's held hidden and cell
        # state, kept apart so they are summed in the per-step graph's order.
        hold_hidden = matmul_hidden = None
        dstate = None
        for t in reversed(range(steps)):
            hidden_prev, state_prev, i, f, g, o, tanh_state, keep = saved[t]
            dhidden = grad[:, t]
            if hold_hidden is not None:
                dhidden = dhidden + hold_hidden
            if matmul_hidden is not None:
                dhidden = dhidden + matmul_hidden
            hold_hidden = hold_state = None
            if keep is None:
                dnew_hidden = dhidden
            else:
                hold_hidden = dhidden * (1.0 - keep)
                dnew_hidden = dhidden * keep
            do = dnew_hidden * tanh_state
            dtanh = dnew_hidden * o * (1.0 - tanh_state * tanh_state)
            if dstate is None:
                dnew_state = dtanh
            elif keep is None:
                dnew_state = dstate + dtanh
            else:
                hold_state = dstate * (1.0 - keep)
                dnew_state = dstate * keep + dtanh
            dgates = np.zeros((batch, 4 * n))
            dgates[:, 2 * n:3 * n] += dnew_state * i * (1.0 - g * g)
            dgates[:, 0:n] += dnew_state * g * i * (1.0 - i)
            dgates[:, n:2 * n] += dnew_state * state_prev * f * (1.0 - f)
            dgates[:, 3 * n:4 * n] += do * o * (1.0 - o)
            dstate = dnew_state * f
            if hold_state is not None:
                dstate = hold_state + dstate
            dgates_per_step[t] = dgates
            if bias.requires_grad:
                bias._accumulate(dgates.sum(axis=0))
            matmul_hidden = dgates @ wh.data.T
            if wh.requires_grad:
                wh._accumulate(hidden_prev.T @ dgates)
        # The per-step graph reached the input projections last, in forward
        # order; the input-weight gradient is summed in that order too.
        dx = np.zeros_like(x.data) if x.requires_grad else None
        for t in range(steps):
            if dx is not None:
                dx[:, t] = dgates_per_step[t] @ wi.data.T
            if wi.requires_grad:
                wi._accumulate(x.data[:, t].T @ dgates_per_step[t])
        if dx is not None:
            x._accumulate(dx)

    return Tensor._make(outputs, (x, wi, wh, bias), _backward)


class LSTM(Module):
    """Process a sequence of vectors with a single-layer LSTM.

    The input is a sequence of tensors of shape ``(input_size,)`` (or
    ``(batch, input_size)``); the output is the final hidden state.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.input_size = input_size
        self.hidden_size = hidden_size

    def forward(self, sequence: Sequence[Tensor],
                state: Optional[Tuple[Tensor, Tensor]] = None) -> Tensor:
        outputs = self.forward_all(sequence, state)
        return outputs[-1]

    def forward_all(self, sequence: Sequence[Tensor],
                    state: Optional[Tuple[Tensor, Tensor]] = None) -> List[Tensor]:
        """Return the hidden state after every element of the sequence."""
        if len(sequence) == 0:
            raise ValueError("LSTM.forward requires a non-empty sequence")
        first = sequence[0]
        batch_shape = first.shape[:-1]
        if state is None:
            state = self.cell.initial_state(batch_shape)
        hidden_states: List[Tensor] = []
        hidden, cell = state
        for element in sequence:
            hidden, cell = self.cell(element, (hidden, cell))
            hidden_states.append(hidden)
        return hidden_states


class StackedLSTM(Module):
    """A stack of LSTM layers, as used by the DiffTune surrogate.

    The paper replaces each of Ithemal's LSTMs with a stack of 4 LSTMs to give
    the surrogate enough capacity to model the dependence on the parameter
    table (Section IV).  The stack depth is configurable here.
    """

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 4,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("StackedLSTM requires at least one layer")
        self.num_layers = num_layers
        self.hidden_size = hidden_size
        self.input_size = input_size
        rng = rng or np.random.default_rng(0)
        self._layer_names: List[str] = []
        for index in range(num_layers):
            layer = LSTM(input_size if index == 0 else hidden_size, hidden_size, rng=rng)
            name = f"lstm{index}"
            setattr(self, name, layer)
            self._layer_names.append(name)

    def forward(self, sequence: Sequence[Tensor]) -> Tensor:
        outputs = self.forward_all(sequence)
        return outputs[-1]

    def forward_all(self, sequence: Sequence[Tensor]) -> List[Tensor]:
        """Return the top layer's hidden state after every sequence element."""
        current: List[Tensor] = list(sequence)
        for name in self._layer_names:
            layer: LSTM = getattr(self, name)
            current = layer.forward_all(current)
        return current

    def forward_padded(self, x: Tensor, mask: np.ndarray) -> Tensor:
        """Final top-layer hidden state of a padded ``(B, T, D)`` minibatch.

        ``mask`` is ``(T, B)``; each layer is one :func:`lstm_sequence` node.
        Masked steps hold every layer's state, so each lower layer feeds the
        next exactly the per-step hidden states the per-example path would
        produce; padding never leaks across layers.
        """
        for name in self._layer_names:
            x = lstm_sequence(x, mask, getattr(self, name).cell)
        return x[:, -1]
