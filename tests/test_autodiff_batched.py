"""Gradient checks and equivalence tests for the batched autodiff primitives.

The batched surrogate-training fast path leans on four new pieces of the
autodiff engine: stacked (batch) matmul broadcasting, per-row gather with
scatter-add gradients, masked reductions over ragged (padded) batches, and
the whole-sequence LSTM node.  Every primitive is validated against
central finite differences via :mod:`repro.autodiff.gradcheck`, and the
LSTM node is pinned to the per-example path and, bit for bit, to the cell
stepped one autodiff node at a time.
"""

import numpy as np
import pytest

from repro.autodiff import functional as F
from repro.autodiff.gradcheck import assert_gradients_close
from repro.autodiff.modules import LSTM, Embedding, StackedLSTM, lstm_sequence
from repro.autodiff.tensor import Tensor, gather, masked_mean, masked_sum


@pytest.fixture
def generator():
    return np.random.default_rng(42)


class TestStackedMatmul:
    def test_batched_times_shared_matrix(self, generator):
        a = Tensor(generator.normal(size=(3, 4, 5)), requires_grad=True)
        b = Tensor(generator.normal(size=(5, 2)), requires_grad=True)
        out = a.matmul(b)
        assert out.shape == (3, 4, 2)
        assert_gradients_close(lambda inputs: inputs[0].matmul(inputs[1]).sum(), [a, b])

    def test_batched_times_batched(self, generator):
        a = Tensor(generator.normal(size=(3, 4, 5)), requires_grad=True)
        b = Tensor(generator.normal(size=(3, 5, 2)), requires_grad=True)
        assert_gradients_close(lambda inputs: inputs[0].matmul(inputs[1]).sum(), [a, b])

    def test_shared_matrix_times_batched(self, generator):
        a = Tensor(generator.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(generator.normal(size=(3, 5, 2)), requires_grad=True)
        out = a.matmul(b)
        assert out.shape == (3, 4, 2)
        assert_gradients_close(lambda inputs: inputs[0].matmul(inputs[1]).sum(), [a, b])

    def test_batched_matmul_matches_per_example(self, generator):
        a = generator.normal(size=(6, 3, 5))
        b = generator.normal(size=(5, 4))
        batched = Tensor(a).matmul(Tensor(b)).numpy()
        for row in range(6):
            single = Tensor(a[row]).matmul(Tensor(b)).numpy()
            np.testing.assert_allclose(batched[row], single, atol=1e-12)


class TestGather:
    def test_forward_shape_replaces_axis_with_index_shape(self, generator):
        weight = Tensor(generator.normal(size=(7, 4)))
        out = gather(weight, np.array([[0, 2, 2], [6, 0, 1]]))
        assert out.shape == (2, 3, 4)
        np.testing.assert_array_equal(out.numpy()[0, 1], weight.numpy()[2])

    def test_repeated_indices_accumulate_gradient(self, generator):
        weight = Tensor(generator.normal(size=(5, 3)), requires_grad=True)
        indices = np.array([1, 1, 1, 4])
        gather(weight, indices).sum().backward()
        expected = np.zeros((5, 3))
        expected[1] = 3.0
        expected[4] = 1.0
        np.testing.assert_allclose(weight.grad, expected)

    def test_gradcheck_axis0_and_axis1(self, generator):
        source = Tensor(generator.normal(size=(2, 6, 3)), requires_grad=True)
        indices = np.array([[1, 1], [5, 0]])
        assert_gradients_close(
            lambda inputs: gather(inputs[0], indices, axis=1).sum(), [source])
        assert_gradients_close(
            lambda inputs: gather(inputs[0], np.array([0, 0, 1]), axis=0).sum(),
            [source])

    def test_embedding_accepts_batched_index_arrays(self, generator):
        embedding = Embedding(9, 4, rng=generator)
        ids = np.array([[0, 3], [8, 3]])
        out = embedding(ids)
        assert out.shape == (2, 2, 4)
        gathered = gather(embedding.weight, ids)
        np.testing.assert_allclose(out.numpy(), gathered.numpy())

    def test_embedding_batched_lookup_still_validates_range(self, generator):
        # np.take would silently wrap -1 to the last row; the Embedding
        # module's range check must fire for batched id arrays too.
        embedding = Embedding(9, 4, rng=generator)
        with pytest.raises(IndexError, match="token id out of range"):
            embedding(np.array([[0, -1], [2, 3]]))
        with pytest.raises(IndexError, match="token id out of range"):
            embedding(np.array([[0, 9], [2, 3]]))


class TestMaskedReductions:
    def test_masked_sum_ignores_padding(self, generator):
        values = generator.normal(size=(2, 4, 3))
        mask = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0]])[..., None]
        out = masked_sum(Tensor(values), mask, axis=1)
        np.testing.assert_allclose(out.numpy()[0], values[0, :2].sum(axis=0))
        np.testing.assert_allclose(out.numpy()[1], values[1, :3].sum(axis=0))

    def test_masked_mean_divides_by_unmasked_count(self, generator):
        values = generator.normal(size=(2, 4))
        mask = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        out = masked_mean(Tensor(values), mask, axis=1)
        np.testing.assert_allclose(out.numpy()[0], values[0, :3].mean())
        np.testing.assert_allclose(out.numpy()[1], values[1, 0])

    def test_masked_mean_fully_masked_rows_are_zero_not_nan(self, generator):
        values = generator.normal(size=(2, 3))
        mask = np.zeros((2, 3))
        out = masked_mean(Tensor(values), mask, axis=1)
        np.testing.assert_array_equal(out.numpy(), np.zeros(2))

    def test_gradcheck_masked_reductions(self, generator):
        x = Tensor(generator.normal(size=(2, 5, 3)), requires_grad=True)
        mask = (generator.random((2, 5, 1)) > 0.4).astype(np.float64)
        assert_gradients_close(
            lambda inputs: masked_sum(inputs[0], mask, axis=1).sum(), [x])
        assert_gradients_close(
            lambda inputs: masked_mean(inputs[0], mask, axis=1).sum(), [x])
        assert_gradients_close(
            lambda inputs: masked_sum(inputs[0], mask, axis=(1, 2)).sum(), [x])
        assert_gradients_close(
            lambda inputs: masked_sum(inputs[0], mask, axis=1, keepdims=True).sum(),
            [x])

    def test_no_gradient_flows_through_masked_entries(self, generator):
        x = Tensor(generator.normal(size=(4,)), requires_grad=True)
        mask = np.array([1.0, 0.0, 1.0, 0.0])
        masked_sum(x, mask).backward()
        np.testing.assert_array_equal(x.grad, mask)

    def test_functional_wrappers(self, generator):
        values = generator.normal(size=(2, 3))
        mask = np.ones((2, 3))
        np.testing.assert_allclose(F.masked_sum(values, mask).numpy(), values.sum())
        np.testing.assert_allclose(F.masked_mean(values, mask, axis=0).numpy(),
                                   values.mean(axis=0))
        np.testing.assert_allclose(
            F.gather(values, np.array([1, 0])).numpy(), values[[1, 0]])


class TestTupleAxisReductions:
    def test_sum_and_mean_over_axis_tuples(self, generator):
        x = Tensor(generator.normal(size=(2, 5, 3)), requires_grad=True)
        np.testing.assert_allclose(x.sum(axis=(1, 2)).numpy(),
                                   x.numpy().sum(axis=(1, 2)))
        np.testing.assert_allclose(x.mean(axis=(0, 2)).numpy(),
                                   x.numpy().mean(axis=(0, 2)))
        assert_gradients_close(lambda inputs: inputs[0].sum(axis=(0, 2)).sum(), [x])
        assert_gradients_close(lambda inputs: inputs[0].mean(axis=(1, 2)).sum(), [x])


class TestBroadcastTo:
    def test_values_and_gradient_reduction(self, generator):
        x = Tensor(generator.normal(size=(2, 1, 3)), requires_grad=True)
        out = x.broadcast_to((2, 4, 3))
        np.testing.assert_allclose(out.numpy(),
                                   np.broadcast_to(x.numpy(), (2, 4, 3)))
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 1, 3), 4.0))


def _padded_batch(generator, lengths, width):
    """Ragged sequences and their batch-first ``(B, T, D)`` padding + ``(T, B)`` mask."""
    sequences = [generator.normal(size=(length, width)) for length in lengths]
    max_length = max(lengths)
    padded = np.zeros((len(lengths), max_length, width))
    mask = np.zeros((max_length, len(lengths)))
    for row, sequence in enumerate(sequences):
        padded[row, :len(sequence)] = sequence
        mask[:len(sequence), row] = 1.0
    return sequences, padded, mask


def _per_step_graph(steps, mask, cell):
    """Reference: the masked cell stepped one autodiff node per step."""
    hidden, state = cell.initial_state(steps[0].shape[:-1])
    outputs = []
    for t, element in enumerate(steps):
        new_hidden, new_state = cell(element, (hidden, state))
        if mask[t].all():
            hidden, state = new_hidden, new_state
        else:
            keep = mask[t][:, None]
            hidden = new_hidden * keep + hidden * (1.0 - keep)
            state = new_state * keep + state * (1.0 - keep)
        outputs.append(hidden)
    return outputs


class TestMaskedBatchLSTM:
    def test_final_state_matches_per_example_path(self, generator):
        lstm = LSTM(3, 5, rng=np.random.default_rng(1))
        sequences, padded, mask = _padded_batch(generator, [4, 1, 6], 3)
        outputs = lstm_sequence(Tensor(padded), mask, lstm.cell).numpy()
        assert outputs.shape == (3, 6, 5)
        for row, sequence in enumerate(sequences):
            steps = lstm.forward_all([Tensor(element) for element in sequence])
            for t, single in enumerate(steps):
                np.testing.assert_allclose(outputs[row, t], single.numpy(), atol=1e-12)
            # Padded steps hold the state after the row's last real step.
            np.testing.assert_allclose(outputs[row, -1], steps[-1].numpy(), atol=1e-12)

    def test_stacked_lstm_matches_per_example_path(self, generator):
        stacked = StackedLSTM(3, 4, num_layers=3, rng=np.random.default_rng(2))
        sequences, padded, mask = _padded_batch(generator, [2, 5, 3], 3)
        batched = stacked.forward_padded(Tensor(padded), mask)
        for row, sequence in enumerate(sequences):
            single = stacked([Tensor(element) for element in sequence])
            np.testing.assert_allclose(batched.numpy()[row], single.numpy(),
                                       atol=1e-12)

    def test_gradients_match_summed_per_example_losses(self, generator):
        lstm = LSTM(2, 3, rng=np.random.default_rng(3))
        sequences, padded, mask = _padded_batch(generator, [3, 1], 2)

        lstm_sequence(Tensor(padded), mask, lstm.cell)[:, -1].sum().backward()
        batched_grads = {name: parameter.grad.copy()
                         for name, parameter in lstm.named_parameters()}
        lstm.zero_grad()
        for sequence in sequences:
            lstm([Tensor(element) for element in sequence]).sum().backward()
        for name, parameter in lstm.named_parameters():
            np.testing.assert_allclose(batched_grads[name], parameter.grad,
                                       atol=1e-9, err_msg=name)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_bit_identical_to_per_step_graph(self, generator, layers):
        stacked = StackedLSTM(3, 4, num_layers=layers, rng=np.random.default_rng(6))
        _, padded, mask = _padded_batch(generator, [5, 2, 5, 1], 3)
        weights = generator.normal(size=(4, 4))
        results = []
        for fused in (True, False):
            stacked.zero_grad()
            x = Tensor(padded, requires_grad=True)
            if fused:
                top = stacked.forward_padded(x, mask)
            else:
                steps = [x[:, t] for t in range(padded.shape[1])]
                for name in stacked._layer_names:
                    steps = _per_step_graph(steps, mask, getattr(stacked, name).cell)
                top = steps[-1]
            (top * Tensor(weights)).sum().backward()
            results.append([top.numpy(), x.grad] + [parameter.grad for parameter
                                                   in stacked.parameters()])
        for fused, reference in zip(*results):
            assert np.array_equal(fused, reference)

    def test_frozen_weights_get_no_gradient(self, generator):
        lstm = LSTM(2, 3, rng=np.random.default_rng(7))
        _, padded, mask = _padded_batch(generator, [3, 2], 2)
        x = Tensor(padded, requires_grad=True)
        lstm_sequence(x, mask, lstm.cell).sum().backward()
        expected = x.grad.copy()
        lstm.zero_grad()
        x.zero_grad()
        for parameter in lstm.parameters():
            parameter.requires_grad = False
        lstm_sequence(x, mask, lstm.cell).sum().backward()
        assert all(parameter.grad is None for parameter in lstm.parameters())
        np.testing.assert_array_equal(x.grad, expected)

    def test_mask_shape_validated(self, generator):
        lstm = LSTM(2, 3, rng=np.random.default_rng(4))
        x = Tensor(generator.normal(size=(2, 1, 2)))
        with pytest.raises(ValueError, match="mask"):
            lstm_sequence(x, np.ones((3, 2)), lstm.cell)
        with pytest.raises(ValueError, match="non-empty"):
            lstm_sequence(Tensor(np.zeros((2, 0, 2))), np.ones((0, 2)), lstm.cell)

    def test_single_column_mask_rejected(self, generator):
        # A (T, 1) mask would broadcast one row's padding over the batch.
        lstm = LSTM(2, 3, rng=np.random.default_rng(4))
        x = Tensor(generator.normal(size=(3, 2, 2)))
        with pytest.raises(ValueError, match="mask"):
            lstm_sequence(x, np.array([[1.0], [0.0]]), lstm.cell)

    def test_batch_mismatched_mask_rejected(self, generator):
        lstm = LSTM(2, 3, rng=np.random.default_rng(4))
        x = Tensor(generator.normal(size=(3, 2, 2)))
        with pytest.raises(ValueError, match="mask"):
            lstm_sequence(x, np.ones((2, 4)), lstm.cell)

    def test_fractional_mask_rejected(self, generator):
        # 0.5 would silently blend the old and new states.
        lstm = LSTM(2, 3, rng=np.random.default_rng(4))
        x = Tensor(generator.normal(size=(3, 2, 2)))
        with pytest.raises(ValueError, match="mask"):
            lstm_sequence(x, np.full((2, 3), 0.5), lstm.cell)


class TestLSTMSequenceGradients:
    @staticmethod
    def _check(function, inputs):
        assert_gradients_close(function, inputs, absolute_tolerance=1e-6,
                               relative_tolerance=1e-4)

    @pytest.mark.parametrize("lengths", [[3, 1, 0, 4], [1, 1], [1], [4]],
                             ids=["ragged-with-empty-row", "T=1", "B=1,T=1", "B=1"])
    def test_gradcheck_single_layer(self, generator, lengths):
        cell = LSTM(3, 2, rng=np.random.default_rng(8)).cell
        max_length = max(lengths)
        mask = (np.arange(max_length)[:, None] < np.array(lengths)[None, :]).astype(float)
        x = Tensor(generator.normal(size=(len(lengths), max_length, 3)),
                   requires_grad=True)
        weights = Tensor(generator.normal(size=(len(lengths), max_length, 2)))
        self._check(lambda inputs: (lstm_sequence(inputs[0], mask, cell) * weights).sum(),
                    [x, cell.weight_input, cell.weight_hidden, cell.bias])

    def test_gradcheck_three_layer_stack(self, generator):
        stacked = StackedLSTM(2, 3, num_layers=3, rng=np.random.default_rng(9))
        _, padded, mask = _padded_batch(generator, [4, 2, 3], 2)
        x = Tensor(padded, requires_grad=True)
        weights = Tensor(generator.normal(size=(3, 3)))
        self._check(lambda inputs: (stacked.forward_padded(inputs[0], mask)
                                    * weights).sum(),
                    [x] + stacked.parameters())


class TestEmbeddingSequences:
    def test_lookup_scatters_one_position_at_a_time(self, generator):
        embedding = Embedding(6, 3, rng=np.random.default_rng(10))
        ids = generator.integers(0, 6, size=(4, 5))
        weights = generator.normal(size=(4, 5, 3))
        fused = embedding.lookup_sequences(ids)
        (fused * Tensor(weights)).sum().backward()
        # One scatter per token position, summed in position order.
        expected = None
        for position in range(5):
            full = np.zeros((6, 3))
            np.add.at(full, ids[:, position], weights[:, position])
            expected = full if expected is None else expected + full
        assert np.array_equal(fused.numpy(), embedding.weight.numpy()[ids])
        assert np.array_equal(embedding.weight.grad, expected)
        with pytest.raises(IndexError):
            embedding.lookup_sequences(np.array([[0, 6]]))
