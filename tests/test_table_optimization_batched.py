"""The batched phase-two fast path vs the per-block reference.

The contract: batched and per-block table optimization agree within 1e-9 in
per-epoch loss — frozen masks included — so driving the surrogate through
``forward_batch`` changes throughput and nothing else.  The per-block
reference is the same surrogate reporting ``supports_batched_forward =
False``.  A hypothesis property test drives the comparison over random block
subsets, seeds, and frozen-mask settings; deterministic tests cover each
surrogate variant, the scatter-add/frozen-mask interaction, the automatic
fallback for surrogates without ``forward_batch``, and the once-per-run
featurization of the per-block path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bhive import BlockGenerator
from repro.core.adapters import MCAAdapter
from repro.core.surrogate import SurrogateConfig, build_surrogate
from repro.core.surrogate import BlockFeaturizer, PooledSurrogate
from repro.core.table_optimization import (TableOptimizationConfig,
                                           optimize_parameter_table)
from repro.targets import HASWELL

EQUIVALENCE_ATOL = 1e-9


@pytest.fixture(scope="module")
def adapter():
    return MCAAdapter(HASWELL, narrow_sampling=True)


@pytest.fixture(scope="module")
def blocks():
    return BlockGenerator(seed=11).generate_blocks(12)


@pytest.fixture(scope="module")
def timings(blocks):
    return np.linspace(1.0, 3.0, len(blocks))


def _build(adapter, kind, seed=0):
    config = SurrogateConfig(kind=kind, embedding_size=8, hidden_size=12,
                             num_lstm_layers=2, seed=seed)
    return build_surrogate(adapter.parameter_spec(), BlockFeaturizer(adapter.opcode_table),
                           config)


def _per_block(surrogate):
    """The per-block reference: the same model without a batched forward."""
    surrogate.supports_batched_forward = False
    return surrogate


def _writelatency_masks(spec):
    """Freeze everything except WriteLatency (the Section VI-B setting)."""
    per_mask = np.ones(spec.per_instruction_dim, dtype=bool)
    per_mask[spec.per_instruction_field_slice("WriteLatency")] = False
    global_mask = np.ones(spec.global_dim, dtype=bool)
    return per_mask, global_mask


def _both_paths(adapter, kind, blocks, timings, config_kwargs, frozen=False,
                initial_seed=1):
    spec = adapter.parameter_spec()
    initial = spec.sample(np.random.default_rng(initial_seed))
    masks = _writelatency_masks(spec) if frozen else (None, None)
    results = {}
    for batched in (False, True):
        surrogate = _build(adapter, kind)
        if not batched:
            _per_block(surrogate)
        results[batched] = optimize_parameter_table(
            surrogate, blocks, timings, TableOptimizationConfig(**config_kwargs),
            initial_arrays=initial,
            frozen_per_instruction_mask=masks[0],
            frozen_global_mask=masks[1])
    return initial, results[False], results[True]


class TestEpochLossEquivalence:
    @pytest.mark.parametrize("kind", ["pooled", "analytical", "ithemal"])
    def test_losses_and_learned_tables_match(self, adapter, blocks, timings, kind):
        _initial, scalar, batched = _both_paths(
            adapter, kind, blocks, timings,
            dict(learning_rate=0.05, batch_size=5, epochs=3, seed=0))
        assert scalar.used_batched_path is False
        assert batched.used_batched_path is True
        np.testing.assert_allclose(batched.epoch_losses, scalar.epoch_losses,
                                   atol=EQUIVALENCE_ATOL, rtol=0)
        np.testing.assert_allclose(batched.learned_arrays.per_instruction_values,
                                   scalar.learned_arrays.per_instruction_values,
                                   atol=1e-8, rtol=0)
        np.testing.assert_allclose(batched.learned_arrays.global_values,
                                   scalar.learned_arrays.global_values,
                                   atol=1e-8, rtol=0)

    @settings(max_examples=8, deadline=None)
    @given(subset_seed=st.integers(0, 2 ** 16), num_blocks=st.integers(2, 8),
           batch_size=st.integers(1, 7), seed=st.integers(0, 2 ** 16),
           frozen=st.booleans())
    def test_property_epoch_losses_match(self, adapter, blocks, timings,
                                         subset_seed, num_blocks, batch_size,
                                         seed, frozen):
        picker = np.random.default_rng(subset_seed)
        chosen = picker.choice(len(blocks), size=num_blocks, replace=False)
        chosen_blocks = [blocks[int(index)] for index in chosen]
        chosen_timings = timings[chosen]
        _initial, scalar, batched = _both_paths(
            adapter, "pooled", chosen_blocks, chosen_timings,
            dict(learning_rate=0.05, batch_size=batch_size, epochs=2, seed=seed),
            frozen=frozen, initial_seed=seed + 1)
        np.testing.assert_allclose(batched.epoch_losses, scalar.epoch_losses,
                                   atol=EQUIVALENCE_ATOL, rtol=0)


class TestFrozenMasks:
    def test_frozen_dims_do_not_drift_through_scatter_add(self, adapter, blocks,
                                                          timings):
        """Regression (ISSUE 4 satellite): batched gradients scatter-add into
        whole table rows, so frozen dimensions would drift if restoration
        missed them — they must end exactly at their initial values."""
        spec = adapter.parameter_spec()
        initial, scalar, batched = _both_paths(
            adapter, "pooled", blocks, timings,
            dict(learning_rate=0.1, batch_size=4, epochs=2, seed=0), frozen=True)
        for result in (scalar, batched):
            per_mask, global_mask = _writelatency_masks(spec)
            np.testing.assert_array_equal(
                result.learned_arrays.per_instruction_values[:, per_mask],
                initial.per_instruction_values[:, per_mask])
            np.testing.assert_array_equal(result.learned_arrays.global_values,
                                          initial.global_values)
        # ... while the learnable dimensions actually moved.
        latency = spec.per_instruction_field_slice("WriteLatency")
        assert not np.allclose(
            batched.learned_arrays.per_instruction_values[:, latency],
            initial.per_instruction_values[:, latency])

    def test_frozen_epoch_losses_match_between_paths(self, adapter, blocks, timings):
        _initial, scalar, batched = _both_paths(
            adapter, "analytical", blocks, timings,
            dict(learning_rate=0.05, batch_size=4, epochs=2, seed=3), frozen=True)
        np.testing.assert_allclose(batched.epoch_losses, scalar.epoch_losses,
                                   atol=EQUIVALENCE_ATOL, rtol=0)


class TestExecutionPathSelection:
    def test_fallback_without_forward_batch(self, adapter, blocks, timings):
        class NoBatchSurrogate(PooledSurrogate):
            supports_batched_forward = False

        spec = adapter.parameter_spec()
        surrogate = NoBatchSurrogate(spec, BlockFeaturizer(adapter.opcode_table),
                                     SurrogateConfig(kind="pooled", embedding_size=8,
                                                     hidden_size=12))
        result = optimize_parameter_table(
            surrogate, blocks, timings,
            TableOptimizationConfig(batch_size=4, epochs=1))
        assert result.used_batched_path is False
        assert result.examples_per_second > 0

    def test_per_block_path_featurizes_each_block_once(self, adapter, blocks,
                                                       timings):
        """Regression (ISSUE 4 satellite): featurization is hoisted out of the
        epoch loop, so a multi-epoch run hits the featurizer once per block."""
        surrogate = _per_block(_build(adapter, "pooled"))
        calls = []
        original = surrogate.featurizer.featurize

        def counting_featurize(block):
            calls.append(block)
            return original(block)

        surrogate.featurizer.featurize = counting_featurize
        optimize_parameter_table(
            surrogate, blocks, timings,
            TableOptimizationConfig(batch_size=4, epochs=3))
        assert len(calls) == len(blocks)


class TestProgressCallback:
    def test_progress_fires_every_batch_by_default(self, adapter, blocks, timings):
        surrogate = _build(adapter, "pooled")
        seen = []
        optimize_parameter_table(
            surrogate, blocks, timings,
            TableOptimizationConfig(batch_size=5, epochs=2),
            progress=lambda epoch, batch, loss: seen.append((epoch, batch)))
        batches_per_epoch = -(-len(blocks) // 5)
        assert seen == [(epoch, batch) for epoch in range(2)
                        for batch in range(batches_per_epoch)]

    def test_log_every_zero_disables_progress(self, adapter, blocks, timings):
        surrogate = _build(adapter, "pooled")
        seen = []
        optimize_parameter_table(
            surrogate, blocks, timings,
            TableOptimizationConfig(batch_size=5, epochs=1, log_every=0),
            progress=lambda epoch, batch, loss: seen.append((epoch, batch)))
        assert seen == []


class TestFrozenSurrogateWeights:
    """The surrogate's weights compute no gradients while the table trains."""

    def test_requires_grad_restored_after_return(self, adapter, blocks, timings):
        surrogate = _build(adapter, "ithemal")
        surrogate.head.bias.requires_grad = False
        before = [weight.requires_grad for weight in surrogate.parameters()]
        during = []
        optimize_parameter_table(
            surrogate, blocks, timings,
            TableOptimizationConfig(batch_size=4, epochs=1),
            progress=lambda epoch, batch, loss: during.append(
                [weight.requires_grad for weight in surrogate.parameters()]))
        assert during and not any(any(flags) for flags in during)
        assert all(weight.grad is None for weight in surrogate.parameters())
        assert [weight.requires_grad for weight in surrogate.parameters()] == before

    def test_requires_grad_restored_after_exception(self, adapter, blocks, timings):
        surrogate = _build(adapter, "ithemal")

        def fail(epoch, batch, loss):
            raise RuntimeError("stop inside the loop")

        with pytest.raises(RuntimeError, match="inside the loop"):
            optimize_parameter_table(
                surrogate, blocks, timings,
                TableOptimizationConfig(batch_size=4, epochs=1), progress=fail)
        assert all(weight.requires_grad for weight in surrogate.parameters())
