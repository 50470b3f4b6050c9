"""Bit-for-bit pins of surrogate training and table optimization.

The constants below were recorded with the content-keyed table normalization
that predates normalize-once training inputs, on a small fixed fixture.
Training is pinned for a dataset whose examples share one table object per
sampled table (as collection produces them), for the same dataset rebuilt
with an equal-content copy of the table in every example, and for the
streaming example source.  Every variant must reproduce the recorded epoch
losses, final training error and learned table exactly, so carrying a
per-example table index instead of digesting tables changes no result.
The two-layer Ithemal pin was recorded on the per-step LSTM graph that
predates the whole-sequence LSTM node, so it pins that node's forward and
backprop-through-time, inter-layer gradients included, bit for bit.
"""

import hashlib

import numpy as np
import pytest

from repro.bhive import BlockGenerator
from repro.core.adapters import MCAAdapter
from repro.core.simulated_dataset import SimulatedExample, collect_simulated_dataset
from repro.core.surrogate import (BlockFeaturizer, FeaturizationCache,
                                  SurrogateConfig, build_surrogate)
from repro.core.surrogate_training import SurrogateTrainingConfig, train_surrogate
from repro.core.table_optimization import (TableOptimizationConfig,
                                           optimize_parameter_table)
from repro.corpus.streaming import (StreamingExamples,
                                    collect_simulated_dataset_streaming)
from repro.targets import HASWELL

#: (kind, batched) -> (epoch losses, final training error, learned-table
#: digest, table epoch losses), floats as ``float.hex``.
PINNED = {
    ("analytical", True): (
        ["0x1.3656424b20beap-2", "0x1.31f3285c88805p-2"], "0x1.2e7dc13b09666p-2",
        "efe8326f024fc934471e0a8c4db54da8",
        ["0x1.cb6a407e7ad20p-2", "0x1.a68ff3c76efe3p-2"]),
    ("analytical", False): (
        ["0x1.3656424b20beap-2", "0x1.31f3285c88805p-2"], "0x1.2e7dc13b09666p-2",
        "efe8326f024fc934471e0a8c4db54da8",
        ["0x1.cb6a407e7ad20p-2", "0x1.a68ff3c76efe3p-2"]),
    ("pooled", True): (
        ["0x1.5103d140845bap-1", "0x1.44529b62f95dap-1"], "0x1.3b3081832bc53p-1",
        "3e0d0a4fc799b1bbd9e7afaa934b5c29",
        ["0x1.272ddc455415cp-1", "0x1.241233fe3e7e1p-1"]),
    ("pooled", False): (
        ["0x1.5103d140845bap-1", "0x1.44529b62f95dap-1"], "0x1.3b3081832bc53p-1",
        "078c2db5914e412906ec0493ed2ea4d9",
        ["0x1.272ddc455415cp-1", "0x1.241233fe3e7e1p-1"]),
    ("ithemal", True): (
        ["0x1.70f504fa37efbp-1", "0x1.64a933d912c6dp-1"], "0x1.5c3640a660560p-1",
        "a908c4e7354fdf6595c45edb214cd2a2",
        ["0x1.47701262c87b0p-1", "0x1.44adea2c5ef80p-1"]),
}


#: The ``("ithemal", True)`` pin with a two-layer stack at both LSTM levels,
#: so the gradient order between stacked layers is pinned too.
PINNED_ITHEMAL_TWO_LAYERS = (
    ["0x1.54f225bec9f81p-1", "0x1.4e813d853fb99p-1"], "0x1.4a2438bd0449ap-1",
    "3ac12fbef7eafcb311ce830f37f2a2d0",
    ["0x1.334d443cd0194p-1", "0x1.3195a95faf531p-1"])


@pytest.fixture(scope="module")
def adapter():
    return MCAAdapter(HASWELL, narrow_sampling=True)


@pytest.fixture(scope="module")
def blocks():
    return BlockGenerator(seed=11).generate_blocks(12)


@pytest.fixture(scope="module")
def shared_examples(adapter, blocks):
    return collect_simulated_dataset(adapter, blocks, 40, np.random.default_rng(5),
                                     blocks_per_table=8)


@pytest.fixture(scope="module")
def distinct_examples(shared_examples):
    return [SimulatedExample(arrays=example.arrays.copy(),
                             block_index=example.block_index, block=example.block,
                             simulated_timing=example.simulated_timing)
            for example in shared_examples]


def _surrogate(adapter, kind, featurizer=None, num_lstm_layers=1):
    config = SurrogateConfig(kind=kind, embedding_size=8, hidden_size=12,
                             num_lstm_layers=num_lstm_layers, seed=3)
    return build_surrogate(adapter.parameter_spec(),
                           featurizer or BlockFeaturizer(adapter.opcode_table),
                           config)


def _digest(arrays):
    digest = hashlib.blake2b(digest_size=16)
    for values in (arrays.global_values, arrays.per_instruction_values):
        digest.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _hex(values):
    return [float(value).hex() for value in values]


def test_fixture_shares_one_table_object_per_sampled_table(shared_examples,
                                                           distinct_examples):
    assert len({id(example.arrays) for example in shared_examples}) == 5
    assert len({id(example.arrays) for example in distinct_examples}) == 40


@pytest.mark.parametrize("kind,batched", sorted(PINNED))
@pytest.mark.parametrize("tables", ["shared", "distinct"])
def test_training_and_table_optimization_pinned(adapter, blocks, shared_examples,
                                                distinct_examples, kind, batched,
                                                tables):
    losses, final_error, learned, table_losses = PINNED[(kind, batched)]
    surrogate = _surrogate(adapter, kind)
    if not batched:
        surrogate.supports_batched_forward = False
    examples = shared_examples if tables == "shared" else distinct_examples
    result = train_surrogate(surrogate, examples,
                             SurrogateTrainingConfig(epochs=2, batch_size=8, seed=1))
    assert _hex(result.epoch_losses) == losses
    assert result.final_training_error.hex() == final_error

    true_timings = adapter.predict_timings(adapter.default_arrays(), blocks) * 1.1
    table = optimize_parameter_table(
        surrogate, blocks, true_timings,
        TableOptimizationConfig(epochs=2, batch_size=4, seed=2))
    assert _digest(table.learned_arrays) == learned
    assert _hex(table.epoch_losses) == table_losses


@pytest.mark.parametrize("kind", ["analytical", "pooled"])
def test_streaming_training_pinned(adapter, blocks, kind):
    dataset = collect_simulated_dataset_streaming(
        adapter, blocks, 40, np.random.default_rng(5), blocks_per_table=8)
    featurizer = BlockFeaturizer(adapter.opcode_table)
    examples = StreamingExamples(dataset, blocks, FeaturizationCache(featurizer))
    result = train_surrogate(_surrogate(adapter, kind, featurizer), examples,
                             SurrogateTrainingConfig(epochs=2, batch_size=8, seed=1))
    losses, final_error, _, _ = PINNED[(kind, True)]
    assert _hex(result.epoch_losses) == losses
    assert result.final_training_error.hex() == final_error


def test_two_layer_ithemal_pinned(adapter, blocks, shared_examples):
    # Blocks of 2 to 6 instructions, so minibatches pad instruction slots.
    assert len({len(block.instructions) for block in blocks}) > 1
    losses, final_error, learned, table_losses = PINNED_ITHEMAL_TWO_LAYERS
    surrogate = _surrogate(adapter, "ithemal", num_lstm_layers=2)
    result = train_surrogate(surrogate, shared_examples,
                             SurrogateTrainingConfig(epochs=2, batch_size=8, seed=1))
    assert _hex(result.epoch_losses) == losses
    assert result.final_training_error.hex() == final_error

    true_timings = adapter.predict_timings(adapter.default_arrays(), blocks) * 1.1
    table = optimize_parameter_table(
        surrogate, blocks, true_timings,
        TableOptimizationConfig(epochs=2, batch_size=4, seed=2))
    assert _digest(table.learned_arrays) == learned
    assert _hex(table.epoch_losses) == table_losses
