"""Simulated-dataset collection in multi-table rounds.

Collection draws a round of sampled tables (about one megabatch chunk of
lanes) and simulates it with one engine call.  These tests pin what that
must not change — the dataset equals one collected one table at a time,
and a resume from any table boundary continues the same stream — and what
it is for: a round costs about one wide kernel call, not one per table.
No test here measures time.
"""

import math

import numpy as np
import pytest

import repro.llvm_mca.megabatch as mca_megabatch
import repro.llvm_mca.simulator as mca_simulator
from repro.bhive import BlockGenerator
from repro.core.adapters import MCAAdapter
from repro.core.simulated_dataset import collect_simulated_dataset, iter_simulated_rounds
from repro.engine import DEFAULT_MEGABATCH_CHUNK, MIN_LOCKSTEP_BLOCKS, SimulationEngine
from repro.targets import HASWELL

#: The ``fast`` preset's sampling shape: 16 blocks per sampled table.
BLOCKS_PER_TABLE = 16
#: Enough examples for one full round of tables plus a partial one.
NUM_EXAMPLES = 1400


@pytest.fixture(scope="module")
def blocks():
    return BlockGenerator(seed=3).generate_blocks(120)


def _one_table_at_a_time(adapter, blocks, num_examples, rng):
    """The reference stream: draw a table, draw its blocks, simulate it."""
    spec = adapter.parameter_spec()
    rows = []
    collected = 0
    while collected < num_examples:
        arrays = spec.sample(rng)
        chunk = min(BLOCKS_PER_TABLE, num_examples - collected)
        block_indices = rng.integers(0, len(blocks), size=chunk)
        timings = adapter.predict_timings(
            arrays, [blocks[int(index)] for index in block_indices])
        rows.append((arrays, block_indices, timings))
        collected += chunk
    return rows


def test_round_is_about_one_kernel_call_and_dataset_unchanged(blocks, monkeypatch):
    counts = {"kernel": 0, "scalar": 0}
    rounds = []
    kernel = mca_megabatch.simulate_packed_mca
    scalar = mca_simulator.simulate_bound_mca
    run_pairs = SimulationEngine.run_pairs

    def counted_kernel(*args, **kwargs):
        counts["kernel"] += 1
        return kernel(*args, **kwargs)

    def counted_scalar(*args, **kwargs):
        counts["scalar"] += 1
        return scalar(*args, **kwargs)

    def counted_run_pairs(self, pairs):
        before = dict(counts)
        result = run_pairs(self, pairs)
        rounds.append((sum(len(blocks) for _, blocks in pairs),
                       counts["kernel"] - before["kernel"],
                       counts["scalar"] - before["scalar"]))
        return result

    monkeypatch.setattr(mca_megabatch, "simulate_packed_mca", counted_kernel)
    monkeypatch.setattr(mca_simulator, "simulate_bound_mca", counted_scalar)
    monkeypatch.setattr(SimulationEngine, "run_pairs", counted_run_pairs)
    examples = collect_simulated_dataset(MCAAdapter(HASWELL), blocks, NUM_EXAMPLES,
                                         np.random.default_rng(0),
                                         blocks_per_table=BLOCKS_PER_TABLE)
    monkeypatch.undo()

    # One engine call per round: a full round of tables, then the rest.
    full_round = DEFAULT_MEGABATCH_CHUNK // BLOCKS_PER_TABLE * BLOCKS_PER_TABLE
    assert [lanes for lanes, _, _ in rounds] == [full_round,
                                                 NUM_EXAMPLES - full_round]
    # Lanes of similar dynamic length share a chunk (steps within about a
    # factor of two), so the blocks' 12 to ~1200 dynamic steps split a round
    # into at most six bands: a few skinny chunks beyond the width bound.
    few = 6
    for lanes, kernel_calls, scalar_calls in rounds:
        assert kernel_calls <= math.ceil(lanes / DEFAULT_MEGABATCH_CHUNK) + few
        assert scalar_calls < MIN_LOCKSTEP_BLOCKS * few

    reference = _one_table_at_a_time(MCAAdapter(HASWELL), blocks, NUM_EXAMPLES,
                                     np.random.default_rng(0))
    expected = [(arrays, int(index), float(timing))
                for arrays, indices, timings in reference
                for index, timing in zip(indices, timings)]
    assert len(examples) == len(expected)
    for example, (arrays, block_index, timing) in zip(examples, expected):
        assert np.array_equal(example.arrays.global_values, arrays.global_values)
        assert np.array_equal(example.arrays.per_instruction_values,
                              arrays.per_instruction_values)
        assert example.block_index == block_index
        assert example.simulated_timing == timing
        assert example.block is blocks[block_index]


def test_off_boundary_resume_rejected(blocks):
    adapter = MCAAdapter(HASWELL, narrow_sampling=True)
    with pytest.raises(ValueError, match="already_collected"):
        next(iter_simulated_rounds(adapter, blocks, 40, np.random.default_rng(0),
                                   blocks_per_table=8, already_collected=12))
    # A table boundary, and the end of a stream whose last table is short.
    for already in (16, 37):
        rounds = iter_simulated_rounds(adapter, blocks, 37, np.random.default_rng(0),
                                       blocks_per_table=8, already_collected=already)
        assert sum(len(indices) for _, indices, _, _ in rounds) == 37 - already


def test_resume_from_a_table_inside_a_round(blocks):
    # The rng seen at each yield is where drawing one table at a time would
    # leave it, so a checkpoint taken inside a round resumes the stream.
    adapter = MCAAdapter(HASWELL, narrow_sampling=True)
    full = list(iter_simulated_rounds(adapter, blocks, 120, np.random.default_rng(4),
                                      blocks_per_table=8))
    rng = np.random.default_rng(4)
    stream = iter_simulated_rounds(adapter, blocks, 120, rng, blocks_per_table=8)
    for _ in range(5):
        next(stream)
    state = rng.bit_generator.state
    stream.close()
    resumed_rng = np.random.default_rng(999)
    resumed_rng.bit_generator.state = state
    resumed = list(iter_simulated_rounds(adapter, blocks, 120, resumed_rng,
                                         blocks_per_table=8, already_collected=40))
    assert len(resumed) == len(full) - 5
    for (arrays, indices, _, timings), (arrays_r, indices_r, _, timings_r) in zip(
            full[5:], resumed):
        assert np.array_equal(arrays.per_instruction_values,
                              arrays_r.per_instruction_values)
        assert np.array_equal(indices, indices_r)
        assert np.array_equal(timings, timings_r)
