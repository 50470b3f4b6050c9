"""The benchmark's workloads: inputs from a seed, set-up, timed body, checks.

Every workload drives the system through its public API
(:class:`repro.api.Session`) in one process with ``engine_workers=0``.  The
workload seed only generates inputs (blocks and their measured timings);
the program's own configuration seed is fixed at :data:`CONFIG_SEED`, so the
program receives the generated inputs and nothing that identifies the run.

* :class:`TuneWorkload` — ``Session.tune()`` on generated training blocks,
  then the learned and the default table evaluated on held-out blocks.
* :class:`SweepWorkload` — ``Session.run_campaign(strategy="random")`` on a
  fresh session, over sampled whole tables on the train split of a
  generated dataset.

Each workload checks its outputs against the scalar reference simulator
(``predict_timing``, the test suite's oracle) and recomputes error and tau
itself; every mismatch is counted as a failed operation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

TARGET = "haswell"
#: Seed of the program's configuration (tuning rng, sampled campaign tables).
CONFIG_SEED = 0
#: Blocks generated for tuning; all of them are tuned on.
TUNE_BLOCKS = 240
#: Blocks generated for the held-out evaluation, before de-duplication.
HELDOUT_BLOCKS = 400
#: The held-out dataset's seed is the workload seed plus this offset.
HELDOUT_SEED_OFFSET = 1_000_000
#: Blocks generated for the sweep; the campaign runs on the 80% train split.
#: (Datasets split by block content, so the split is close to the bands.)
SWEEP_DATASET_BLOCKS = 1000
#: Tables per campaign.  A campaign takes about 3 s, so a 40 s window times
#: about twelve, and their median is steady against one slow campaign.
SWEEP_VARIANTS = 32
#: Variants per campaign chunk (one engine call each).
SWEEP_CHUNK = 8
#: Sweep variants whose error is recomputed with the scalar simulator, and
#: (variant, block) pairs re-simulated on top of them.
ORACLE_VARIANTS = 2
ORACLE_PAIRS = 256
#: Preset sizing the Ithemal tune: ``fast`` with the paper's LSTM surrogate,
#: fewer simulated examples, half the table epochs and no refinement round,
#: registered through ``PRESETS``.  With one refinement round its learned
#: error spread twice as wide over seeds (whether the round's candidate is
#: kept flips with the data); ``tune_fast_mca`` covers refinement.
ITHEMAL_PRESET = "e2ebench_ithemal"
ITHEMAL_EXAMPLES = 400
ITHEMAL_TABLE_EPOCHS = 3
#: Block-length bands (inclusive) and the share of the generator's own
#: stream that falls in each, measured over 40 000 blocks.  The last band
#: carries the stream's whole 65-96 share but only 81-96 instructions, so the
#: longest block, which sets peak memory, is about the same length for every
#: seed; blocks of 65-80 and over 96 instructions are not drawn.
LENGTH_BANDS = ((1, 4, 0.5359), (5, 8, 0.2900), (9, 16, 0.1405),
                (17, 24, 0.02105), (25, 32, 0.0042), (33, 64, 0.00437),
                (81, 96, 0.00345))


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
class Checks:
    """Counts checked operations and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)

    def expect_same(self, actual: Sequence[float], expected: Sequence[float],
                    what: str) -> None:
        """Element-wise bit-identity; each element is one operation."""
        actual = np.asarray(actual, dtype=np.float64)
        expected = np.asarray(expected, dtype=np.float64)
        if actual.shape != expected.shape:
            self.expect(False, f"{what}: shape {actual.shape} != {expected.shape}")
            return
        wrong = int(np.count_nonzero(actual != expected))
        self.attempted += actual.size
        self.failed += wrong
        if wrong:
            self.messages.append(f"{what}: {wrong} of {actual.size} differ")


def oracle_mape(predictions: Sequence[float], targets: Sequence[float]) -> float:
    """Mean absolute percentage error (Section V-A of the paper)."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    return float(np.mean(np.abs(predictions - targets)
                         / np.maximum(np.abs(targets), 1e-9)))


def oracle_tau(predictions: Sequence[float], targets: Sequence[float]) -> float:
    """Kendall's tau-a, counting concordant and discordant pairs row by row."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    count = predictions.size
    balance = 0
    for row in range(count - 1):
        products = (np.sign(predictions[row + 1:] - predictions[row])
                    * np.sign(targets[row + 1:] - targets[row]))
        balance += int(np.count_nonzero(products > 0)) - int(
            np.count_nonzero(products < 0))
    return float(balance / (count * (count - 1) / 2))


def scalar_timings(adapter: Any, arrays: Any, blocks: Sequence[Any]) -> np.ndarray:
    """Timings from the scalar reference simulator, one block at a time."""
    simulator = adapter.build_simulator(arrays)
    return np.array([simulator.predict_timing(block) for block in blocks],
                    dtype=np.float64)


def arrays_digest(arrays: Any) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for values in (arrays.global_values, arrays.per_instruction_values):
        digest.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    return digest.hexdigest()


def band_quotas(count: int) -> List[int]:
    """Blocks per length band for a dataset of ``count`` blocks (each >= 1)."""
    quotas = [max(1, round(count * share)) for _, _, share in LENGTH_BANDS]
    quotas[0] += count - sum(quotas)
    return quotas


class BandedGenerator:
    """The seed's block stream, keeping a fixed number of blocks per length band.

    The surrogates' cost grows with block length and padded batches follow
    the longest block, so a few long blocks decide much of a tune's time and
    memory.  Drawing a fixed count per band from the generator's own stream
    (in the stream's proportions) keeps that profile the same for every
    seed while the blocks themselves change with the seed.  Blocks come out
    grouped by band, so the program's own fixed-seed draws over block
    indices (collection, minibatch shuffles) meet the same length profile
    whatever the workload seed.
    """

    def __init__(self, seed: int) -> None:
        from repro.bhive.generator import BlockGenerator

        self._stream = BlockGenerator(seed=seed)

    def generate_blocks(self, count: int) -> List[Any]:
        quotas = band_quotas(count)
        bands: List[List[Any]] = [[] for _ in LENGTH_BANDS]
        while any(len(band) < quota for band, quota in zip(bands, quotas)):
            block = self._stream.generate_block()
            length = len(block.instructions)
            for band, quota, (low, high, _) in zip(bands, quotas, LENGTH_BANDS):
                if low <= length <= high:
                    if len(band) < quota:
                        band.append(block)
                    break
        return [block for band in bands for block in band]


def generate_dataset(count: int, seed: int) -> Any:
    """``build_dataset`` over the banded block stream of ``seed``."""
    from repro.bhive import build_dataset

    return build_dataset(TARGET, num_blocks=count, seed=seed,
                         generator=BandedGenerator(seed))


def _split(examples: Sequence[Any]) -> tuple:
    return ([example.block for example in examples],
            np.array([example.timing for example in examples], dtype=np.float64))


# ----------------------------------------------------------------------
# Results shared by both workloads
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one execution of a workload's timed body produced."""

    digest: str
    learned_error: float
    learned_tau: float
    default_error: float
    error_p50: float
    #: The session's engine counters when the body finished.
    engine: Dict[str, int]
    learned_arrays: Any = None
    learned_predictions: Any = None
    default_predictions: Any = None
    report: Any = None
    #: Per-layer values only a traced body records.
    layers: Dict[str, float] = field(default_factory=dict)

    def identity(self) -> tuple:
        """The deterministic outputs tracing and repetition must not change."""
        return (self.digest, self.learned_error, self.default_error,
                self.error_p50)


@dataclass
class Inputs:
    """Generated inputs plus the session that consumes them."""

    session: Any
    blocks: List[Any]
    timings: np.ndarray
    build_dataset_s: float
    heldout_blocks: List[Any] = field(default_factory=list)
    heldout_timings: Any = None
    dataset_path: Optional[str] = None


# ----------------------------------------------------------------------
# Tune workloads
# ----------------------------------------------------------------------
def _ithemal_config(seed: int = 0) -> Any:
    from repro.api import PRESETS

    config = PRESETS.get("fast")(seed)
    config.surrogate.kind = "ithemal"
    config.table_optimization.epochs = ITHEMAL_TABLE_EPOCHS
    return dataclasses.replace(config, simulated_dataset_size=ITHEMAL_EXAMPLES,
                               refinement_rounds=0)


def register_presets() -> None:
    from repro.api import PRESETS

    if ITHEMAL_PRESET not in PRESETS:
        PRESETS.register(ITHEMAL_PRESET, _ithemal_config,
                         summary="fast with the Ithemal surrogate, sized for "
                                 "the end-to-end benchmark")


class TuneWorkload:
    """Tune on generated blocks, then evaluate on held-out blocks."""

    #: A tune is timed cold: one body in a fresh process, as a user runs it.
    warm_up = False

    def __init__(self, name: str, simulator: str, preset: str,
                 surrogate: Optional[str]) -> None:
        self.name = name
        self.simulator = simulator
        self.preset = preset
        self.surrogate = surrogate

    def _session(self) -> Any:
        from repro.api import Session, TuneSpec

        register_presets()
        session = Session.from_spec(TuneSpec(
            target=TARGET, simulator=self.simulator, preset=self.preset,
            surrogate=self.surrogate, seed=CONFIG_SEED, engine_workers=0))
        session.adapter  # noqa: B018 - construct the adapter during set-up
        return session

    def setup(self, seed: int, workdir: str) -> Inputs:
        session = self._session()
        start = time.perf_counter()
        train = generate_dataset(TUNE_BLOCKS, seed)
        heldout = generate_dataset(HELDOUT_BLOCKS, seed + HELDOUT_SEED_OFFSET)
        build_s = time.perf_counter() - start
        blocks, timings = _split(list(train))
        seen = {block.structural_key() for block in blocks}
        heldout_blocks, heldout_timings = _split(
            [example for example in heldout
             if example.block.structural_key() not in seen])
        return Inputs(session=session, blocks=blocks, timings=timings,
                      build_dataset_s=build_s, heldout_blocks=heldout_blocks,
                      heldout_timings=heldout_timings)

    def fresh(self, inputs: Inputs) -> Inputs:
        return dataclasses.replace(inputs, session=self._session())

    def _evaluate(self, inputs: Inputs, learned_table: Any,
                  learned_arrays: Any) -> Outcome:
        from repro.eval.metrics import (error_and_tau,
                                        mean_absolute_percentage_error)

        session = inputs.session
        learned = session.predict(inputs.heldout_blocks, learned_table)
        default = session.predict(inputs.heldout_blocks, session.default_table())
        learned_error, learned_tau = error_and_tau(learned, inputs.heldout_timings)
        default_error = mean_absolute_percentage_error(default,
                                                       inputs.heldout_timings)
        per_block = np.abs(learned - inputs.heldout_timings) / inputs.heldout_timings
        return Outcome(digest=arrays_digest(learned_arrays),
                       learned_error=float(learned_error),
                       learned_tau=float(learned_tau),
                       default_error=float(default_error),
                       error_p50=float(np.median(per_block)),
                       engine=dict(session.stats()["engine"]),
                       learned_arrays=learned_arrays,
                       learned_predictions=learned, default_predictions=default)

    def run(self, inputs: Inputs) -> Outcome:
        outcome = inputs.session.tune(inputs.blocks, inputs.timings)
        return self._evaluate(inputs, outcome.learned_table,
                              outcome.learned_arrays)

    def finish(self, inputs: Inputs, outcome: Outcome) -> None:
        """Nothing to add: :meth:`run` computed every metric."""

    def traced(self, inputs: Inputs, probes: Any) -> Outcome:
        """The same work as :meth:`run`, driven stage by stage under probes.

        ``Session.tune()`` runs :class:`~repro.pipeline.pipeline.TuningPipeline`
        over ``build_stages(config)``; without a checkpoint directory that is
        exactly the loop below, so the learned table is bit-identical.
        """
        from repro.core.surrogate import BlockFeaturizer, featurization_cache_stats
        from repro.pipeline.stages import (PipelineState, RefinementRoundStage,
                                           build_stages)

        session = inputs.session
        adapter = session.adapter
        config = session.config
        state = PipelineState(
            adapter=adapter, config=config, blocks=list(inputs.blocks),
            true_timings=np.asarray(inputs.timings, dtype=np.float64),
            rng=np.random.default_rng(config.seed),
            featurizer=BlockFeaturizer(adapter.opcode_table))
        layers: Dict[str, float] = dict.fromkeys(
            ("pipeline.refinement_s", "pipeline.refinement.collect_s",
             "pipeline.refinement.train_s", "pipeline.refinement.optimize_s"), 0.0)
        refinement_parts = {"pipeline.collect_examples": "pipeline.refinement.collect_s",
                            "pipeline.train_surrogate": "pipeline.refinement.train_s",
                            "pipeline.optimize_parameter_table":
                                "pipeline.refinement.optimize_s"}
        cache_before = featurization_cache_stats()
        main_training = main_table = None
        with probes:
            start = time.perf_counter()
            for stage in build_stages(config):
                before = probes.snapshot()
                stage_start = time.perf_counter()
                stage.run(state)
                elapsed = time.perf_counter() - stage_start
                if isinstance(stage, RefinementRoundStage):
                    layers["pipeline.refinement_s"] += elapsed
                    after = probes.snapshot()
                    for key, name in refinement_parts.items():
                        layers[name] += after[key][1] - before[key][1]
                else:
                    layers[f"pipeline.{stage.name}_s"] = elapsed
                if stage.name == "train_surrogate":
                    main_training = state.surrogate_result
                elif stage.name == "optimize_table":
                    main_table = state.table_result
            evaluate_start = time.perf_counter()
            outcome = self._evaluate(
                inputs, adapter.table_from_arrays(state.learned_arrays),
                state.learned_arrays)
            end = time.perf_counter()
        layers["pipeline.extract_evaluate_s"] += end - evaluate_start
        layers["trace.run_s"] = end - start
        cache_after = featurization_cache_stats()
        layers.update(self._quality(inputs, state, outcome))
        layers.update({
            "core.surrogate.block_hit_ratio": _ratio_delta(
                cache_before, cache_after, "block"),
            "core.surrogate.table_hit_ratio": _ratio_delta(
                cache_before, cache_after, "table"),
            "core.surrogate_training.examples_per_s":
                main_training.examples_per_second,
            "core.table_optimization.examples_per_s":
                main_table.examples_per_second,
            "core.surrogate_training.final_error":
                state.surrogate_result.final_training_error,
            "pipeline.train_error": state.train_error,
        })
        outcome.layers = layers
        return outcome

    def _quality(self, inputs: Inputs, state: Any, outcome: Outcome
                 ) -> Dict[str, float]:
        """Surrogate-vs-simulator gap and learned values at the sampling edge."""
        from repro.core.simulated_dataset import SimulatedExample
        from repro.core.surrogate_training import evaluate_surrogate

        adapter = inputs.session.adapter
        learned = state.learned_arrays
        examples = [SimulatedExample(arrays=learned, block_index=index,
                                     block=block, simulated_timing=float(timing))
                    for index, (block, timing) in enumerate(
                        zip(inputs.heldout_blocks, outcome.learned_predictions))]
        sim_gap = evaluate_surrogate(state.surrogate, examples)

        spec = adapter.parameter_spec()
        per_mask, global_mask = adapter.unlearned_dimension_masks()
        at_edge_global = learned.global_values >= _sample_high(spec.global_fields)
        if global_mask is not None:
            at_edge_global &= ~global_mask
        featurizer = state.featurizer
        used = sorted({index for block in inputs.blocks
                       for index in featurizer.featurize(block).opcode_indices})
        at_edge_per = (learned.per_instruction_values[used]
                       >= _sample_high(spec.per_instruction_fields))
        if per_mask is not None:
            at_edge_per &= ~per_mask
        return {"core.surrogate.sim_gap": sim_gap,
                "core.table_optimization.params_at_sample_edge":
                    int(at_edge_global.sum() + at_edge_per.sum())}

    def check(self, inputs: Inputs, outcome: Outcome, checks: Checks) -> None:
        """Scalar-simulator oracle for both tables on the held-out blocks."""
        adapter = inputs.session.adapter
        targets = inputs.heldout_timings
        for label, arrays, predictions, error, tau in (
                ("learned", outcome.learned_arrays, outcome.learned_predictions,
                 outcome.learned_error, outcome.learned_tau),
                ("default", adapter.default_arrays(), outcome.default_predictions,
                 outcome.default_error, None)):
            reference = scalar_timings(adapter, arrays, inputs.heldout_blocks)
            checks.expect_same(predictions, reference,
                               f"{label} table: engine vs scalar timings")
            checks.expect(oracle_mape(reference, targets) == error,
                          f"{label} table: recomputed error differs")
            if tau is not None:
                checks.expect(oracle_tau(reference, targets) == tau,
                              f"{label} table: recomputed tau differs")


# ----------------------------------------------------------------------
# Sweep workload
# ----------------------------------------------------------------------
def sampled_tables(adapter: Any, count: int) -> List[Any]:
    """The whole tables a random campaign draws, replayed from its seed.

    A random campaign without axes draws table ``k`` as the ``k``-th
    ``parameter_spec().sample(rng)`` of ``default_rng(seed)``.
    """
    rng = np.random.default_rng(CONFIG_SEED)
    spec = adapter.parameter_spec()
    return [spec.sample(rng) for _ in range(count)]


class SweepWorkload:
    """A random-table campaign on a fresh session and a generated train split."""

    name = "sweep_random_tables"
    simulator = "mca"
    #: One body is too short to time steadily, so the bodies after an
    #: untimed first one (all on cold sessions in a warm process) are timed.
    warm_up = True

    def _session(self, dataset_path: str) -> Any:
        from repro.api import Session, TuneSpec

        session = Session.from_spec(TuneSpec(
            target=TARGET, simulator=self.simulator, dataset_path=dataset_path,
            seed=CONFIG_SEED, engine_workers=0))
        session.split("train")
        return session

    def setup(self, seed: int, workdir: str) -> Inputs:
        start = time.perf_counter()
        dataset = generate_dataset(SWEEP_DATASET_BLOCKS, seed)
        build_s = time.perf_counter() - start
        path = os.path.join(workdir, "sweep_dataset.json")
        dataset.save_json(path)
        session = self._session(path)
        blocks, timings = session.split("train")
        return Inputs(session=session, blocks=blocks, timings=timings,
                      build_dataset_s=build_s, dataset_path=path)

    def fresh(self, inputs: Inputs) -> Inputs:
        return dataclasses.replace(inputs,
                                   session=self._session(inputs.dataset_path))

    def run(self, inputs: Inputs) -> Outcome:
        result = inputs.session.run_campaign(
            strategy="random", num_variants=SWEEP_VARIANTS, split="train",
            chunk_size=SWEEP_CHUNK)
        return self._outcome(inputs, result.report)

    def _outcome(self, inputs: Inputs, report: Dict[str, Any]) -> Outcome:
        return Outcome(digest=hashlib.blake2b(
                           repr([variant["error"] for variant in report["variants"]])
                           .encode(), digest_size=16).hexdigest(),
                       learned_error=float(report["best_variants"][0]["error"]),
                       learned_tau=float("nan"),
                       default_error=float(report["baseline_error"]),
                       error_p50=float(report["error_stats"]["quantiles"]["p50"]),
                       engine=dict(inputs.session.stats()["engine"]),
                       report=report)

    def finish(self, inputs: Inputs, outcome: Outcome) -> None:
        """Kendall's tau of the best variant (cache hits, outside the timing)."""
        from repro.eval.metrics import kendall_tau

        best = outcome.report["best_variants"][0]["assignment"]["__sample__"]
        table = inputs.session.adapter.native_table(
            sampled_tables(inputs.session.adapter, best + 1)[best])
        outcome.learned_tau = float(kendall_tau(
            inputs.session.predict(inputs.blocks, table), inputs.timings))

    def traced(self, inputs: Inputs, probes: Any) -> Outcome:
        with probes:
            start = time.perf_counter()
            outcome = self.run(inputs)
            end = time.perf_counter()
        outcome.layers = {
            "trace.run_s": end - start,
            "campaigns.overhead_s":
                (end - start) - probes.counter("engine.run").seconds,
        }
        return outcome

    def check(self, inputs: Inputs, outcome: Outcome, checks: Checks) -> None:
        """Re-simulate sampled variants and pairs with the scalar simulator."""
        session = inputs.session
        adapter = session.adapter
        variants = outcome.report["variants"]
        tables = sampled_tables(adapter, len(variants))
        checks.expect([variant["assignment"]["__sample__"] for variant in variants]
                      == list(range(len(variants))),
                      "campaign variants are not the replayed table draws")
        native = [adapter.native_table(arrays) for arrays in tables]
        engine = session.predict(inputs.blocks, native)
        rng = np.random.default_rng(len(inputs.blocks))
        chosen = rng.choice(len(tables), size=ORACLE_VARIANTS, replace=False)
        for index in chosen:
            reference = scalar_timings(adapter, tables[index], inputs.blocks)
            checks.expect_same(engine[index], reference,
                               f"variant {index}: engine vs scalar timings")
            checks.expect(oracle_mape(reference, inputs.timings)
                          == variants[index]["error"],
                          f"variant {index}: recomputed error differs from report")
        pair_variants = rng.integers(len(tables), size=ORACLE_PAIRS)
        pair_blocks = rng.integers(len(inputs.blocks), size=ORACLE_PAIRS)
        simulators = {}
        reference = []
        for variant, block in zip(pair_variants, pair_blocks):
            simulator = simulators.get(variant)
            if simulator is None:
                simulator = simulators[variant] = adapter.build_simulator(
                    tables[variant])
            reference.append(simulator.predict_timing(inputs.blocks[block]))
        checks.expect_same(engine[pair_variants, pair_blocks], reference,
                           "sampled (variant, block) pairs: engine vs scalar")
        checks.expect(min(variant["error"] for variant in variants)
                      == outcome.learned_error, "best variant is not the minimum")


def _sample_high(fields: Sequence[Any]) -> np.ndarray:
    """Top of each value's sampling range, in optimization layout."""
    return np.concatenate([np.full(item.size, item.sample_high, dtype=np.float64)
                           for item in fields] or [np.zeros(0)])


def _ratio_delta(before: Dict[str, int], after: Dict[str, int], kind: str) -> float:
    hits = after[f"{kind}_hits"] - before[f"{kind}_hits"]
    misses = after[f"{kind}_misses"] - before[f"{kind}_misses"]
    return hits / (hits + misses) if hits + misses else 0.0


WORKLOADS = {
    workload.name: workload for workload in (
        TuneWorkload("tune_fast_mca", "mca", "fast", None),
        TuneWorkload("tune_ithemal_llvm_sim", "llvm_sim", ITHEMAL_PRESET,
                     "ithemal"),
        SweepWorkload(),
    )
}

