"""The shared simulation engine: batched, cached, optionally parallel.

Every stage of the DiffTune pipeline — simulated-dataset collection, the
black-box baselines, evaluation — reduces to the same request: *the timings
of these blocks under these parameter tables*.  :class:`SimulationEngine`
serves that request through one path:

1. blocks are compiled once (table-independent structure, see
   :mod:`repro.engine.compile`) and reused across every table;
2. results are cached in an LRU keyed by ``(table_digest, block_id)``, so
   searchers that re-evaluate overlapping table/block pairs (random search,
   annealing, genetic, coordinate descent) never recompute a pair;
3. cache misses of *every* table in a request are gathered into one
   list of (table, block) lanes and executed as one multi-table
   *megabatch* — a numpy-vectorized kernel call in which each lane carries
   its own table (see :mod:`repro.engine.megabatch`) — then scattered back
   through the cache.  A simulator without the multi-table kernel
   (``predict_timing_lanes``) is served table by table through
   ``predict_timing_batch``, and one without that either (a third-party
   plugin, say) block by block through ``predict_timing``;
4. with workers configured, a request of several pairs splits its lanes
   into a few contiguous segments per worker of a ``multiprocessing`` pool,
   with deterministic reassembly.

The engine is simulator-agnostic: it is constructed from a
``simulator_factory`` (native table -> simulator with ``predict_timing``
and optionally ``predict_timing_batch`` / ``predict_timing_lanes``) and a
``table_digest`` function.
:mod:`repro.engine.factories` provides the two concrete constructions for
llvm-mca and llvm_sim.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.binding import LRUCache
from repro.engine.compile import BlockCompiler
from repro.isa.basic_block import BasicBlock

#: Default result-cache capacity: comfortably holds a full black-box search
#: (tens of thousands of table evaluations x a batch of blocks).
DEFAULT_CACHE_SIZE = 1 << 17


def _simulate_lanes(simulators: Sequence[Any], blocks: Sequence[BasicBlock],
                    table_index: np.ndarray,
                    compiled: Optional[Sequence[Any]] = None
                    ) -> Tuple[List[float], int]:
    """Timing of ``blocks[k]`` under ``simulators[table_index[k]]``.

    Returns the timings and how many of the tables a batch kernel served.
    A simulator with the multi-table kernel (``predict_timing_lanes``) runs
    every lane in one call; one without it is served table by table through
    ``predict_timing_batch``, or block by block through ``predict_timing``
    when it has no batch kernel either.
    """
    first = simulators[0]
    if (getattr(first, "predict_timing_batch", None) is not None
            and hasattr(first, "predict_timing_lanes")):
        values = first.predict_timing_lanes(simulators, blocks, table_index,
                                            compiled=compiled)
        # ndarray -> Python floats in one C call rather than a scalar
        # conversion per element (the cache stores plain floats).
        return np.asarray(values, dtype=np.float64).tolist(), len(simulators)
    values = np.empty(len(blocks), dtype=np.float64)
    batched = 0
    for position, simulator in enumerate(simulators):
        lanes = np.flatnonzero(table_index == position)
        selected = [blocks[lane] for lane in lanes]
        batch = getattr(simulator, "predict_timing_batch", None)
        if batch is None:
            values[lanes] = [simulator.predict_timing(block)
                             for block in selected]
            continue
        batched += 1
        values[lanes] = batch(selected)
    return values.tolist(), batched


def _simulate_lanes_task(task: Any) -> Tuple[List[float], int]:
    """Worker entry point: one contiguous segment of a call's lanes.

    Module-level so it pickles under every multiprocessing start method.
    """
    simulator_factory, tables, blocks, table_index = task
    return _simulate_lanes([simulator_factory(table) for table in tables],
                           blocks, table_index)


class SimulationEngine:
    """Batched execution of (parameter table, basic block) pairs.

    Args:
        simulator_factory: Builds a simulator from a native parameter table.
            Must be picklable (a class or :func:`functools.partial` of one)
            when ``num_workers > 1``.
        table_digest: Content digest of a native table; together with the
            block digest it keys the result cache.
        cache_size: Capacity of the timing LRU cache.
        num_workers: Opt-in process fan-out for :meth:`run_pairs`.  ``0``
            or ``1`` executes serially in-process; ``>= 2`` splits the
            missing lanes of a multi-pair request across a pool.  Results
            are deterministic and identical to the serial path either way.

    Cache misses run through the simulator's multi-table kernel when it has
    one, and otherwise table by table or block by block (see
    :func:`_simulate_lanes`); all paths are bit-identical.
    """

    def __init__(self, simulator_factory: Callable[[Any], Any],
                 table_digest: Callable[[Any], str],
                 cache_size: int = DEFAULT_CACHE_SIZE,
                 num_workers: int = 0) -> None:
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        self._factory = simulator_factory
        self._table_digest = table_digest
        self.num_workers = num_workers
        self._results = LRUCache(cache_size)
        self._compilers: Dict[int, BlockCompiler] = {}
        self._parallel_batches = 0
        self._megabatch_batches = 0
        self._executed = 0

    # ------------------------------------------------------------------
    # Compilation sharing
    # ------------------------------------------------------------------
    def _compiler_for(self, opcode_table: Any) -> BlockCompiler:
        compiler = self._compilers.get(id(opcode_table))
        if compiler is None:
            compiler = BlockCompiler(opcode_table)
            self._compilers[id(opcode_table)] = compiler
        return compiler

    def _build_simulator(self, table: Any, compiler: BlockCompiler) -> Any:
        simulator = self._factory(table)
        if hasattr(simulator, "compiler"):
            simulator.compiler = compiler
        return simulator

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_one(self, table: Any, blocks: Sequence[BasicBlock]) -> np.ndarray:
        """Timings of ``blocks`` under one table, shape ``(len(blocks),)``."""
        return self.run_pairs([(table, blocks)])[0]

    def run(self, tables: Sequence[Any], blocks: Sequence[BasicBlock]) -> np.ndarray:
        """Timings of every block under every table.

        Returns a ``(len(tables), len(blocks))`` array whose row order
        matches ``tables`` and column order matches ``blocks``, regardless
        of caching or parallel scheduling.
        """
        blocks = list(blocks)
        if not tables:
            return np.empty((0, len(blocks)), dtype=np.float64)
        rows = self.run_pairs([(table, blocks) for table in tables])
        return np.stack(rows)

    def run_pairs(self, pairs: Sequence[Tuple[Any, Sequence[BasicBlock]]]
                  ) -> List[np.ndarray]:
        """Timings for heterogeneous ``(table, blocks)`` pairs, in input order.

        The workhorse behind :meth:`run_one`, :meth:`run` and dataset
        collection.  Every uncached (table, block) lane of every pair,
        deduplicated by content, runs in one multi-table kernel call, or
        across the process pool when workers are set and pairs are several.
        """
        results: List[np.ndarray] = []
        slots: Dict[str, int] = {}
        tables: List[Any] = []
        # (table digest, block id) -> the (pair, position) slots it fills.
        missing: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
        lane_blocks: List[BasicBlock] = []
        lane_compiled: List[Any] = []
        lane_tables: List[int] = []
        for index, (table, blocks) in enumerate(pairs):
            digest = self._table_digest(table)
            compiler = self._compiler_for(table.opcode_table)
            timings = np.empty(len(blocks), dtype=np.float64)
            for position, block in enumerate(blocks):
                compiled_block = compiler.compile(block)
                key = (digest, compiled_block.block_id)
                cached = self._results.get(key)
                if cached is not None:
                    timings[position] = cached
                    continue
                targets = missing.get(key)
                if targets is None:
                    if slots.setdefault(digest, len(slots)) == len(tables):
                        tables.append(table)
                    targets = missing[key] = []
                    lane_blocks.append(block)
                    lane_compiled.append(compiled_block)
                    lane_tables.append(slots[digest])
                targets.append((index, position))
            results.append(timings)
        if not missing:
            return results
        table_index = np.asarray(lane_tables, dtype=np.int64)
        if self.num_workers > 1 and len(pairs) > 1:
            values = self._run_pool(tables, lane_blocks, table_index)
        else:
            simulators = [
                self._build_simulator(table, self._compiler_for(table.opcode_table))
                for table in tables]
            values, batched = _simulate_lanes(simulators, lane_blocks,
                                              table_index, lane_compiled)
            self._megabatch_batches += batched
        self._executed += len(values)
        for (key, targets), value in zip(missing.items(), values):
            for index, position in targets:
                results[index][position] = value
            self._results.put(key, value)
        return results

    def _run_pool(self, tables: Sequence[Any], blocks: Sequence[BasicBlock],
                  table_index: np.ndarray) -> List[float]:
        """Fan the lanes out across a process pool, a few contiguous segments
        per worker; ``pool.map`` keeps segment order, so reassembly is
        deterministic."""
        self._parallel_batches += 1
        chunk = max(1, -(-len(blocks) // (self.num_workers * 2)))
        tasks: List[Any] = []
        for start in range(0, len(blocks), chunk):
            used, local = np.unique(table_index[start:start + chunk],
                                    return_inverse=True)
            tasks.append((self._factory, [tables[int(slot)] for slot in used],
                          blocks[start:start + chunk], local))
        start_methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in start_methods else start_methods[0])
        with context.Pool(processes=min(self.num_workers, len(tasks))) as pool:
            computed = pool.map(_simulate_lanes_task, tasks)
        values: List[float] = []
        for segment, batched in computed:
            values.extend(segment)
            self._megabatch_batches += batched
        return values

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> Dict[str, int]:
        """Cache and execution counters.

        ``executed`` counts simulations actually run; ``result_misses``
        counts cache lookups that failed, which can exceed ``executed`` when
        a request repeats a (table, block) pair.  ``megabatch_batches``
        counts the tables of each execution that a batch kernel served.
        """
        return {
            "result_hits": self._results.hits,
            "result_misses": self._results.misses,
            "result_entries": len(self._results),
            "executed": self._executed,
            "compile_hits": sum(compiler.hits for compiler in self._compilers.values()),
            "compile_misses": sum(compiler.misses for compiler in self._compilers.values()),
            "parallel_batches": self._parallel_batches,
            "megabatch_batches": self._megabatch_batches,
        }

    def clear_cache(self) -> None:
        self._results.clear()
        for compiler in self._compilers.values():
            compiler.clear()
        self._parallel_batches = 0
        self._megabatch_batches = 0
        self._executed = 0

    def clear_results(self) -> None:
        """Drop cached timings but keep compiled blocks.

        The next run re-simulates every block without re-compiling — what a
        throughput benchmark wants between repetitions, and cheaper than
        :meth:`clear_cache` when only the result LRU must be invalidated.
        """
        self._results.clear()
