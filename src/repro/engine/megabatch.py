"""Megabatch lowering: the whole compiled-block corpus as structure-of-arrays.

The per-block simulation kernels (:func:`repro.llvm_mca.simulator.simulate_bound_mca`,
:func:`repro.llvm_sim.simulator.simulate_bound_llvm_sim`) step one dynamic
instruction per Python bytecode loop iteration.  That loop is the last
per-block interpreter hot path left in the pipeline: blocks are already
compiled once and tables bound vectorized, but ``SimulationEngine.run`` still
walks blocks one at a time.

This module provides the batch-major counterpart, mirroring what
``PackedBlockBatch`` did for the surrogates: a :class:`PackedCorpus` lowers a
list of :class:`~repro.engine.compile.CompiledBlock` into padded NumPy
matrices (opcode indices, interned source/destination register ids, validity
implied by ``-1`` padding and per-block lengths), over which the
numpy-vectorized timing kernels in :mod:`repro.llvm_mca.megabatch` and
:mod:`repro.llvm_sim.megabatch` advance *every* block one dynamic instruction
per step.  All kernel arithmetic is int64 cycle math, so the megabatch
timings are bit-identical to the scalar reference kernels (property-tested
in ``tests/test_megabatch.py``).

:func:`megabatch_timings` is the shared runner over *lanes* — a compiled
block plus the index of the parameter table it runs under, so one call
carries many tables.  It sorts lanes by total dynamic instruction count so
lockstep chunks waste few inactive lanes, packs each chunk, runs the kernel,
and scatters timings back into input order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.compile import CompiledBlock

#: Maximum blocks per lockstep kernel invocation.  Chunks bound peak state
#: memory (register scoreboards, reorder-buffer histories are ``O(B * T)``)
#: and keep each step's working set cache-sized; combined with the sorted
#: homogeneous chunking in :func:`megabatch_timings`, blocks of similar
#: dynamic length share a chunk so few lanes idle.
DEFAULT_MEGABATCH_CHUNK = 1024

#: A chunk never mixes blocks whose total dynamic step counts differ by more
#: than this factor (plus a small absolute slack for very short blocks).
#: Lockstep cost is ``O(B * max_steps)``, so homogeneity keeps the padded
#: lane-step volume within ~2x of the useful work.
_CHUNK_STEP_RATIO = 2
_CHUNK_STEP_SLACK = 16

#: A chunk's lanes times its longest lane's steps stays within this many
#: lane-steps (at least one lane per chunk).  Kernel state is ~25 int64
#: schedule rows per lane-step, so this bounds a call's peak memory however
#: many tables feed it; short lanes still fill whole ``chunk_size`` chunks.
_CHUNK_LANE_STEPS = DEFAULT_MEGABATCH_CHUNK * 32

#: Below this many lanes a lockstep chunk cannot amortize the fixed numpy
#: dispatch overhead of each step (~20 ufunc calls) against the scalar
#: kernels' few microseconds per dynamic instruction, so chunks this skinny
#: run the per-block scalar kernel instead when the caller provides one.
#: Long-tailed corpora (BHive-style lengths) put their few longest blocks
#: in exactly such chunks.
MIN_LOCKSTEP_BLOCKS = 8


@dataclass(frozen=True)
class PackedCorpus:
    """A compiled-block corpus lowered to padded structure-of-arrays form.

    Attributes:
        lengths: ``(B,)`` int64 instruction counts per block.
        opcode_indices: ``(B, L)`` int64 opcode-table indices, zero-padded
            past each block's length (padded positions are never stepped —
            kernels mask lanes by ``lengths``).
        source_ids: ``(B, L, S)`` int64 interned source-register ids, padded
            with ``-1`` (both past a block's length and past an
            instruction's operand count).
        destination_ids: ``(B, L, D)`` int64 interned destination-register
            ids, ``-1``-padded like ``source_ids``.
        num_registers: ``(B,)`` int64 block-local register-universe sizes.
    """

    lengths: np.ndarray
    opcode_indices: np.ndarray
    source_ids: np.ndarray
    destination_ids: np.ndarray
    num_registers: np.ndarray

    @property
    def num_blocks(self) -> int:
        return int(self.lengths.shape[0])

    @property
    def max_length(self) -> int:
        return int(self.opcode_indices.shape[1])


#: Ready cycle / slot value that loses every max: low enough that it never
#: wins an operand or port max, high enough that subtracting any per-opcode
#: credit cannot underflow int64.
NEVER_READY = np.int64(-(2 ** 40))


def port_slot_tables(port_values: np.ndarray, num_ports: int,
                     offset: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Compress ``(N, P)`` per-port values into per-row used-port slots.

    Returns ``(port_id, value)``, each ``(N, U)`` where ``U`` is the maximum
    number of ports any row uses (at least 1): slot ``u`` of row ``n`` holds
    the index of its ``u``-th used port and that port's value plus
    ``offset``.  Unused slots point at the dummy port ``num_ports`` with
    :data:`NEVER_READY`, so they lose every max and scatter only into the
    dummy row of the port state.
    """
    port_values = np.asarray(port_values, dtype=np.int64)
    used = port_values > 0
    max_used = max(int(used.sum(axis=1).max(initial=0)), 1)
    # Stable argsort of (not used) floats used ports to the front in
    # ascending port order, matching the scalar kernels' iteration order.
    front = np.argsort(~used, axis=1, kind="stable")[:, :max_used]
    values = np.take_along_axis(port_values, front, axis=1)
    port_id = np.where(values > 0, front, num_ports)
    return port_id, np.where(values > 0, values + offset, NEVER_READY)


def table_opcodes(corpus: PackedCorpus, lane_table: np.ndarray,
                  num_tables: int) -> Tuple[List[np.ndarray], np.ndarray]:
    """The (table, opcode) pairs a kernel call's lanes execute.

    Returns, per table, the sorted opcodes its lanes use, and the corpus's
    ``(B, L)`` opcode indices remapped to rows of those pairs laid out table
    after table, so a kernel builds per-opcode rows only for what it runs.
    """
    stride = int(corpus.opcode_indices.max(initial=0)) + 1
    keys, rows = np.unique(lane_table[:, None] * stride + corpus.opcode_indices,
                           return_inverse=True)
    bounds = np.searchsorted(keys, np.arange(num_tables + 1) * stride)
    return ([keys[lo:hi] - position * stride for position, (lo, hi)
             in enumerate(zip(bounds[:-1], bounds[1:]))],
            rows.reshape(corpus.opcode_indices.shape))


def _tile_rows(pattern: np.ndarray, repeats: int) -> np.ndarray:
    """Repeat ``pattern`` ``repeats`` times along axis 0 (memcpy speed)."""
    return np.tile(pattern, (repeats,) + (1,) * (pattern.ndim - 1))


@dataclass
class LaneSchedule:
    """The static, step-major schedule of one kernel call's lanes.

    Built by :func:`lane_schedule`.  Every array is in permuted lane order
    (``perm``) and step-major, so each step of a kernel slices contiguous
    rows and every 2D reduction runs over the fast lane axis.

    Attributes:
        perm: ``(B,)`` lane permutation; ``timings[perm] = result``.
        lane_table: ``(B,)`` each lane's index into the call's tables.
        measure: ``(B,)`` measurement iterations.
        total_steps: ``(B,)`` dynamic instructions each lane executes.
        horizon: Steps of the call (the longest lane's ``total_steps``).
        runs: ``(c0, c1)`` lane ranges sharing (length, warmup, measure).
        columns: Per-step values by name, in the order given, ``(H, B)`` or
            ``(H, K, B)``, gathered from each lane's own per-(table, opcode)
            rows.
        port_index: ``(H, U, B)`` flat index into a lane-minor
            ``(num_ports + 1) * B`` port state.
        flat_sources: ``(H, S, B)`` flat register-file index of each read.
        flat_destinations: ``(H, D, B)`` flat register-file index of each
            write.
        num_registers: Register-file slots per lane.
        sentinel: ``(B,)`` flat index of each lane's never-ready slot.
        warm_lanes: Step -> lanes whose warmup window ends at that step.
        final_lanes: Step -> lanes whose measurement window ends there.
    """

    perm: np.ndarray
    lane_table: np.ndarray
    measure: np.ndarray
    total_steps: np.ndarray
    horizon: int
    runs: List[Tuple[int, int]]
    columns: Dict[str, np.ndarray]
    port_index: np.ndarray
    flat_sources: np.ndarray
    flat_destinations: np.ndarray
    num_registers: int
    sentinel: np.ndarray
    warm_lanes: Dict[int, np.ndarray]
    final_lanes: Dict[int, np.ndarray]


def lane_schedule(corpus: PackedCorpus, lane_table: np.ndarray,
                  warmup: np.ndarray, measure: np.ndarray,
                  opcode_rows: np.ndarray, port_ids: np.ndarray, num_ports: int,
                  columns: Dict[str, Tuple[np.ndarray, Any]]) -> LaneSchedule:
    """Precompute everything a lockstep kernel derives from the schedule.

    Lanes are permuted so equal (length, warmup, measure) keys become
    adjacent runs: within a run every schedule is periodic with the block
    length as period and every lane ends at the same step, so each run's
    schedule is gathered once at pattern size and tiled down the horizon.
    Past a run's end, steps are constant pad rows — dummy ports, sentinel
    reads, sink writes and each column's ``pad`` — so finished lanes step on
    garbage confined to their own state, which was snapshotted at their
    last active step; no per-element activity mask is needed.

    Args:
        corpus: The packed blocks.
        lane_table: ``(B,)`` index of each lane's table among the call's.
        warmup: ``(B,)`` warmup iterations per lane.
        measure: ``(B,)`` measurement iterations per lane.
        opcode_rows: ``(B, L)`` each instruction's row among the per-(table,
            opcode) rows (:func:`table_opcodes`).
        port_ids: ``(R, U)`` used-port slots per row (:func:`port_slot_tables`).
        num_ports: Real ports; the dummy port is ``num_ports``.
        columns: Name -> ``(rows, pad)``: per-(table, opcode) ``rows`` of
            shape ``(R,)`` or ``(K, R)``, and the value of steps past a
            lane's end, a scalar or a ``(T,)`` per-table array.
    """
    num_blocks = corpus.num_blocks
    perm = np.lexsort((measure, warmup, corpus.lengths))
    lengths = np.maximum(corpus.lengths[perm], 1)
    warmup = warmup[perm]
    measure = measure[perm]
    lane_table = lane_table[perm]
    opcode_rows = opcode_rows[perm]
    source_rows = corpus.source_ids[perm]
    destination_rows = corpus.destination_ids[perm]
    total_steps = (warmup + measure) * lengths
    warmup_steps = warmup * lengths
    horizon = int(total_steps.max(initial=1))
    rows = np.arange(num_blocks)
    change = np.nonzero((np.diff(lengths) != 0) | (np.diff(warmup) != 0)
                        | (np.diff(measure) != 0))[0] + 1
    bounds = [0, *change.tolist(), num_blocks]
    runs = list(zip(bounds[:-1], bounds[1:]))

    # Register file: per-lane block of real slots plus a sentinel slot
    # (invalid reads, hugely negative) and a sink slot (invalid writes).
    registers = max(int(corpus.num_registers.max(initial=0)), 1) + 2
    lane_base = rows * registers
    sentinel = lane_base + registers - 2
    sink = lane_base + registers - 1

    scaled_port_table = port_ids.T * num_blocks
    filled = {name: np.empty((horizon,) + table.shape[:-1] + (num_blocks,),
                             dtype=np.int64)
              for name, (table, _) in columns.items()}
    port_index = np.empty((horizon, port_ids.shape[1], num_blocks),
                          dtype=np.int64)
    flat_sources = np.empty((horizon, source_rows.shape[2], num_blocks),
                            dtype=np.int64)
    flat_destinations = np.empty((horizon, destination_rows.shape[2],
                                  num_blocks), dtype=np.int64)
    warm_parts: Dict[int, List[np.ndarray]] = {}
    final_parts: Dict[int, List[np.ndarray]] = {}

    for c0, c1 in runs:
        length = int(lengths[c0])
        iterations = int(warmup[c0] + measure[c0])
        run_end = iterations * length
        cols = rows[c0:c1]
        # One period of the run's schedule: (L, nc) gathers of each lane's
        # own table rows, tiled down the run's steps.
        opcode_pat = np.ascontiguousarray(opcode_rows[c0:c1, :length].T)
        for name, (table, pad) in columns.items():
            if table.ndim == 1:
                pattern = table[opcode_pat]
            else:
                pattern = table[:, opcode_pat].transpose(1, 0, 2)
            filled[name][:run_end, ..., c0:c1] = _tile_rows(pattern, iterations)
            if run_end < horizon:
                pad = np.asarray(pad)
                filled[name][run_end:, ..., c0:c1] = (
                    pad[lane_table[c0:c1]] if pad.ndim else pad)
        port_pat = (scaled_port_table[:, opcode_pat].transpose(1, 0, 2)
                    + cols[None, None, :])
        port_index[:run_end, :, c0:c1] = _tile_rows(port_pat, iterations)

        # Operand ids: -1 padding redirects to the sentinel / sink slots on
        # the pattern, before tiling.
        source_pat = np.where(
            source_rows[c0:c1, :length] >= 0,
            source_rows[c0:c1, :length] + lane_base[c0:c1, None, None],
            sentinel[c0:c1, None, None]).transpose(1, 2, 0)
        flat_sources[:run_end, :, c0:c1] = _tile_rows(source_pat, iterations)
        destination_pat = np.where(
            destination_rows[c0:c1, :length] >= 0,
            destination_rows[c0:c1, :length] + lane_base[c0:c1, None, None],
            sink[c0:c1, None, None]).transpose(1, 2, 0)
        flat_destinations[:run_end, :, c0:c1] = _tile_rows(destination_pat,
                                                           iterations)
        if run_end < horizon:
            port_index[run_end:, :, c0:c1] = (num_ports * num_blocks
                                              + cols)[None, None, :]
            flat_sources[run_end:, :, c0:c1] = sentinel[c0:c1][None, None, :]
            flat_destinations[run_end:, :, c0:c1] = sink[c0:c1][None, None, :]

        warm_end = int(warmup_steps[c0])
        if warm_end > 0:
            warm_parts.setdefault(warm_end - 1, []).append(cols)
        final_parts.setdefault(run_end - 1, []).append(cols)

    return LaneSchedule(
        perm=perm, lane_table=lane_table, measure=measure,
        total_steps=total_steps, horizon=horizon, runs=runs, columns=filled,
        port_index=port_index, flat_sources=flat_sources,
        flat_destinations=flat_destinations, num_registers=registers,
        sentinel=sentinel,
        warm_lanes={step: np.concatenate(parts)
                    for step, parts in warm_parts.items()},
        final_lanes={step: np.concatenate(parts)
                     for step, parts in final_parts.items()})


#: Cache of per-block dense operand matrices, keyed by the block's content
#: digest (``CompiledBlock.block_id``).  Lowering the tuple-of-tuples operand
#: lists is the only per-instruction Python loop left in packing, and the
#: same blocks recur across chunks, engine calls, and parameter updates
#: (tables change, blocks don't), so the matrices are built once per block.
_OPERAND_ROW_CACHE: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
_OPERAND_ROW_CACHE_MAX = 1 << 16


def _dense_operands(rows: Tuple[Tuple[int, ...], ...],
                    length: int) -> np.ndarray:
    """Lower ragged operand tuples into a dense ``(length, width)`` matrix."""
    width = max((len(ids) for ids in rows), default=0)
    dense = np.full((max(length, 1), max(width, 1)), -1, dtype=np.int64)
    for position, ids in enumerate(rows):
        if ids:
            dense[position, :len(ids)] = ids
    return dense


def _operand_rows(block: CompiledBlock) -> Tuple[np.ndarray, np.ndarray]:
    cached = _OPERAND_ROW_CACHE.get(block.block_id)
    if cached is None:
        if len(_OPERAND_ROW_CACHE) >= _OPERAND_ROW_CACHE_MAX:
            _OPERAND_ROW_CACHE.clear()
        cached = (_dense_operands(block.source_ids, block.length),
                  _dense_operands(block.destination_ids, block.length))
        _OPERAND_ROW_CACHE[block.block_id] = cached
    return cached


def pack_corpus(compiled: Sequence[CompiledBlock]) -> PackedCorpus:
    """Lower ``compiled`` blocks into one :class:`PackedCorpus`.

    Operand matrices are padded to at least one slot so kernels never deal
    with zero-width gather/scatter axes.
    """
    count = len(compiled)
    lengths = np.fromiter((block.length for block in compiled), dtype=np.int64,
                          count=count)
    max_length = int(lengths.max(initial=1))
    operand_rows = [_operand_rows(block) for block in compiled]
    max_sources = max((src.shape[1] for src, _ in operand_rows), default=1)
    max_destinations = max((dst.shape[1] for _, dst in operand_rows),
                           default=1)

    opcode_indices = np.zeros((count, max_length), dtype=np.int64)
    source_ids = np.full((count, max_length, max_sources), -1, dtype=np.int64)
    destination_ids = np.full((count, max_length, max_destinations), -1,
                              dtype=np.int64)
    for row, block in enumerate(compiled):
        opcode_indices[row, :block.length] = block.opcode_indices
        src, dst = operand_rows[row]
        source_ids[row, :src.shape[0], :src.shape[1]] = src
        destination_ids[row, :dst.shape[0], :dst.shape[1]] = dst
    num_registers = np.fromiter((block.num_registers for block in compiled),
                                dtype=np.int64, count=count)
    return PackedCorpus(lengths=lengths, opcode_indices=opcode_indices,
                        source_ids=source_ids, destination_ids=destination_ids,
                        num_registers=num_registers)


def shrink_iteration_counts(lengths: np.ndarray, warmup_iterations,
                            measure_iterations, max_dynamic_instructions
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized ``_iteration_counts``: shrink windows for long blocks.

    Replicates the simulators' per-block loop exactly — first the
    measurement window shrinks (never below 2), then the warmup window
    (never below 1) — element-wise over ``lengths``.  The three settings
    are scalars or per-block arrays (lanes of differently configured
    simulators).
    """
    lengths = np.asarray(lengths, dtype=np.int64)

    def per_block(value) -> np.ndarray:
        return np.broadcast_to(np.asarray(value, dtype=np.int64),
                               lengths.shape).copy()

    warmup = per_block(warmup_iterations)
    measure = per_block(measure_iterations)
    max_dynamic_instructions = per_block(max_dynamic_instructions)

    def over_cap() -> np.ndarray:
        return (warmup + measure) * lengths > max_dynamic_instructions

    shrink = over_cap() & (measure > 2)
    while shrink.any():
        measure[shrink] -= 1
        shrink = over_cap() & (measure > 2)
    shrink = over_cap() & (warmup > 1)
    while shrink.any():
        warmup[shrink] -= 1
        shrink = over_cap() & (warmup > 1)
    return warmup, measure


def lane_windows(simulators: Sequence[Any], blocks: Sequence[Any],
                 table_index: np.ndarray,
                 compiled: Optional[Sequence[CompiledBlock]] = None) -> tuple:
    """``(compiled, warmup, measure)`` of multi-table lanes.

    Lane ``k`` runs ``blocks[k]`` on ``simulators[table_index[k]]``, under
    that simulator's window settings; ``compiled`` is built unless given.
    """
    if compiled is None:
        compiled = [simulators[int(position)].compiler.compile(block)
                    for block, position in zip(blocks, table_index)]
    lengths = np.fromiter((block.length for block in compiled), dtype=np.int64,
                          count=len(compiled))
    windows = np.array([(simulator.warmup_iterations,
                         simulator.measure_iterations,
                         simulator.max_dynamic_instructions)
                        for simulator in simulators], dtype=np.int64)[table_index]
    warmup, measure = shrink_iteration_counts(lengths, windows[:, 0],
                                              windows[:, 1], windows[:, 2])
    return compiled, warmup, measure


#: A megabatch kernel:
#: ``(corpus, table_index, warmup, measure) -> (B,) float64 timings``.
MegabatchKernel = Callable[[PackedCorpus, np.ndarray, np.ndarray, np.ndarray],
                           np.ndarray]

#: A per-block scalar kernel:
#: ``(compiled, table_index, warmup, measure) -> timing``.
ScalarKernel = Callable[[CompiledBlock, int, int, int], float]


def megabatch_timings(compiled: Sequence[CompiledBlock], table_index: np.ndarray,
                      warmup: np.ndarray, measure: np.ndarray,
                      kernel: MegabatchKernel,
                      chunk_size: int = DEFAULT_MEGABATCH_CHUNK,
                      scalar_kernel: ScalarKernel = None) -> np.ndarray:
    """Run ``kernel`` over the ``compiled`` lanes in sorted lockstep chunks.

    Lane ``k`` simulates ``compiled[k]`` under the caller's table
    ``table_index[k]``; lanes of different tables share chunks freely, so a
    whole collection round of sampled tables fills wide chunks.

    Blocks are ordered by total dynamic instruction count
    (``(warmup + measure) * length``), then split greedily into chunks of at
    most ``chunk_size`` blocks whose step counts stay within a small factor
    of the chunk's shortest block — lockstep lanes padded far past their own
    work would otherwise dominate both memory traffic and per-step overhead
    — and whose lane-step volume stays within :data:`_CHUNK_LANE_STEPS`.
    Results are scattered back into input order.  The sort is stable, so
    equal-cost blocks keep their relative order and the chunking is fully
    deterministic.  Chunk membership never changes a block's timing (the
    kernels are bit-exact per lane), only throughput.

    Chunks with fewer than :data:`MIN_LOCKSTEP_BLOCKS` lanes run
    ``scalar_kernel`` per block instead when one is provided: with so few
    lanes the vectorized step overhead exceeds the scalar kernels' cost,
    and the scalar kernels produce the same bits.
    """
    count = len(compiled)
    timings = np.empty(count, dtype=np.float64)
    if count == 0:
        return timings
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    table_index = np.asarray(table_index, dtype=np.int64)
    lengths = np.fromiter((block.length for block in compiled), dtype=np.int64,
                          count=count)
    total_steps = (np.asarray(warmup, dtype=np.int64)
                   + np.asarray(measure, dtype=np.int64)) * lengths
    order = np.argsort(total_steps, kind="stable")
    sorted_steps = total_steps[order]
    start = 0
    while start < count:
        ceiling = (max(int(sorted_steps[start]), 1) * _CHUNK_STEP_RATIO
                   + _CHUNK_STEP_SLACK)
        stop = min(count, start + chunk_size)
        limit = start + 1
        while (limit < stop and int(sorted_steps[limit]) <= ceiling
               and (limit + 1 - start) * int(sorted_steps[limit])
               <= _CHUNK_LANE_STEPS):
            limit += 1
        selected = order[start:limit]
        if scalar_kernel is not None and limit - start < MIN_LOCKSTEP_BLOCKS:
            for index in selected:
                timings[index] = scalar_kernel(compiled[index],
                                               int(table_index[index]),
                                               int(warmup[index]),
                                               int(measure[index]))
        else:
            corpus = pack_corpus([compiled[index] for index in selected])
            timings[selected] = kernel(corpus, table_index[selected],
                                       warmup[selected], measure[selected])
        start = limit
    return timings


def predict_timings_megabatch(simulator, blocks: Sequence) -> np.ndarray:
    """Shared ``predict_many`` implementation for both simulators.

    Routes batch prediction through the simulator's megabatch kernel
    (:meth:`predict_timing_batch`), falling back to the per-block scalar
    loop for simulators that do not provide one.
    """
    blocks = list(blocks)
    batch = getattr(simulator, "predict_timing_batch", None)
    if batch is not None:
        return np.asarray(batch(blocks), dtype=np.float64)
    return np.array([simulator.predict_timing(block) for block in blocks],
                    dtype=np.float64)


__all__ = [
    "DEFAULT_MEGABATCH_CHUNK",
    "LaneSchedule",
    "MIN_LOCKSTEP_BLOCKS",
    "MegabatchKernel",
    "NEVER_READY",
    "PackedCorpus",
    "ScalarKernel",
    "lane_schedule",
    "lane_windows",
    "megabatch_timings",
    "pack_corpus",
    "port_slot_tables",
    "predict_timings_megabatch",
    "shrink_iteration_counts",
    "table_opcodes",
]
