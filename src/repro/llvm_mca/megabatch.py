"""Numpy-vectorized llvm-mca timing kernel over a whole packed corpus.

:func:`simulate_packed_mca` advances *every* block of a
:class:`~repro.engine.megabatch.PackedCorpus` through the four-stage
pipeline of :func:`repro.llvm_mca.simulator.simulate_bound_mca` in lockstep:
one step of the loop executes dynamic instruction ``t`` of every still-active
block, with the per-block scalar state (dispatch bandwidth, register
scoreboard, port reservations, reorder-buffer occupancy) held in
``(B,)``-shaped int64 arrays.

Every lane carries its own parameter table, so one call can simulate a whole
collection round of sampled tables: kernel rows are built for each
(table, opcode) pair the call's lanes run, each lane gathers its own, and
DispatchWidth and reorder-buffer size are per-lane ``(B,)`` arrays.  A
single table is the ``T = 1`` case.

Equivalence with the scalar kernel is exact, not approximate: every quantity
is integer cycle arithmetic, each vectorized statement mirrors one statement
of the scalar loop, and the final per-iteration division happens in float64
on identical integers — so timings are bit-identical (pinned by the property
tests in ``tests/test_megabatch.py``).

The per-step cost is dominated by fixed numpy dispatch overhead and memory
traffic rather than element arithmetic, so both the step loop and the
schedule construction are engineered to stay minimal:

* everything derivable from the static schedule — per-step micro-op counts,
  operand indices, port-slot lists, stall thresholds — is materialized once
  up front by :func:`repro.engine.megabatch.lane_schedule`, **step-major
  and lane-minor** (``(H, B)`` / ``(H, S, B)``), so each step slices
  contiguous rows and every 2D reduction runs over the fast axis;
* lanes are permuted into runs of identical (length, warmup, measure), so
  each run's schedule is gathered once at pattern size and *tiled* down the
  horizon at memcpy speed, and every lane of a run ends at the same step:
  steps past a run's end are constant pad rows (zero micro-ops, dummy
  ports, sentinel operand reads, sink writes), so finished lanes step on
  garbage confined to their own state, snapshotted at their last active
  step, with no per-element activity masking;
* the port dimension is compressed from ``NUM_PORTS`` to the maximum
  number of ports any opcode actually uses, padded with a dummy port row;
* the reorder buffer exploits that retire cycles are non-decreasing per
  lane: entry ``t`` of lane ``b`` retires at ``rob_retire[t, b]``, so
  occupancy at any head position is a difference of prefix sums of the
  (static) per-entry micro-op counts, and the head only has to move — via
  a per-lane scalar bisection over the retire history — in the rare steps
  where a lane's buffer looks full.  Chunks whose lanes cannot fill the
  buffer at all (total micro-ops <= capacity) skip the stage entirely.

All scratch arrays are preallocated, so steps allocate nothing.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.engine.megabatch import (NEVER_READY, PackedCorpus, lane_schedule,
                                    port_slot_tables, table_opcodes)
from repro.llvm_mca.params import (MCAParameterTable, NUM_PORTS,
                                   NUM_READ_ADVANCE_SLOTS)
from repro.llvm_mca.simulator import TIMING_ITERATIONS


def _first_unretired(retire_column: np.ndarray, lo: int, hi: int,
                     cycle: int) -> int:
    """First index in ``[lo, hi)`` whose retire cycle exceeds ``cycle``.

    A scalar bisection over a (strided) column view: ``np.searchsorted``
    would copy the column into a contiguous buffer on every call, which
    dominates the slow path for long histories.
    """
    while lo < hi:
        mid = (lo + hi) >> 1
        if retire_column[mid] <= cycle:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _opcode_rows(tables: Sequence[MCAParameterTable],
                 opcodes: Sequence[np.ndarray]) -> dict:
    """Per-(table, opcode) kernel rows for ``opcodes[t]`` of each table."""
    parts = []
    for table, ops in zip(tables, opcodes):
        width = int(table.dispatch_width)
        uops = np.maximum(table.num_micro_ops[ops], 1)
        needed = np.minimum(uops, width)
        port_map = table.port_map[ops]
        parts.append((needed, width - needed,
                      np.where(uops > width, (uops - 1) // width, 0),
                      np.minimum(uops, int(table.reorder_buffer_size)),
                      np.maximum(port_map.max(axis=1), 1),
                      table.write_latency[ops], port_map,
                      table.read_advance_cycles[ops]))
    names = ("needed", "dispatch_thresh", "extra", "rob", "span", "latency",
             "port_map", "read_advance")
    return {name: np.concatenate(column)
            for name, column in zip(names, zip(*parts))}


def simulate_packed_mca(tables: Sequence[MCAParameterTable],
                        corpus: PackedCorpus, table_index: np.ndarray,
                        warmup: np.ndarray, measure: np.ndarray) -> np.ndarray:
    """Steady-state cycles/iteration of every corpus block under its table.

    Args:
        tables: The parameter tables driving the simulation; a single table
            is ``[table]`` with every lane at index 0.
        corpus: Packed blocks (see :func:`repro.engine.megabatch.pack_corpus`).
        table_index: ``(B,)`` index into ``tables`` of each block's table.
        warmup: ``(B,)`` warmup iterations per block (>= 0).
        measure: ``(B,)`` measurement iterations per block (>= 1).

    Returns:
        ``(B,)`` float64 timings, bit-identical to running
        :func:`~repro.llvm_mca.simulator.simulate_bound_mca` per block under
        ``tables[table_index[b]]``.
    """
    num_blocks = corpus.num_blocks
    if num_blocks == 0:
        return np.empty(0, dtype=np.float64)
    warmup = np.asarray(warmup, dtype=np.int64)
    measure = np.asarray(measure, dtype=np.int64)
    if np.any(measure < 1):
        raise ValueError("megabatch kernel requires measure >= 1 per block")
    # Only the tables, and the opcodes of each, that some lane runs.
    used, lane_table = np.unique(np.asarray(table_index, dtype=np.int64),
                                 return_inverse=True)
    used_tables = [tables[int(position)] for position in used]
    opcodes, opcode_rows = table_opcodes(corpus, lane_table, len(used_tables))
    rows = _opcode_rows(used_tables, opcodes)
    widths = np.array([int(table.dispatch_width) for table in used_tables])
    capacities = np.array([int(table.reorder_buffer_size)
                           for table in used_tables])
    port_ids, port_busy = port_slot_tables(rows["port_map"], NUM_PORTS)
    num_sources = corpus.source_ids.shape[2]
    slot_clamp = np.minimum(np.arange(num_sources), NUM_READ_ADVANCE_SLOTS - 1)
    schedule = lane_schedule(corpus, lane_table, warmup, measure,
                             opcode_rows, port_ids, NUM_PORTS, {
        "needed": (rows["needed"], 0),
        # Rollover iff dispatched + needed > width.  A finished lane's
        # threshold is its width, so zero-micro-op pad steps never roll.
        "dispatch_thresh": (rows["dispatch_thresh"], widths),
        "extra": (rows["extra"], 0),
        "rob": (rows["rob"], 0),
        "latency": (rows["latency"], 0),
        "span": (rows["span"], 1),
        "advance": (np.ascontiguousarray(
            rows["read_advance"][:, slot_clamp].T), 0),
        "port_busy": (port_busy.T, NEVER_READY)})
    horizon = schedule.horizon
    lane_capacity = capacities[schedule.lane_table]
    (needed_sched, dispatch_thresh, extra_sched, rob_request, write_latency,
     resource_span, advance, port_busy) = schedule.columns.values()
    port_index = schedule.port_index
    flat_sources = schedule.flat_sources
    flat_destinations = schedule.flat_destinations
    warm_lanes = schedule.warm_lanes
    final_lanes = schedule.final_lanes
    num_slots = port_index.shape[1]
    have_extra = bool(extra_sched.any())

    # Reorder buffer: entry ``t`` of each lane is allocated at step ``t``
    # (finished lanes allocate zero-micro-op entries), so occupancy between
    # head and tail is a prefix-sum difference of the static request counts.
    # A lane is apparently full iff
    #   cum[step] - head_cum + request > capacity[lane],
    # rewritten as ``head_cum < rob_thresh[step]`` with a static threshold
    # (hugely negative past a run's end so finished lanes never re-trigger).
    # Chunks that cannot fill the buffer at all skip the stage entirely.
    track_rob = bool((rob_request.sum(axis=0) > lane_capacity).any())
    if track_rob:
        rob_cumulative = np.zeros((horizon + 1, num_blocks), dtype=np.int64)
        np.cumsum(rob_request, axis=0, out=rob_cumulative[1:])
        rob_thresh = rob_cumulative[:horizon] + rob_request
        rob_thresh -= lane_capacity
        for c0, c1 in schedule.runs:
            run_end = int(schedule.total_steps[c0])
            if run_end < horizon:
                rob_thresh[run_end:, c0:c1] = NEVER_READY
        rob_retire = np.zeros((horizon, num_blocks), dtype=np.int64)

    register_ready = np.zeros(num_blocks * schedule.num_registers,
                              dtype=np.int64)
    register_ready[schedule.sentinel] = NEVER_READY
    port_free = np.zeros((NUM_PORTS + 1) * num_blocks, dtype=np.int64)
    dispatch_cycle = np.zeros(num_blocks, dtype=np.int64)
    dispatched = np.zeros(num_blocks, dtype=np.int64)
    previous_retire = np.zeros(num_blocks, dtype=np.int64)
    rob_head = np.zeros(num_blocks, dtype=np.int64)
    # Prefix sum of micro-ops already popped at each lane's head; only
    # changes when the head moves, so it is cached instead of re-gathered.
    rob_head_cumulative = np.zeros(num_blocks, dtype=np.int64)
    warmup_end = np.zeros(num_blocks, dtype=np.int64)
    final_end = np.zeros(num_blocks, dtype=np.int64)

    # Scratch buffers so the step loop allocates nothing.
    lane_i64 = np.empty(num_blocks, dtype=np.int64)
    lane_bool = np.empty(num_blocks, dtype=bool)
    source_ready = np.empty((num_sources, num_blocks), dtype=np.int64)
    operands_ready = np.empty(num_blocks, dtype=np.int64)
    issue_cycle = np.empty(num_blocks, dtype=np.int64)
    completion = np.empty(num_blocks, dtype=np.int64)
    slot_scratch = np.empty((num_slots, num_blocks), dtype=np.int64)

    take = np.take
    maximum = np.maximum
    add = np.add

    for step in range(horizon):
        # --------------------------------------------------------------
        # Dispatch stage: bandwidth, then reorder-buffer space.
        # --------------------------------------------------------------
        rollover = np.greater(dispatched, dispatch_thresh[step], out=lane_bool)
        add(dispatch_cycle, rollover, out=dispatch_cycle)
        dispatched[rollover] = 0

        if track_rob:
            # Deferred drain: lanes that still fit skip the buffer.
            apparently_full = np.less(rob_head_cumulative, rob_thresh[step],
                                      out=lane_bool)
            if apparently_full.any():
                for lane in np.nonzero(apparently_full)[0]:
                    lane = int(lane)
                    retires = rob_retire[:, lane]
                    cumulative = rob_cumulative[:, lane]
                    allocated = int(cumulative[step])
                    head = int(rob_head[lane])
                    cycle = int(dispatch_cycle[lane])
                    request = int(rob_request[step, lane])
                    capacity = int(lane_capacity[lane])
                    # Drain entries retired by the current cycle, then walk
                    # the clock forward entry by entry until the request
                    # fits — exactly ``ReorderBuffer.earliest_cycle_with_space``.
                    head = _first_unretired(retires, head, step, cycle)
                    while (allocated - int(cumulative[head]) + request
                           > capacity and head < step):
                        retire = int(retires[head])
                        if retire > cycle:
                            cycle = retire
                        head = _first_unretired(retires, head, step, cycle)
                    rob_head[lane] = head
                    rob_head_cumulative[lane] = cumulative[head]
                    if cycle > dispatch_cycle[lane]:
                        dispatch_cycle[lane] = cycle
                        dispatched[lane] = 0
        add(dispatched, needed_sched[step], out=dispatched)

        # --------------------------------------------------------------
        # Issue stage: wait for register operands.
        # --------------------------------------------------------------
        take(register_ready, flat_sources[step], out=source_ready,
             mode="clip")
        np.subtract(source_ready, advance[step], out=source_ready)
        maximum.reduce(source_ready, axis=0, out=operands_ready)
        maximum(operands_ready, dispatch_cycle, out=operands_ready)

        # --------------------------------------------------------------
        # Execute stage: wait for the instruction's ports, then reserve
        # them.  Pad slots read the dummy port row (zero, then hugely
        # negative once written) and scatter back into it.
        # --------------------------------------------------------------
        indices = port_index[step]
        take(port_free, indices, out=slot_scratch, mode="clip")
        maximum.reduce(slot_scratch, axis=0, out=issue_cycle)
        maximum(issue_cycle, operands_ready, out=issue_cycle)
        add(port_busy[step], issue_cycle, out=slot_scratch)
        port_free[indices] = slot_scratch

        # Destinations become readable WriteLatency cycles after issue.
        add(issue_cycle, write_latency[step], out=lane_i64)
        register_ready[flat_destinations[step]] = lane_i64

        # --------------------------------------------------------------
        # Retire stage: in order, after execution completes.
        # --------------------------------------------------------------
        add(issue_cycle, resource_span[step], out=completion)
        maximum(completion, lane_i64, out=completion)
        add(dispatch_cycle, 1, out=lane_i64)
        maximum(completion, lane_i64, out=completion)
        maximum(previous_retire, completion, out=previous_retire)
        if track_rob:
            rob_retire[step] = previous_retire

        if have_extra:
            # Wider-than-dispatch instructions block the dispatcher for
            # their extra cycles.
            extra = extra_sched[step]
            add(dispatch_cycle, extra, out=dispatch_cycle)
            wide = np.not_equal(extra, 0, out=lane_bool)
            dispatched[wide] = 0

        lanes = warm_lanes.get(step)
        if lanes is not None:
            warmup_end[lanes] = previous_retire[lanes]
        lanes = final_lanes.get(step)
        if lanes is not None:
            final_end[lanes] = previous_retire[lanes]

    cycles_per_iteration = (final_end - warmup_end) / schedule.measure
    np.maximum(cycles_per_iteration, 1.0 / TIMING_ITERATIONS,
               out=cycles_per_iteration)
    timings = np.empty(num_blocks, dtype=np.float64)
    timings[schedule.perm] = cycles_per_iteration
    return timings


__all__ = ["simulate_packed_mca"]
