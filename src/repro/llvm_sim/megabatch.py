"""Numpy-vectorized llvm_sim timing kernel over a whole packed corpus.

The lockstep counterpart of
:func:`repro.llvm_sim.simulator.simulate_bound_llvm_sim`: every block of a
:class:`~repro.engine.megabatch.PackedCorpus` advances one dynamic
instruction per step, with the frontend delivery counter, register
scoreboard, and per-port next-free cycles held in int64 arrays.  Every lane
carries its own parameter table (kernel rows are built for each
(table, opcode) pair the call's lanes run), so a single table is the
``T = 1`` case of one signature.

Two scalar inner loops collapse into closed forms:

* **frontend** — per-micro-op delivery cycles are non-decreasing, so the
  instruction's delivery cycle is that of its *last* micro-op:
  ``decode_latency + (delivered + n - 1) // uops_per_cycle``;
* **port execution** — the decoded micro-op list groups micro-ops by port
  (``np.repeat`` order), so ``k`` micro-ops on port ``p`` start at
  ``max(ready, port_free[p])`` and serialize one per cycle: the last starts
  ``k - 1`` cycles later and the port frees ``k`` cycles after the base.
  The bookkeeping micro-op of a portless instruction contributes
  ``start == ready``, restored by a final ``max(last_start, ready)``.

The static schedule — lane permutation into runs, per-lane gathers of each
lane's own table rows, compressed port slots, sentinel/sink operand slots
and pad rows past each lane's end — comes from
:func:`repro.engine.megabatch.lane_schedule`, shared with the llvm-mca
kernel (see :mod:`repro.llvm_mca.megabatch` for the engineering rules).

All arithmetic is int64 cycle math over the same integers the scalar kernel
produces, so timings are bit-identical (pinned by the property tests in
``tests/test_megabatch.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.engine.megabatch import (NEVER_READY, PackedCorpus, lane_schedule,
                                    port_slot_tables, table_opcodes)
from repro.llvm_sim.params import LLVMSimParameterTable, NUM_PORTS


def simulate_packed_llvm_sim(tables: Sequence[LLVMSimParameterTable],
                             corpus: PackedCorpus, table_index: np.ndarray,
                             uops_per_cycle: int, decode_latency: int,
                             warmup: np.ndarray, measure: np.ndarray
                             ) -> np.ndarray:
    """Steady-state cycles/iteration of every corpus block under its table.

    Args:
        tables: The llvm_sim parameter tables; a single table is ``[table]``
            with every lane at index 0.
        corpus: Packed blocks (see :func:`repro.engine.megabatch.pack_corpus`).
        table_index: ``(B,)`` index into ``tables`` of each block's table.
        uops_per_cycle: Frontend delivery throughput.
        decode_latency: Fixed frontend pipeline depth in cycles.
        warmup: ``(B,)`` warmup iterations per block (>= 0).
        measure: ``(B,)`` measurement iterations per block (>= 1).

    Returns:
        ``(B,)`` float64 timings, bit-identical to running
        :func:`~repro.llvm_sim.simulator.simulate_bound_llvm_sim` per block
        under ``tables[table_index[b]]``.
    """
    num_blocks = corpus.num_blocks
    if num_blocks == 0:
        return np.empty(0, dtype=np.float64)
    warmup = np.asarray(warmup, dtype=np.int64)
    measure = np.asarray(measure, dtype=np.int64)
    if np.any(measure < 1):
        raise ValueError("megabatch kernel requires measure >= 1 per block")
    if uops_per_cycle < 1:
        raise ValueError("frontend must deliver at least one micro-op per cycle")
    uops_per_cycle = np.int64(uops_per_cycle)
    decode_latency = np.int64(decode_latency)
    # Rows only for the tables, and the opcodes of each, that some lane runs.
    used, lane_table = np.unique(np.asarray(table_index, dtype=np.int64),
                                 return_inverse=True)
    used_tables = [tables[int(position)] for position in used]
    opcodes, opcode_rows = table_opcodes(corpus, lane_table, len(used_tables))
    port_counts = np.concatenate([table.port_uops[ops] for table, ops
                                  in zip(used_tables, opcodes)])
    # A zero PortMap row still decodes one bookkeeping micro-op.
    decoded_table = np.maximum(port_counts.sum(axis=1), 1)
    latency_table = np.concatenate([table.write_latency[ops] for table, ops
                                    in zip(used_tables, opcodes)])
    port_ids, count_table = port_slot_tables(port_counts, NUM_PORTS, offset=-1)
    # Pad steps deliver zero micro-ops (``uops_minus_one`` of -1 keeps the
    # frontend frozen) and occupy no port.  Retire lower-bounds completion
    # by last_start + 1, so the clamp folds into the latency: completion =
    # last_start + max(latency, 1).
    schedule = lane_schedule(corpus, lane_table, warmup, measure,
                             opcode_rows, port_ids, NUM_PORTS, {
        "decoded": (decoded_table, 0),
        "uops_minus_one": (decoded_table - 1, -1),
        "latency": (latency_table, 0),
        "retire": (np.maximum(latency_table, 1), 1),
        "count_minus_one": (count_table.T, NEVER_READY)})
    (decoded_uops, uops_minus_one, write_latency, retire_latency,
     count_minus_one) = schedule.columns.values()
    port_index = schedule.port_index
    flat_sources = schedule.flat_sources
    flat_destinations = schedule.flat_destinations
    warm_map = schedule.warm_lanes
    final_map = schedule.final_lanes
    num_slots = port_index.shape[1]
    num_sources = flat_sources.shape[1]

    register_ready = np.zeros(num_blocks * schedule.num_registers,
                              dtype=np.int64)
    register_ready[schedule.sentinel] = NEVER_READY
    port_free = np.zeros((NUM_PORTS + 1) * num_blocks, dtype=np.int64)
    delivered = np.zeros(num_blocks, dtype=np.int64)
    previous_retire = np.zeros(num_blocks, dtype=np.int64)
    warmup_end = np.zeros(num_blocks, dtype=np.int64)
    final_end = np.zeros(num_blocks, dtype=np.int64)

    # Scratch buffers so the step loop allocates nothing.
    lane_i64 = np.empty(num_blocks, dtype=np.int64)
    ready = np.empty(num_blocks, dtype=np.int64)
    last_start = np.empty(num_blocks, dtype=np.int64)
    source_ready = np.empty((num_sources, num_blocks), dtype=np.int64)
    slot_scratch = np.empty((num_slots, num_blocks), dtype=np.int64)

    take = np.take
    maximum = np.maximum
    add = np.add

    for step in range(schedule.horizon):
        # Frontend: the instruction waits for its last micro-op's delivery.
        add(delivered, uops_minus_one[step], out=lane_i64)
        np.floor_divide(lane_i64, uops_per_cycle, out=lane_i64)
        add(lane_i64, decode_latency, out=lane_i64)
        add(delivered, decoded_uops[step], out=delivered)

        # Rename/dispatch: wait for the instruction's register sources.
        take(register_ready, flat_sources[step], out=source_ready,
             mode="clip")
        maximum.reduce(source_ready, axis=0, out=ready)
        maximum(ready, lane_i64, out=ready)

        # Execute: k micro-ops on one port serialize one per cycle starting
        # at max(ready, port_free); the last starts k - 1 cycles later and
        # the port frees one cycle after that.  Pad slots go hugely
        # negative (losing every max) and scatter into the dummy row.
        indices = port_index[step]
        take(port_free, indices, out=slot_scratch, mode="clip")
        maximum(slot_scratch, ready, out=slot_scratch)
        add(slot_scratch, count_minus_one[step], out=slot_scratch)
        maximum.reduce(slot_scratch, axis=0, out=last_start)
        maximum(last_start, ready, out=last_start)
        add(slot_scratch, 1, out=slot_scratch)
        port_free[indices] = slot_scratch

        # Destinations become readable WriteLatency cycles after the last
        # micro-op starts.
        add(last_start, write_latency[step], out=lane_i64)
        register_ready[flat_destinations[step]] = lane_i64

        # Retire in order once every micro-op has finished.
        add(last_start, retire_latency[step], out=lane_i64)
        maximum(previous_retire, lane_i64, out=previous_retire)

        lanes = warm_map.get(step)
        if lanes is not None:
            warmup_end[lanes] = previous_retire[lanes]
        lanes = final_map.get(step)
        if lanes is not None:
            final_end[lanes] = previous_retire[lanes]

    cycles_per_iteration = (final_end - warmup_end) / schedule.measure
    np.maximum(cycles_per_iteration, 0.01, out=cycles_per_iteration)
    timings = np.empty(num_blocks, dtype=np.float64)
    timings[schedule.perm] = cycles_per_iteration
    return timings


__all__ = ["simulate_packed_llvm_sim"]
