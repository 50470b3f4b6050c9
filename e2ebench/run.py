"""End-to-end DiffTune benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload tune_fast_mca --seed 0 --seconds 40 --trace 0

The workload seed generates the inputs; the same seed gives the same inputs.
Set-up (import, session, dataset generation, adapter) is repeated
:data:`SETUP_REPEATS` times and reported as a median.  A cold workload then
times one body, its first.  A warm one (``warm_up``) runs an untimed first
body, then bodies on fresh sessions while another fits in ``--seconds``,
each of which must give the first body's outputs, and reports their median.
Outputs are checked against the scalar reference simulator; every mismatch
counts as a failed operation.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the body
untraced, under the per-layer probes (``probes.py``) and untraced again,
checks that all three produced the same outputs, and prints the per-layer
metrics.  The last line of standard output is the JSON result; the lines
before it list every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import tempfile
import time
from typing import Any, Dict, List

# One BLAS thread: the benchmark measures the program on one core, like the
# engine's ``engine_workers=0``, not how the host schedules helper threads.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3


def _units() -> Dict[str, Dict[str, Any]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        spec = json.load(stream)
    return {"end_to_end": {metric["name"]: metric for metric in spec["end_to_end"]},
            "per_layer": {metric["name"]: metric for metric in spec["per_layer"]}}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(workload: Any, seed: int, workdir: str) -> tuple:
    times: List[float] = []
    build: List[float] = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.setup(seed, workdir)
        times.append(time.perf_counter() - start)
        build.append(inputs.build_dataset_s)
    return inputs, times, build


def end_to_end(workload: Any, seed: int, seconds: float, import_s: float,
               workdir: str, checks: Any) -> Dict[str, float]:
    inputs, setup_times, _ = _setup(workload, seed, workdir)
    first_start = time.perf_counter()
    first = workload.run(inputs)
    first_s = time.perf_counter() - first_start
    # Timed bodies all start in one state. Bodies after the first find
    # process-wide caches (such as the engine's operand-row cache) warm, so a
    # cold workload times its first body only (the traced run checks that a
    # repeat reproduces it), and a warm one times only the bodies after it.
    # Those start while another body, taking as long as the last one, ends
    # within ``seconds``; each must reproduce the first body's outputs.
    run_times = [first_s]
    rates = [first.engine["executed"] / first_s]
    if workload.warm_up:
        run_times, rates = [], []
        start = time.perf_counter()
        elapsed = 0.0
        while not run_times or time.perf_counter() - start + elapsed < seconds:
            body_start = time.perf_counter()
            again = workload.run(workload.fresh(inputs))
            elapsed = time.perf_counter() - body_start
            checks.expect(again.identity() == first.identity(),
                          "a repeated run produced different outputs")
            run_times.append(elapsed)
            rates.append(again.engine["executed"] / elapsed)
    workload.finish(inputs, first)
    workload.check(inputs, first, checks)
    return {
        "setup_s": import_s + statistics.median(setup_times),
        "run_s": statistics.median(run_times),
        "sim_pairs_per_s": statistics.median(rates),
        "peak_rss_mb": _peak_rss_mb(),
        "learned_error": first.learned_error,
        "default_error": first.default_error,
        "error_gain": first.default_error - first.learned_error,
        "learned_tau": first.learned_tau,
        "sweep_error_p50": first.error_p50,
    }


def per_layer(workload: Any, seed: int, workdir: str,
              checks: Any) -> Dict[str, float]:
    import numpy as np

    from probes import layer_probes

    inputs, _, build_times = _setup(workload, seed, workdir)
    # The first body warms process-wide caches; the overhead is taken
    # against the untraced body that follows the traced one.
    untraced = workload.run(inputs)
    probes = layer_probes()
    traced = workload.traced(workload.fresh(inputs), probes)
    inputs = workload.fresh(inputs)
    start = time.perf_counter()
    after = workload.run(inputs)
    untraced_s = time.perf_counter() - start
    for outcome in (traced, after):
        checks.expect(outcome.identity() == untraced.identity(),
                      "the traced run produced different outputs")
    workload.check(inputs, traced, checks)

    def count(key: str) -> Any:
        return probes.counter(key)

    stats = traced.engine
    total_lanes = count("engine.megabatch").lanes
    kernels = [count("llvm_mca.kernel"), count("llvm_sim.kernel")]
    lockstep = sum(kernel.lanes for kernel in kernels)
    kernel_calls = sum(kernel.calls for kernel in kernels)
    chunks = probes.samples.get("campaigns.chunk", [])
    layers = {
        "pipeline.collect_dataset_s": 0.0, "pipeline.train_surrogate_s": 0.0,
        "pipeline.optimize_table_s": 0.0, "pipeline.refinement_s": 0.0,
        "pipeline.refinement.collect_s": 0.0, "pipeline.refinement.train_s": 0.0,
        "pipeline.refinement.optimize_s": 0.0, "pipeline.extract_evaluate_s": 0.0,
        "pipeline.train_error": 0.0,
        "core.surrogate_training.examples_per_s": 0.0,
        "core.table_optimization.examples_per_s": 0.0,
        "core.surrogate_training.final_error": 0.0,
        "core.surrogate.sim_gap": 0.0,
        "core.surrogate.block_hit_ratio": 0.0,
        "core.surrogate.table_hit_ratio": 0.0,
        "core.table_optimization.params_at_sample_edge": 0,
        "campaigns.overhead_s": 0.0,
    }
    layers.update(traced.layers)
    stage_keys = ("pipeline.collect_dataset_s", "pipeline.train_surrogate_s",
                  "pipeline.optimize_table_s", "pipeline.refinement_s",
                  "pipeline.extract_evaluate_s")
    layers.update({
        # Against the untraced ``Session.tune()`` body, so work the traced
        # stages miss or add shows: 1 plus the tracing overhead's share.
        "pipeline.stage_coverage": (sum(layers[key] for key in stage_keys)
                                    / untraced_s),
        "engine.run_calls": count("engine.run").calls,
        "engine.run_s": count("engine.run").seconds,
        "engine.executed": stats["executed"],
        "engine.result_hit_ratio": _ratio(stats["result_hits"],
                                          stats["result_misses"]),
        "engine.compile_hit_ratio": _ratio(stats["compile_hits"],
                                           stats["compile_misses"]),
        "engine.megabatch_s": count("engine.megabatch").seconds,
        "engine.lockstep_lanes": lockstep,
        "engine.fallback_lanes": total_lanes - lockstep,
        "engine.lockstep_fraction": lockstep / total_lanes if total_lanes else 0.0,
        "engine.lanes_per_kernel_call": (lockstep / kernel_calls
                                         if kernel_calls else 0.0),
        "llvm_mca.kernel_s": kernels[0].seconds,
        "llvm_mca.kernel_lanes_per_s": _rate(kernels[0].lanes, kernels[0].seconds),
        "llvm_sim.kernel_s": kernels[1].seconds,
        "llvm_sim.kernel_lanes_per_s": _rate(kernels[1].lanes, kernels[1].seconds),
        "core.surrogate.table_digest_calls": count("core.surrogate.table_digest").calls,
        "core.surrogate.table_digest_s": count("core.surrogate.table_digest").seconds,
        "core.surrogate.forward_batch_s": count("core.surrogate.forward_batch").seconds,
        "autodiff.backward_calls": count("autodiff.backward").calls,
        "autodiff.backward_s": count("autodiff.backward").seconds,
        "autodiff.optimizer_step_s": count("autodiff.optimizer_step").seconds,
        "campaigns.chunks": len(chunks),
        "campaigns.chunk_s_p50": float(np.quantile(chunks, 0.5)) if chunks else 0.0,
        "campaigns.chunk_s_p90": float(np.quantile(chunks, 0.9)) if chunks else 0.0,
        "bhive.build_dataset_s": statistics.median(build_times),
        "trace.overhead_s": layers["trace.run_s"] - untraced_s,
    })
    return layers


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _rate(lanes: int, seconds: float) -> float:
    return lanes / seconds if seconds else 0.0


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"no program to benchmark: {source}/repro is missing",
              file=sys.stderr)
        return 2
    import_start = time.perf_counter()
    sys.path.insert(0, source)
    sys.path.insert(0, HERE)
    try:
        # The API imports its components lazily; import every layer the
        # workloads use so that ``setup_s`` includes loading them.
        import repro.api.session  # noqa: F401
        import repro.bhive  # noqa: F401
        import repro.campaigns.runner  # noqa: F401
        import repro.core.config  # noqa: F401
        import repro.pipeline.stages  # noqa: F401
    except ImportError as error:
        print(f"cannot import the program from {source}: {error}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - import_start
    from workloads import WORKLOADS, Checks

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    units = _units()
    checks = Checks()
    # Exit through SystemExit on SIGTERM so the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory(prefix=".e2ebench-", dir=ROOT) as workdir:
        if args.trace:
            values = per_layer(workload, args.seed, workdir, checks)
            declared = units["per_layer"]
        else:
            values = end_to_end(workload, args.seed, args.seconds, import_s,
                                workdir, checks)
            values["correct_fraction"] = 1.0 - checks.failed / checks.attempted
            declared = units["end_to_end"]
    for message in checks.messages:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    metrics = {name: {"value": float(values[name]), "unit": metric["unit"]}
               for name, metric in declared.items()}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
