"""Simulation-engine throughput — scalar loop vs the megabatch and engine paths.

Thin wrapper over the registered ``engine_throughput`` scenario
(:mod:`repro.bench.scenarios`): scalar loop vs megabatch kernel vs the
engine scalar/megabatch/cached/parallel paths, with bit-identity asserted
between all of them.  Run it without pytest via::

    python -m repro.bench run engine_throughput --tier smoke
"""

from conftest import run_scenario_benchmark


def bench_engine_throughput(benchmark, bench_runner):
    run_scenario_benchmark(benchmark, bench_runner, "engine_throughput")
