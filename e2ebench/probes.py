"""Per-layer probes for the traced benchmark run.

A :class:`Probes` object wraps public functions of the system's layers (a
module attribute or a class method) for the duration of a ``with`` block and
restores the originals on exit.  Every wrapper only reads the clock and
counts calls, lanes and per-call samples: it draws from no random stream and
changes no argument or result, so a traced run computes the same outputs as
an untraced one (``run.py`` checks this on every traced run).

Wrappers are installed on the attribute the caller looks up at call time,
which is why the packed kernels and ``megabatch_timings`` are patched on
their defining modules (the simulators import them inside the call) and the
pipeline helpers on :mod:`repro.pipeline.stages` (which calls them through
its module globals).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class Counter:
    """Calls into one layer, the seconds they took and the lanes they carried."""

    calls: int = 0
    seconds: float = 0.0
    lanes: int = 0


class Probes:
    """Timing wrappers around layer entry points, removed on exit."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        #: Per-call durations for keys installed with ``sample=...``.
        self.samples: Dict[str, List[float]] = {}
        self._depth: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any, Any, bool]] = []

    def wrap(self, owner: Any, name: str, key: str,
             lanes: Optional[Callable[..., int]] = None,
             sample: Optional[Callable[..., bool]] = None) -> None:
        """Time every outermost call of ``owner.name`` under ``key``.

        Several entry points may share one key (the engine's ``run``,
        ``run_one`` and ``run_pairs`` call each other); a call made while
        another call under the same key is active is not counted again.
        ``lanes(*args, **kwargs)`` adds to the lane count, and
        ``sample(*args, **kwargs)`` selects calls whose durations are kept.
        The wrapper is installed when the ``with`` block is entered.
        """
        original = getattr(owner, name)
        owned = isinstance(owner, type) and name in vars(owner)
        counter = self.counters.setdefault(key, Counter())
        self._depth.setdefault(key, 0)

        @functools.wraps(original)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if self._depth[key]:
                return original(*args, **kwargs)
            self._depth[key] += 1
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._depth[key] -= 1
                counter.calls += 1
                counter.seconds += elapsed
                if lanes is not None:
                    counter.lanes += lanes(*args, **kwargs)
                if sample is not None and sample(*args, **kwargs):
                    self.samples.setdefault(key, []).append(elapsed)

        self._patches.append((owner, name, timed, original,
                              owned or not isinstance(owner, type)))

    def counter(self, key: str) -> Counter:
        return self.counters.get(key, Counter())

    def snapshot(self) -> Dict[str, Tuple[int, float, int]]:
        return {key: (value.calls, value.seconds, value.lanes)
                for key, value in self.counters.items()}

    def __enter__(self) -> "Probes":
        for owner, name, timed, _, _ in self._patches:
            setattr(owner, name, timed)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for owner, name, _, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


def _corpus_lanes(parameters: Any, corpus: Any, *args: Any, **kwargs: Any) -> int:
    return corpus.num_blocks


def _megabatch_lanes(compiled: Any, *args: Any, **kwargs: Any) -> int:
    return len(compiled)


def _is_multi_table(session: Any, blocks: Any, tables: Any = None) -> bool:
    return isinstance(tables, (list, tuple))


def layer_probes() -> Probes:
    """Probes on every layer the benchmark reports (not yet entered)."""
    import repro.api.session as session_module
    import repro.autodiff.optim as optim
    import repro.autodiff.tensor as tensor
    import repro.core.surrogate as surrogate
    import repro.engine.engine as engine
    import repro.engine.megabatch as megabatch
    import repro.llvm_mca.megabatch as mca_megabatch
    import repro.llvm_sim.megabatch as sim_megabatch
    import repro.pipeline.stages as stages

    probes = Probes()
    for name in ("run", "run_one", "run_pairs"):
        probes.wrap(engine.SimulationEngine, name, "engine.run")
    probes.wrap(megabatch, "megabatch_timings", "engine.megabatch",
                lanes=_megabatch_lanes)
    probes.wrap(mca_megabatch, "simulate_packed_mca", "llvm_mca.kernel",
                lanes=_corpus_lanes)
    probes.wrap(sim_megabatch, "simulate_packed_llvm_sim", "llvm_sim.kernel",
                lanes=_corpus_lanes)
    probes.wrap(surrogate, "table_digest", "core.surrogate.table_digest")
    for cls in (surrogate.IthemalSurrogate, surrogate.PooledSurrogate,
                surrogate.AnalyticalSurrogate):
        probes.wrap(cls, "forward_batch", "core.surrogate.forward_batch")
    probes.wrap(tensor.Tensor, "backward", "autodiff.backward")
    for cls in (optim.SGD, optim.Adam):
        probes.wrap(cls, "step", "autodiff.optimizer_step")
    probes.wrap(stages, "collect_examples", "pipeline.collect_examples")
    probes.wrap(stages, "train_surrogate", "pipeline.train_surrogate")
    probes.wrap(stages, "optimize_parameter_table",
                "pipeline.optimize_parameter_table")
    probes.wrap(session_module.Session, "predict", "campaigns.chunk",
                sample=_is_multi_table)
    return probes
