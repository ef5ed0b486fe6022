"""Outside-in tracing of smalldigits, done from the benchmark's own files.

The tracer replaces public functions at the names their callers look them
up under (a module global), times every call, and puts the originals back
afterwards. Nothing under ``src/`` is edited.

Two kinds of call are recorded:

* hot calls (per-candidate and per-n primitives) are only aggregated:
  count, total time, and time spent in wrapped child calls;
* job-level calls and calls from ``smalldigits.cli`` into a library module
  also keep a span ``(name, start, end, parent, job)`` in memory.

Self time is total time minus child time, so the self times of all names
add up to the time of the job-level calls. A name's layer is the module
that defines the function, so ``cli.to_digits`` counts towards ``digits``.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from typing import Callable, Iterable, Sequence

# Names that are called once per candidate, per n or per frequency. They are
# aggregated, never kept as spans, which keeps memory flat on long runs.
HOT_NAMES = frozenset({
    "large_digit_count",
    "to_digits",
    "central_binom_valuation",
    "graham_split",
    "is_prime",
    "exp_sum_product",
    "power_sum_norm",
})

# Names wrapped where the library modules, not the CLI, look them up.
INNER_BINDINGS = {
    "searcher": ("large_digit_count", "to_digits", "central_binom_valuation", "graham_split"),
    "kummer": ("to_digits", "central_binom_valuation", "graham_split", "is_prime"),
    "constructors": ("to_digits",),
    "harmonic": ("exp_sum_product",),
    "equidist": ("power_sum_norm",),
}

LAYERS = ("cli", "searcher", "digits", "kummer", "constructors", "harmonic", "equidist", "criteria")


def layer_of(fn: Callable) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


class Tracer:
    """Call timing at module boundaries. One tracer serves one traced pass.

    ``clock`` is injectable so the arithmetic can be tested without sleeping.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, list] = {}  # name -> [count, total, child]
        self.layers: dict[str, str] = {}  # name -> layer
        self.spans: list[tuple] = []  # (name, start, end, parent index, job id)
        self._child = [0.0]  # child-time accumulator per open call
        self._open_spans: list[int] = []
        self._job = None
        self._saved: list[tuple] = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn: Callable, name: str, span: bool) -> Callable:
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        self.layers[name] = layer_of(fn)
        clock, child_stack, spans, open_spans = self.clock, self._child, self.spans, self._open_spans

        if not span:
            def hot(*args, **kwargs):
                child_stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    inner = child_stack.pop()
                    child_stack[-1] += dt
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += inner
            return hot

        def spanned(*args, **kwargs):
            parent = open_spans[-1] if open_spans else None
            index = len(spans)
            spans.append(None)
            open_spans.append(index)
            child_stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                inner = child_stack.pop()
                child_stack[-1] += dt
                open_spans.pop()
                spans[index] = (name, t0, t1, parent, self._job)
                stat[0] += 1
                stat[1] += dt
                stat[2] += inner
        return spanned

    def _patch(self, module, attr: str, name: str, span: bool) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, span))

    def install(self) -> None:
        """Wrap every library function the CLI imports, plus the inner
        bindings listed in INNER_BINDINGS."""
        cli = importlib.import_module("smalldigits.cli")
        for attr, value in sorted(vars(cli).items()):
            if inspect.isfunction(value) and value.__module__.startswith("smalldigits.") \
                    and value.__module__ != cli.__name__:
                self._patch(cli, attr, f"cli.{attr}", span=attr not in HOT_NAMES)
        for mod_name, attrs in INNER_BINDINGS.items():
            module = importlib.import_module(f"smalldigits.{mod_name}")
            for attr in attrs:
                self._patch(module, attr, f"{mod_name}.{attr}", span=attr not in HOT_NAMES)

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def run_job(self, job_id: int, name: str, fn: Callable, *args, **kwargs):
        """Run one job as a top-level span attributed to fn's layer."""
        self._job = job_id
        try:
            return self.wrap(fn, name, span=True)(*args, **kwargs)
        finally:
            self._job = None

    # -- summaries -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per layer, over every name wrapped so far."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, total, child) in self.stats.items():
            layer = self.layers[name]
            out[layer] = out.get(layer, 0.0) + (total - child)
        return out

    def count(self, *names: str) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def total(self, *names: str) -> float:
        return sum(self.stats[n][1] for n in names if n in self.stats)

    def layer_calls(self, layer: str) -> int:
        return sum(s[0] for n, s in self.stats.items() if self.layers[n] == layer)

    def span_durations(self, name: str) -> list[float]:
        return [end - start for (n, start, end, _, _) in self.spans if n == name]


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100] (numpy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def loglog_slope(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
