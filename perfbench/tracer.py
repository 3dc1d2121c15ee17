"""Per-layer spans and work counts for the traced run.

The tracer wraps each layer's public functions at the module attribute where
their caller looks them up (``hessqr.driver.sh_step``, ``hessqr.iqr.iqr_single``
and so on) and restores the originals on exit.  A span records calls, total
time and self time (total minus the time of the spans nested in it).  Work
counts are taken at the same boundaries; branch and block counts come from
each run's ``SolveResult.tree``.
"""

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import hessqr.cli
import hessqr.driver
import hessqr.iqr
import hessqr.ritz
import hessqr.shifting
from hessqr.smalleig import CharPolySolver

SPANS = (
    "cli.main",
    "mmio.read_matrix_market",
    "driver.solve",
    "driver.preprocess",
    "driver.shifted_qr",
    "driver.deflate",
    "ritz.ritz_or_decouple",
    "ritz.optimal",
    "shifting.sh_step",
    "shifting.find",
    "shifting.exc",
    "iqr.comp_tau",
    "iqr.iqr_multi",
    "iqr.iqr_single",
    "smalleig.solve",
)
BRANCHES = ("ritz_shift", "decouple", "exceptional")
RETRY_TYPES = ("DichotomyMiss", "StagnationFailure", "SmallEigFailure")
# Spans at the driver's retry boundary: exceptions leaving them are retries.
RETRY_SPANS = ("ritz.ritz_or_decouple", "shifting.sh_step")


class TracingError(RuntimeError):
    """The program no longer has a name the tracer wraps."""


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.errors = Counter()  # (span, exception type name) -> count
        self.counts = Counter()
        self.max_dim = 0
        self.k = 0
        self.root_s = 0.0  # time inside outermost spans
        self._stack = []  # [name, start, time of child spans]

    def _targets(self):
        """(owner, attribute, span name, observer) for every wrapped function."""
        return (
            (hessqr.cli, "read_matrix_market", "mmio.read_matrix_market", None),
            (hessqr.cli, "solve", "driver.solve", None),
            (hessqr.driver, "preprocess", "driver.preprocess", None),
            (hessqr.driver, "shifted_qr", "driver.shifted_qr", self._on_shifted_qr),
            (hessqr.driver, "deflate", "driver.deflate", None),
            (hessqr.driver, "ritz_or_decouple", "ritz.ritz_or_decouple", None),
            (hessqr.driver, "sh_step", "shifting.sh_step", None),
            (hessqr.ritz, "optimal", "ritz.optimal", self._on_optimal),
            (hessqr.ritz, "iqr_multi", "iqr.iqr_multi", None),
            (hessqr.shifting, "find", "shifting.find", None),
            (hessqr.shifting, "exc", "shifting.exc", None),
            (hessqr.shifting, "comp_tau", "iqr.comp_tau", None),
            (hessqr.shifting, "iqr_multi", "iqr.iqr_multi", None),
            (hessqr.iqr, "iqr_multi", "iqr.iqr_multi", None),
            (hessqr.iqr, "iqr_single", "iqr.iqr_single", self._on_sweep),
            (CharPolySolver, "solve", "smalleig.solve", self._on_small_solve),
        )

    @contextmanager
    def patched(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, observe in self._targets():
                original = vars(owner).get(attr)
                if not callable(original):
                    raise TracingError(
                        f"{owner.__name__}.{attr} no longer exists; update the "
                        "targets in perfbench/tracer.py"
                    )
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, observe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, name, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[name, type(exc).__name__] += 1
                raise
            finally:
                self._exit(frame)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    @contextmanager
    def span(self, name):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def _enter(self, name):
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        duration = time.perf_counter() - frame[1]
        self._stack.pop()
        st = self.stats[frame[0]]
        st[0] += 1
        st[1] += duration
        st[2] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_s += duration

    # observers: called with the wrapped call's positional args and result

    def _on_sweep(self, args, result):
        n = args[0].n
        self.counts["iqr.ops"] += 7 * n * n
        if any(frame[0] == "shifting.sh_step" for frame in self._stack):
            self.counts["sweeps_in_sh_step"] += 1

    def _on_optimal(self, args, result):
        self.counts["optimal_true"] += bool(result)

    def _on_small_solve(self, args, result):
        self.max_dim = max(self.max_dim, len(args[1]))

    def _on_shifted_qr(self, args, result):
        self.add_tree(result)

    def add_tree(self, result):
        """Branch, block and degree counts of one finished solve."""
        for node in result.tree.nodes.values():
            for rec in node.trace:
                self.counts["driver.branch." + rec.branch] += 1
        self.counts["driver.blocks"] += len(result.tree.nodes)
        self.counts["driver.direct_solves"] += len(result.tree.leaves())
        self.k = max(self.k, result.globals_used.k)

    def _successful_calls(self, span):
        failed = sum(c for (name, _), c in self.errors.items() if name == span)
        return self.stats[span][0] - failed

    def problems(self):
        """Invariant violations of the recorded trace, as messages."""
        out = [f"span {name!r} is not in SPANS" for name in self.stats if name not in SPANS]
        steps = self._successful_calls("shifting.sh_step")
        branch = self.counts["driver.branch.ritz_shift"] + self.counts["driver.branch.exceptional"]
        if steps != branch:
            out.append(
                f"shifting.sh_step returned {steps} times but the trees record "
                f"{branch} ritz_shift + exceptional iterations"
            )
        return out

    def metrics(self, untraced_s, solves):
        """Every per-layer metric as name -> (value, unit)."""
        m = {}
        for span in SPANS:
            calls, total, self_s = self.stats[span]
            m[span + ".calls"] = (calls, "count")
            m[span + ".total_s"] = (total, "s")
            m[span + ".self_s"] = (self_s, "s")
        m["smalleig.max_dim"] = (self.max_dim, "rows")
        m["iqr.ops"] = (self.counts["iqr.ops"], "ops_computed")
        steps = self.stats["shifting.sh_step"][0]
        m["iqr.sweeps_per_sh_step"] = (_ratio(self.counts["sweeps_in_sh_step"], steps), "sweeps/step")
        m["ritz.optimal_true_frac"] = (
            _ratio(self.counts["optimal_true"], self.stats["ritz.optimal"][0]),
            "ratio",
        )
        for branch in BRANCHES:
            m["driver.branch." + branch] = (self.counts["driver.branch." + branch], "count")
        retries = Counter()
        for (span, exc_type), c in self.errors.items():
            if span in RETRY_SPANS:
                retries[exc_type if exc_type in RETRY_TYPES else "other"] += c
        for exc_type in RETRY_TYPES + ("other",):
            m["driver.retries." + exc_type] = (retries[exc_type], "count")
        m["driver.blocks"] = (self.counts["driver.blocks"], "count")
        m["driver.direct_solves"] = (self.counts["driver.direct_solves"], "count")
        m["driver.k"] = (self.k, "degree")
        m["trace.solves"] = (solves, "count")
        m["trace.wall_s"] = (self.root_s, "s")
        m["trace.untraced_wall_s"] = (untraced_s, "s")
        m["trace.overhead_frac"] = (_ratio(self.root_s, untraced_s) - 1.0, "ratio")
        return m


def _ratio(num, den):
    return num / den if den else 0.0
