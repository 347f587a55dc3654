"""Outside-in tracer for the ``elliptic_baxter`` package.

``Tracer.install()`` replaces each traced function or method by a timing
wrapper at every binding it has inside the package: module globals (a
function imported by name into other modules), class attributes (aliases
such as ``__rmul__ = __mul__``) and module-level dicts (``cli.RUNNERS``,
``reports.RENDERERS``).  ``uninstall()`` puts the originals back.

The wrappers keep one call stack.  A call's self time is its duration
minus the durations of the traced calls it made; its total time counts
only the outermost activation of a recursive function.  Hot leaves are
aggregated as counts and times; coarse boundaries (suite runners and
residual functions) also record a span with its parent span and job id.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field

from jobs import SUITES

PACKAGE = "elliptic_baxter"


def _term_matrix_repeat(args, kwargs, stat):
    """Count the TermMatrix.eval calls answered from the instance's memo."""
    tm, z, x = args[:3]
    stat.counts["repeats"] += (complex(z), complex(x)) in tm._cache


def _bethe_roots(args, kwargs, result, stat):
    """Count distinct roots found and seeds requested by elliptic_bethe_solve."""
    seeds = kwargs.get("seeds")
    stat.counts["seeds"] += len(seeds) if seeds is not None else kwargs.get("seed_count", 40)
    stat.counts["roots"] += len(result.solutions)


@dataclass(frozen=True)
class Target:
    module: str
    path: str        # attribute path inside the module, e.g. "Poly.__mul__"
    metric: str      # metric prefix; several targets may share one
    stats: tuple     # reported stats among calls, self_s, total_s
    span: bool = False
    before: Callable | None = None   # (args, kwargs, stat)
    after: Callable | None = None    # (args, kwargs, result, stat)


_CS = ("calls", "self_s")
_CST = ("calls", "self_s", "total_s")
_T = ("total_s",)
_S = ("self_s",)

TARGETS = (
    Target("theta", "theta_eval", "theta.theta_eval", _CS),
    Target("theta", "ThetaExpression.eval", "theta.ThetaExpression.eval", _CS),
    Target("theta", "ThetaExpression.__mul__", "theta.ThetaExpression.mul", _CS),
    Target("theta", "ThetaExpression.canonical", "theta.ThetaExpression.canonical", _CS),
    Target("theta", "SamplePlan.points", "theta.SamplePlan", _S),
    Target("theta", "SamplePlan.pairs", "theta.SamplePlan", _S),
    Target("dynamical", "compose_module_ops", "dynamical.compose_module_ops", _CS),
    Target("dynamical", "tensor_entry_tables", "dynamical.tensor_entry_tables", _S),
    Target("dynamical", "invert_weightwise", "dynamical.invert_weightwise", _S),
    Target("dynamical", "TermMatrix.eval", "dynamical.TermMatrix.eval", _CS,
           before=_term_matrix_repeat),
    Target("dynamical", "ModuleOperator.to_matrix", "dynamical.ModuleOperator.to_matrix", _CS),
    Target("dynamical", "series_max_residual", "dynamical.series_max_residual", _T, span=True),
    Target("modules", "build_asymptotic", "modules.build_asymptotic", _CS),
    Target("modules", "dynamical_tensor", "modules.dynamical_tensor", _S),
    Target("modules", "qdybe_residual", "modules.qdybe_residual", _T, span=True),
    Target("modules", "rll_residual", "modules.rll_residual", _T, span=True),
    Target("modules", "gauss_decompose", "modules.gauss_decompose", _T, span=True),
    Target("qchar", "mul", "qchar.mul", _T),
    Target("qchar", "qchar_of_module", "qchar.qchar_of_module", _T),
    Target("qchar", "element_deviation", "qchar.element_deviation", _T, span=True),
    Target("qchar", "monomial_deviation", "qchar.monomial_deviation", ("calls",)),
    Target("qchar", "QCharElement.add_monomial", "qchar.QCharElement.add_monomial", _CS),
    Target("transfer", "transfer_matrix", "transfer.transfer_matrix", _CST),
    Target("transfer", "q_operator", "transfer.q_operator", ("calls", "total_s")),
    *(Target("transfer", f"{name}_residual", f"transfer.{name}_residual", _T, span=True)
      for name in ("product", "tq", "commutativity", "interchange_transfer", "periodicity")),
    Target("bethe", "elliptic_bethe_solve", "bethe.elliptic_bethe_solve", _T, span=True,
           after=_bethe_roots),
    Target("polyring", "Poly.__mul__", "polyring.Poly.mul", _CS),
    Target("polyring", "Poly.__rmul__", "polyring.Poly.mul", _CS),
    Target("polyring", "Poly.__add__", "polyring.Poly.add", _CS),
    Target("yangian", "yangian_transfer", "yangian.yangian_transfer", _CST),
    Target("yangian", "PSeriesMatrix.mul", "yangian.PSeriesMatrix.mul", _T),
    Target("yangian", "tq_residual", "yangian.tq_residual", _T, span=True),
    Target("yangian", "rtt_residual", "yangian.rtt_residual", _T, span=True),
    Target("reports", "build_report", "reports.build_report", _S),
    *(Target("reports", f"render_{fmt}", "reports.render", _S) for fmt in ("json", "csv", "text")),
    *(Target("cli", f"run_{s}", f"cli.run_{s}", _T, span=True)
      for s in (suite.replace("-", "_") for suite in SUITES)),
)

MODULES = ("theta", "dynamical", "modules", "qchar", "transfer", "bethe",
           "polyring", "yangian", "reports", "cli")


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    active: int = 0
    counts: Counter = field(default_factory=Counter)


def _resolve(module, path):
    obj = module
    *owners, name = path.split(".")
    for part in owners:
        obj = getattr(obj, part)
    return vars(obj)[name] if owners else getattr(obj, name)


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def _bindings(originals):
    """(container, key, original) for every binding of an original inside
    the package: module globals, class attributes, module-level dicts."""
    seen = set()
    out = []

    def scan(container, items):
        if id(container) in seen:
            return
        seen.add(id(container))
        for key, value in items:
            if callable(value) and id(value) in originals:
                out.append((container, key, value))

    for mod in _package_modules():
        scan(mod, list(vars(mod).items()))
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__.startswith(PACKAGE):
                scan(value, list(vars(value).items()))
            elif type(value) is dict:
                scan(value, list(value.items()))
    return out


class Tracer:
    """Per-callable counts and times, module exception counts and spans."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.raised: dict[str, int] = {m: 0 for m in MODULES}
        self.spans: list[dict] = []
        self._stack: list[list] = []       # [start, child time, span id]
        self._job: str | None = None
        self._next_span = 0
        self._patched: list = []

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for t in TARGETS:
            module = sys.modules[f"{PACKAGE}.{t.module}"]
            original = _resolve(module, t.path)
            self.stats.setdefault(t.metric, Stat())
            wrappers[id(original)] = self._wrap(original, t)
        for container, key, original in _bindings(wrappers):
            self._set(container, key, wrappers[id(original)])
            self._patched.append((container, key, original))

    def uninstall(self) -> None:
        while self._patched:
            container, key, original = self._patched.pop()
            self._set(container, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    @staticmethod
    def _set(container, key, value):
        if type(container) is dict:
            container[key] = value
        else:
            setattr(container, key, value)

    # -- recording --------------------------------------------------------
    def reset(self) -> None:
        """Zero the aggregates; spans are kept until the run ends."""
        for name in self.stats:
            self.stats[name] = Stat()
        self.raised = dict.fromkeys(self.raised, 0)

    @contextlib.contextmanager
    def job(self, job_id: str):
        """A span for one job; the spans inside it carry its id."""
        self._job = job_id
        frame = [time.perf_counter(), 0.0, self._open_span()]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._close_span(frame[2], "job", frame[0], time.perf_counter())
            self._stack.pop()
            self._job = None

    def _open_span(self) -> int:
        self._next_span += 1
        return self._next_span

    def _parent_span(self):
        for frame in reversed(self._stack[:-1]):
            if frame[2] is not None:
                return frame[2]
        return None

    def _close_span(self, sid, name, start, end):
        self.spans.append({"id": sid, "parent": self._parent_span(), "job": self._job,
                           "name": name, "start": start, "end": end})

    def _wrap(self, fn, target: Target):
        clock = time.perf_counter
        stack = self._stack
        metric = target.metric
        module = target.module
        span, before, after = target.span, target.before, target.after

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self.stats[metric]
            if before is not None:
                before(args, kwargs, st)
            frame = [clock(), 0.0, self._open_span() if span else None]
            stack.append(frame)
            st.active += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[module] += 1
                raise
            finally:
                end = clock()
                dur = end - frame[0]
                if span:
                    self._close_span(frame[2], metric, frame[0], end)
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                st.active -= 1
                st.calls += 1
                st.self_s += dur - frame[1]
                if st.active == 0:
                    st.total_s += dur
            if after is not None:
                after(args, kwargs, result, st)
            return result

        return wrapper

    # -- results ----------------------------------------------------------
    def snapshot(self) -> dict[str, float]:
        """The per-layer metrics of the aggregates since the last reset."""
        out = {}
        reported = {}
        for t in TARGETS:
            reported.setdefault(t.metric, set()).update(t.stats)
        for metric, stats in reported.items():
            st = self.stats[metric]
            for s in ("calls", "self_s", "total_s"):
                if s in stats:
                    out[f"{metric}.{s}"] = getattr(st, s)
        tm = self.stats["dynamical.TermMatrix.eval"]
        out["dynamical.TermMatrix.eval.repeat_ratio"] = (
            tm.counts["repeats"] / tm.calls if tm.calls else 0.0)
        bs = self.stats["bethe.elliptic_bethe_solve"].counts
        out["bethe.elliptic_bethe_solve.roots_per_seed"] = (
            bs["roots"] / bs["seeds"] if bs["seeds"] else 0.0)
        for m, n in self.raised.items():
            out[f"{m}.raised"] = n
        return out


UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "raised": "count",
         "repeat_ratio": "1", "roots_per_seed": "1"}
