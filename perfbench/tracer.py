"""Span tracing of the imexbdf package, installed from outside it.

The tracer rebinds the public functions and methods of the traced
modules to timing wrappers and puts every original back afterwards.
A function imported by name into another module (``from .imex_stepper
import run``) is rebound in every imexbdf namespace that holds it, so
callers in any module reach the wrapper.  Functions reached only
through containers or default arguments (the nonlinearity registry of
``config``, ``f=default_cubic_sink``) are not traced; their time is
part of their caller's self time.

Each span records its name, start, end, parent span and run id.  Spans
live in flat in-memory columns while the workload runs and are written
out once, after timing.  Counts that need to see a call's inputs and
outputs (refactorizations, freshly built matrices, report bytes) are
taken in the same wrappers.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

PACKAGE = "imexbdf"
TRACED_MODULES = (
    "imex_stepper",
    "operators",
    "convergence_harness",
    "norms",
    "stability",
    "bdf_coeffs",
    "config",
    "expressions",
    "reports",
)

# Dunder methods that are entry points in their own right: evaluating a
# compiled field is FieldExpr.__call__.
_TRACED_DUNDERS = ("__call__",)


def package_modules():
    """Loaded modules of the package, the package itself included."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Patcher:
    """Rebinds functions in module namespaces and class dicts, and
    restores every original binding in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace_function(self, original, replacement) -> None:
        """Rebind every package-level name bound to ``original``."""
        for mod in package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def replace_method(self, cls, name: str, replacement) -> None:
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def public_callables(module):
    """(owner class or None, attribute name, function, span name) for
    every public function and method defined in ``module``."""
    short = module.__name__.rsplit(".", 1)[-1]
    out = []
    for attr, value in vars(module).items():
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            out.append((None, attr, value, f"{short}.{attr}"))
        elif inspect.isclass(value):
            for meth, member in vars(value).items():
                public = not meth.startswith("_") or meth in _TRACED_DUNDERS
                if (
                    public
                    and inspect.isfunction(member)
                    and not getattr(member, "__isabstractmethod__", False)
                ):
                    out.append((value, meth, member, f"{short}.{attr}.{meth}"))
    return out


class Tracer:
    """In-memory span recorder with per-boundary counters.

    Spans are stored column-wise: ``name_ids``, ``starts``, ``ends``,
    ``parents`` (-1 for a root) and ``run_ids`` (index into ``runs``).
    ``factorized`` holds the indices of shifted-solve spans that built a
    new factorization.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.run_ids = array("i")
        self.runs: list[str] = []
        self.run_id = -1
        self.factorized: set[int] = set()
        self.counts = {"operators.factorizations": 0, "operators.assemble_builds": 0,
                       "reports.bytes_written": 0}
        self._stack = [-1]
        self._last_matrix: dict[int, object] = {}
        self._patcher = Patcher()

    # -- run ids --------------------------------------------------------

    def begin_run(self, label: str) -> None:
        self.runs.append(label)
        self.run_id = len(self.runs) - 1

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        for short in TRACED_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for owner, attr, fn, span_name in public_callables(module):
                wrapper = self._wrap(fn, span_name)
                if owner is None:
                    self._patcher.replace_function(fn, wrapper)
                else:
                    self._patcher.replace_method(owner, attr, wrapper)

    def uninstall(self) -> None:
        self._patcher.restore()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _wrap(self, fn, span_name: str):
        nid = self._name_id(span_name)
        leaf = span_name.rsplit(".", 1)[-1]
        if leaf == "shifted_solve":
            before, after = self._solve_before, self._solve_after
        elif leaf == "assemble":
            before, after = None, self._assemble_after
        elif span_name.startswith("reports.write_"):
            before, after = None, self._write_after
        else:
            before = after = None
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, run_ids, stack = self.parents, self.run_ids, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            run_ids.append(tracer.run_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            token = before(args) if before is not None else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(idx, args, result, token)
            return result

        return traced

    # Probes read a call's inputs and outputs at the traced boundary;
    # args[0] is the operator (methods) or the output path (writers).

    @staticmethod
    def _solve_before(args):
        return args[0].factorization_count

    def _solve_after(self, idx, args, result, count_before):
        grown = args[0].factorization_count - count_before
        if grown > 0:
            self.factorized.add(idx)
            self.counts["operators.factorizations"] += grown

    def _assemble_after(self, idx, args, result, _):
        key = id(args[0])
        if self._last_matrix.get(key) is not result:
            self.counts["operators.assemble_builds"] += 1
            self._last_matrix[key] = result

    def _write_after(self, idx, args, result, _):
        self.counts["reports.bytes_written"] += os.path.getsize(args[0])

    # -- output ---------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans as numpy columns (``name_id``, ``start``,
        ``end``, ``parent``, ``run_id``) plus the ``names`` and ``runs``
        tables they index."""
        import numpy as np

        np.savez_compressed(
            path,
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            run_id=np.frombuffer(self.run_ids, dtype=np.int32),
            names=np.array(self.names, dtype=str),
            runs=np.array(self.runs, dtype=str),
        )


class StepCounter:
    """Counts time steps by wrapping ``imex_stepper.run`` only: one cheap
    wrapper per run, none per step, so untraced timings stay untraced.
    A step is a time node past the k starting values."""

    def __init__(self):
        self.steps = 0
        self._patcher = Patcher()

    def __enter__(self):
        original = sys.modules[f"{PACKAGE}.imex_stepper"].run

        @functools.wraps(original)
        def counted(scheme, *args, **kwargs):
            traj = original(scheme, *args, **kwargs)
            self.steps += len(traj.times) - scheme.k
            return traj

        self._patcher.replace_function(original, counted)
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        return False


# -- span arithmetic ------------------------------------------------------


def self_times(starts, ends, parents):
    """Per-span self time: duration minus the part of the span's
    interval that its children cover (overlapping children count once,
    children are clipped to the parent)."""
    n = len(starts)
    out = [ends[i] - starts[i] for i in range(n)]
    children: dict[int, list[int]] = {}
    for i in range(n):
        p = parents[i]
        if p >= 0:
            children.setdefault(p, []).append(i)
    for p, kids in children.items():
        lo_p, hi_p = starts[p], ends[p]
        covered = 0.0
        cur_lo = cur_hi = None
        for i in sorted(kids, key=lambda j: starts[j]):
            lo, hi = max(starts[i], lo_p), min(ends[i], hi_p)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


def time_outside(starts, ends, parents, names, name_ids, outer: str, inner: str):
    """Total duration of ``outer`` spans minus the time their descendant
    ``inner`` spans take (outermost ``inner`` spans only)."""
    outer_ids = {i for i, n in enumerate(names) if n == outer}
    inner_ids = {i for i, n in enumerate(names) if n == inner}
    total = sum(ends[i] - starts[i] for i in range(len(starts)) if name_ids[i] in outer_ids)
    for i in range(len(starts)):
        if name_ids[i] not in inner_ids:
            continue
        p = parents[i]
        nested_inner = False
        while p >= 0 and name_ids[p] not in outer_ids:
            if name_ids[p] in inner_ids:
                nested_inner = True
            p = parents[p]
        if p >= 0 and not nested_inner:
            total -= ends[i] - starts[i]
    return total


TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it
    (the median when there are fewer than twenty samples)."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * round(100.0 - p, 9) >= 1000.0:  # n * (1 - p/100) >= 10
            best = p
    return best


def layer_metrics(tracer: Tracer, matrices: int) -> dict[str, float]:
    """Per-layer metrics of one traced process (set-up and timed body).

    ``matrices`` is the number of rotated matrices the workload checks,
    the base of ``stability.nr_boundary_per_matrix``.  Times are self
    times in seconds unless the name says otherwise.
    """
    import numpy as np

    names = tracer.names
    name_ids = list(tracer.name_ids)
    starts = list(tracer.starts)
    ends = list(tracer.ends)
    parents = list(tracer.parents)
    own = self_times(starts, ends, parents)
    span_names = [names[i] for i in name_ids]

    def select(pred):
        return [i for i, n in enumerate(span_names) if pred(n)]

    def self_sum(idx):
        return float(sum(own[i] for i in idx))

    def leaf(n):
        return n.rsplit(".", 1)[-1]

    def module(prefix):
        return select(lambda n: n.startswith(prefix + "."))

    def exact(name):
        return select(lambda n: n == name)

    steps_idx = exact("imex_stepper.imex_step")
    step_us = np.array([(ends[i] - starts[i]) * 1e6 for i in steps_idx])
    solves = select(lambda n: n.startswith("operators.") and leaf(n) == "shifted_solve")
    assembles = select(lambda n: n.startswith("operators.") and leaf(n) == "assemble")
    applies = select(lambda n: n.startswith("operators.") and leaf(n) == "apply")
    evaluate_set = set(
        select(lambda n: n.startswith("operators.") and leaf(n) == "evaluate")
    )
    # an explicit evaluation is an outermost evaluate span: a sum of
    # terms evaluates its parts inside one evaluation
    evaluations = [i for i in evaluate_set if parents[i] not in evaluate_set]
    forcing = exact("convergence_harness.ManufacturedProblem.forcing")
    a_alpha = exact("stability.a_alpha_angle")
    nr_boundary = exact("stability.numerical_range_boundary")
    fields = exact("expressions.FieldExpr.__call__")
    steps = len(steps_idx)
    assemble_calls = len(assembles)
    builds = tracer.counts["operators.assemble_builds"]

    metrics = {
        "imex_stepper.steps": steps,
        "imex_stepper.self_s": self_sum(module("imex_stepper")),
        "imex_stepper.step_us_p50": float(np.percentile(step_us, 50)) if steps else 0.0,
        "imex_stepper.step_us_tail": (
            float(np.percentile(step_us, tail_percentile(steps))) if steps else 0.0
        ),
        "operators.shifted_solve_calls": len(solves),
        "operators.factorizations": tracer.counts["operators.factorizations"],
        "operators.factor_s": self_sum(i for i in solves if i in tracer.factorized),
        "operators.cached_solve_s": self_sum(
            i for i in solves if i not in tracer.factorized
        ),
        "operators.assemble_calls": assemble_calls,
        "operators.assemble_builds": builds,
        "operators.assemble_hit_ratio": (
            1.0 - builds / assemble_calls if assemble_calls else 0.0
        ),
        "operators.assemble_s": self_sum(assembles),
        "operators.apply_calls": len(applies),
        "operators.apply_s": self_sum(applies),
        "operators.evaluate_calls": len(evaluations),
        "operators.evaluate_s": self_sum(evaluate_set),
        "operators.evaluations_per_step": len(evaluations) / steps if steps else 0.0,
        "convergence_harness.forcing_calls": len(forcing),
        "convergence_harness.forcing_s": self_sum(forcing),
        "convergence_harness.post_s": time_outside(
            starts, ends, parents, names, name_ids,
            "convergence_harness.convergence_study", "imex_stepper.run",
        ),
        "norms.calls": len(module("norms")),
        "norms.s": self_sum(module("norms")),
        "stability.a_alpha_angle_calls": len(a_alpha),
        "stability.a_alpha_angle_s": self_sum(a_alpha),
        "stability.nr_boundary_calls": len(nr_boundary),
        "stability.nr_boundary_s": self_sum(nr_boundary),
        "stability.nr_boundary_per_matrix": (
            len(nr_boundary) / matrices if matrices else 0.0
        ),
        "stability.sweep_s": self_sum(exact("stability.von_neumann_sweep")),
        "bdf_coeffs.scheme_calls": len(exact("bdf_coeffs.bdf_scheme")),
        "bdf_coeffs.scheme_s": self_sum(module("bdf_coeffs")),
        "config.build_s": self_sum(module("config")),
        "expressions.field_calls": len(fields),
        "expressions.field_s": self_sum(fields),
        "reports.write_s": self_sum(module("reports")),
        "reports.bytes_written": tracer.counts["reports.bytes_written"],
    }
    return metrics


# Counts among the layer metrics: they must repeat exactly for one seed.
COUNT_METRICS = (
    "imex_stepper.steps",
    "operators.shifted_solve_calls",
    "operators.factorizations",
    "operators.assemble_calls",
    "operators.assemble_builds",
    "operators.apply_calls",
    "operators.evaluate_calls",
    "convergence_harness.forcing_calls",
    "norms.calls",
    "stability.a_alpha_angle_calls",
    "stability.nr_boundary_calls",
    "bdf_coeffs.scheme_calls",
    "expressions.field_calls",
    "reports.bytes_written",
)
