"""Outside-in tracing of vmadmm: spans and counters around public calls.

Nothing here edits the package. :func:`install` resolves every hook target
by name when tracing starts and replaces it with a wrapper, in the defining
module or class and in every ``vmadmm`` module that imported the same object
by name. A target that no longer exists is recorded as missing, and the
layer metrics that need it are reported absent instead of failing the run.

A span is ``[id, parent, name, start, end]`` with ``perf_counter`` times.
Each wrapped function also has a key such as ``solver.run`` or
``functions.Quadratic.prox``; a counted event is attributed to every key
open when it happens, so "matrix-vector products inside ``solver.run``" is
one dictionary lookup.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

# (span name, "module:attribute"); "*.method" means that method on every
# class of the module that defines it itself.
SPAN_HOOKS = [
    ("cli.main", "vmadmm.cli:main"),
    ("experiments.run_experiment", "vmadmm.experiments:run_experiment"),
    ("experiments.write", "vmadmm.experiments:write_iterate_log"),
    ("experiments.write", "vmadmm.experiments:write_summary"),
    ("problems.build_problem", "vmadmm.problems:build_problem"),
    ("problems.oracle", "vmadmm.problems:oracle"),
    ("linops.operator_norm", "vmadmm.linops:operator_norm"),
    ("linops.eig", "vmadmm.linops:min_eigenvalue"),
    ("linops.eig", "vmadmm.linops:loewner_geq"),
    ("solver.validate_assumptions", "vmadmm.solver:validate_assumptions"),
    ("solver.run", "vmadmm.solver:run"),
    ("solver.x_update", "vmadmm.solver:x_update"),
    ("solver.z_update", "vmadmm.solver:z_update"),
    ("solver.y_update", "vmadmm.solver:y_update"),
    ("functions.prox", "vmadmm.functions:*.prox"),
    ("functions.prox", "vmadmm.functions:*.prox_diag"),
    ("functions.distance", "vmadmm.functions:*.distance_to_subdifferential"),
    ("diagnostics.kkt_residual", "vmadmm.diagnostics:kkt_residual"),
    ("diagnostics.gap_certificate", "vmadmm.diagnostics:gap_certificate"),
    ("diagnostics.uv_energies", "vmadmm.diagnostics:uv_energies"),
]

# Events counted without a span, because they are too frequent to time one
# by one. A factorization is a ``cho_factor`` call, the only factor routine
# vmadmm uses.
COUNTER_HOOKS = [
    ("matvec", "vmadmm.linops:LinearMap.apply"),
    ("matvec", "vmadmm.linops:LinearMap.adjoint"),
    ("factorization", "scipy.linalg:cho_factor"),
]


class Tracer:
    """In-memory spans and counters for one traced process.

    ``observers`` maps a span name to a function of the wrapped call's
    return value; what it returns is kept in ``results[name]``.
    """

    def __init__(self, observers=None):
        self.observers = dict(observers or {})
        self.spans = []
        self._stack = []  # ids of open spans
        self._open = {}  # key -> depth, open keys only
        self.counts = defaultdict(int)  # (event, key) -> count
        self.calls = defaultdict(int)  # key -> completed calls
        self.results = defaultdict(list)
        self.resolved = set()  # span names, events and keys with a live hook
        self.missing = []  # hook targets that did not resolve

    def span(self, name, key, fn):
        observer = self.observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [len(self.spans), self._stack[-1] if self._stack else None,
                      name, 0.0, 0.0]
            self.spans.append(record)
            self._stack.append(record[0])
            self._open[key] = self._open.get(key, 0) + 1
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                self._stack.pop()
                if self._open[key] == 1:
                    del self._open[key]
                else:
                    self._open[key] -= 1
                self.calls[key] += 1
            if observer is not None:
                self.results[name].append(observer(result))
            return result

        return wrapper

    def counter(self, event, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for key in self._open:
                counts[event, key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def reset_counts(self):
        """Start counts, calls and results afresh; spans are kept."""
        self.counts.clear()
        self.calls.clear()
        self.results.clear()


def _targets(spec):
    """Yield ``(owner, attribute, key)`` for a ``module:attribute`` spec."""
    module_name, attr = spec.split(":")
    module = importlib.import_module(module_name)
    short = module_name.rsplit(".", 1)[-1]
    if attr.startswith("*."):
        method = attr[2:]
        for cls_name, cls in vars(module).items():
            if (inspect.isclass(cls) and cls.__module__ == module_name
                    and inspect.isfunction(vars(cls).get(method))):
                yield cls, method, f"{short}.{cls_name}.{method}"
        return
    owner = module
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if not callable(getattr(owner, last)):
        raise AttributeError(f"{spec} is not callable")
    yield owner, last, f"{short}.{attr}"


def install(tracer):
    """Wrap every hook target; return a function that undoes all of it."""
    tracer.resolved.clear()
    tracer.missing.clear()
    package_modules = [m for name, m in list(sys.modules.items())
                       if name == "vmadmm" or name.startswith("vmadmm.")]
    undo = []

    def patch(owner, attr, wrapper):
        original = getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        # Rebind names that other modules bound with ``from x import y``.
        for module in package_modules:
            for name, value in list(vars(module).items()):
                if value is original and module is not owner:
                    undo.append((module, name, original))
                    setattr(module, name, wrapper)

    hooks = [(name, spec, True) for name, spec in SPAN_HOOKS]
    hooks += [(event, spec, False) for event, spec in COUNTER_HOOKS]
    for name, spec, is_span in hooks:
        try:
            targets = list(_targets(spec))
        except (ImportError, AttributeError) as exc:
            tracer.missing.append(f"{spec}: {exc}")
            continue
        if not targets:
            tracer.missing.append(f"{spec}: no class defines it")
        for owner, attr, key in targets:
            original = getattr(owner, attr)
            wrapper = (tracer.span(name, key, original) if is_span
                       else tracer.counter(name, original))
            patch(owner, attr, wrapper)
            tracer.resolved.update((name, key))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def layer_times(spans):
    """Seconds per span name: inclusive (outermost spans only) and self."""
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    for sid, parent, name, start, end in spans:
        self_time[name] += (end - start) - child_time[sid]
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[2] != name:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:  # else a same-name ancestor already holds it
            inclusive[name] += end - start
    return inclusive, self_time


def write_spans(path, spans):
    """Write spans once, one tab-separated ``id parent name start end`` line each."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("id\tparent\tname\tstart\tend\n")
        for sid, parent, name, start, end in spans:
            fh.write(f"{sid}\t{'' if parent is None else parent}\t{name}"
                     f"\t{start:.9f}\t{end:.9f}\n")
