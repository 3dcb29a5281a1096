"""In-process tracer: spans and exact counts around simplexgeo's public functions.

The package binds functions with ``from .x import f``, so one function
can be reachable under several module attributes (``softmax_coords`` is
bound in ``sequence_core``, ``flows``, ``connections`` and the package
itself).  :meth:`Tracer.install` therefore replaces every binding of each
traced function in every loaded ``simplexgeo`` module, and patches the
two counted methods on their classes.  Nothing under ``src/`` changes;
:meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

PACKAGE = "simplexgeo"

#: Functions wrapped in spans, by module.
TRACED = {
    "sequence_core": ("softmax_coords", "make_tangent", "random_simplex_point"),
    "transforms": ("forward", "pushforward", "pullback_inner"),
    "metrics": ("fr_geodesic", "fr_distance", "fr_inner"),
    "connections": ("e_geodesic_eval", "e_connection_residual"),
    "flows": (
        "flow_closed_form",
        "flow_trajectory",
        "flow_ode_residual",
        "integrate_rk4",
        "gradient_field",
        "solve_lp",
    ),
    "hamiltonian": ("poisson_bracket", "wirtinger", "integrability_suite"),
    "checks": (
        "check_sequence_core",
        "check_transforms",
        "check_metrics",
        "check_connections",
        "check_flows",
        "check_hamiltonian",
    ),
    "cli": ("run",),
}

#: Methods counted on every call, without a span: (module, class, method).
COUNTED = {
    "sequence_core.SimplexPoint.built": ("sequence_core", "SimplexPoint", "__post_init__"),
    "hamiltonian.QuadraticHamiltonian.evals": ("hamiltonian", "QuadraticHamiltonian", "__call__"),
}

BYTES_OUT = "cli.bytes_out"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for module, names in TRACED.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count"
            units[f"{module}.{name}.self_s"] = "s"
            units[f"{module}.{name}.total_s"] = "s"
    for name in COUNTED:
        units[name] = "count"
    units[BYTES_OUT] = "B"
    return units


class Tracer:
    """Records spans (name, start, end, parent index) and call counts in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> int:
        """Wrap every binding of the traced functions; return the binding count."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module, names in TRACED.items():
            home = sys.modules[f"{PACKAGE}.{module}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._span(f"{module}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))
        for metric, (module, cls_name, method) in COUNTED.items():
            cls = getattr(sys.modules[f"{PACKAGE}.{module}"], cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self._counter(metric, original))
            self._restore.append((cls, method, original))
        return len(self._restore)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def count(self, name: str, ancestor: str | None, lo: int = 0) -> int:
        """Spans named ``name`` in ``spans[lo:]`` below a span named ``ancestor`` (any if None)."""
        return sum(
            1
            for i in range(lo, len(self.spans))
            if self.spans[i][0] == name and (ancestor is None or self._has_ancestor(i, ancestor))
        )

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time and total time per traced function, plus the counts.

        Self time is a span's duration minus the durations of its child
        spans.  Total time sums only outermost spans of a name, so a
        function nested in itself is not counted twice.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: 0.0 if unit == "s" else 0 for name, unit in metric_units().items()}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child[i]
            if not self._has_ancestor(i, name):
                out[f"{name}.total_s"] += end - start
        for name in COUNTED:
            out[name] = self.counts[name]
        return out

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as CSV: index, name, start_s, end_s, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")
