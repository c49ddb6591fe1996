"""Span recording around apollonia's layer boundaries, from outside.

``Tracer`` replaces each traced public function with a recording wrapper at
every module attribute that binds it (``triple_summary`` is bound in
``invariants``, ``apollonius``, ``isogonal``, ``scene`` and the package
itself), so calls between modules are seen too.  The originals are put back
when the ``with`` block ends, whatever happens inside it.

Spans stay in memory, in flat arrays: name, parent span, op, start, end.
Self time is a span's duration minus that of its child spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

# layer-boundary functions, by defining module
TRACED = {
    "apollonia.circle_core": ("circle_from_spec", "normalized_coeffs",
                              "coincidence_test"),
    "apollonia.invariants": ("triple_summary", "classify_triple", "similarity"),
    "apollonia.apollonius": ("solve_oriented", "solve_general",
                             "solve_three_lines", "solve_common_point",
                             "enumerate_nonoriented", "tangency_point",
                             "descartes_curvatures"),
    "apollonia.isogonal": ("solve_isogonal", "isogonal_three_lines"),
    "apollonia.scene": ("parse_scene", "solution_set_doc", "summary_doc",
                        "emit_json"),
    "apollonia.render": ("render_svg",),
    "apollonia.cli": ("run_command",),
}

OP = "op"   # the root span the benchmark opens around each op


def span_name(module: str, func: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{func}"


class Tracer:
    """Install with ``with Tracer(hooks) as tr:``; run each op through
    ``tr.op(fn, arg)``.  ``hooks`` maps a span name to a function called
    with each result, for counts that need the returned value."""

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.names = [OP]
        self.name_of = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._op = -1
        self._saved = []    # (module, attribute, original)

    # -- installation ------------------------------------------------------

    def __enter__(self):
        wrappers = {}
        for modname, funcs in TRACED.items():
            module = importlib.import_module(modname)
            for func in funcs:
                original = getattr(module, func)
                name = span_name(modname, func)
                self.names.append(name)
                wrappers[id(original)] = (original, self._wrap(
                    original, len(self.names) - 1, self.hooks.get(name)))
        try:
            for modname, module in sorted(sys.modules.items()):
                if modname != "apollonia" and not modname.startswith("apollonia."):
                    continue
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, hit[1])
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @property
    def bindings(self):
        """The (module name, attribute) pairs currently wrapped."""
        return [(m.__name__, a) for m, a, _ in self._saved]

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, nid, hook):
        names, parent, op_of = self.name_of, self.parent, self.op_of
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parent.append(stack[-1])
            op_of.append(tracer._op)
            start.append(0)
            end.append(0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if hook is not None:
                hook(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def op(self, fn, arg):
        """Run one op under a root span."""
        i = len(self.name_of)
        self._op = i
        self.name_of.append(0)
        self.parent.append(-1)
        self.op_of.append(i)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(i)
        t0 = time.perf_counter_ns()
        try:
            return fn(arg)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.start[i] = t0
            self.end[i] = t1

    # -- results -----------------------------------------------------------

    @property
    def n_ops(self) -> int:
        return self.name_of.count(0)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_us and total_us, summed over all ops.
        A span's duration counts towards its own name and, negated, towards
        the self time of its parent's name."""
        size = len(self.names)
        calls, self_ns, total_ns = [0] * size, [0] * size, [0] * size
        name_of = self.name_of
        for nid, parent, t0, t1 in zip(name_of, self.parent, self.start,
                                       self.end):
            d = t1 - t0
            calls[nid] += 1
            total_ns[nid] += d
            self_ns[nid] += d
            if parent >= 0:
                self_ns[name_of[parent]] -= d
        return {label: {"calls": calls[nid], "self_us": self_ns[nid] / 1e3,
                        "total_us": total_ns[nid] / 1e3}
                for nid, label in enumerate(self.names)}

    def write(self, path) -> None:
        """All spans as tab-separated lines: op, span, parent, name,
        start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.name_of)):
                fh.write(f"{self.op_of[i]}\t{i}\t{self.parent[i]}\t"
                         f"{self.names[self.name_of[i]]}\t{self.start[i]}\t"
                         f"{self.end[i]}\n")
