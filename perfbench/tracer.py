"""Per-layer tracing of cplattice from outside the package.

Each layer's public callables are wrapped at the name the caller looks up
(``cli.sum_lattice``, ``lattice_sum.quad``, ``kernels.res_row_zz``, ...), so
``src/`` stays untouched; :meth:`Tracer.restore` puts every original back.

Spans are aggregated as they close rather than stored: a traced sweep opens
hundreds of thousands of them. For every span name the tracer keeps calls,
busy time (inclusive, counted once when a name recurses), self time (duration
minus the time covered by child spans) and a work count. ``quad`` spans are
also attributed to the nearest enclosing non-quad span, giving
``<span>.quad_calls/_evals/_busy_s/_failures``; the eval count is QUADPACK's
own ``neval``, so integrands are not wrapped.
"""
from __future__ import annotations

import functools
import importlib
import time

# Spans whose quadrature work is reported on its own.
QUAD_SPANS = ("lattice_sum.off_resonant", "euler_maclaurin.bulk.off_resonant",
              "euler_maclaurin.edge.off_resonant", "euler_maclaurin.vertex.off_resonant")

_TERMS = ("bulk", "edge", "vertex")
_KINDS = ("resonant", "off_resonant")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [("cli.self_s", "s", "lower")]
    + [(f"lattice_sum.{k}.{f}", u, "lower") for k in _KINDS
       for f, u in (("calls", "count"), ("busy_s", "s"))]
    + [("lattice_sum.self_s", "s", "lower"), ("lattice_sum.sites", "count", "lower"),
       ("kernels.calls", "count", "lower"), ("kernels.terms", "count", "lower"),
       ("kernels.busy_s", "s", "lower"), ("kernels.terms_per_s", "1/s", "higher"),
       ("kernels.s_per_call", "s", "lower")]
    + [(f"euler_maclaurin.{t}.{k}.{f}", u, "lower") for t in _TERMS for k in _KINDS
       for f, u in (("calls", "count"), ("busy_s", "s"))]
    + [("euler_maclaurin.self_s", "s", "lower")]
    + [(f"{s}.quad_{f}", u, "lower") for s in QUAD_SPANS
       for f, u in (("calls", "count"), ("evals", "count"), ("busy_s", "s"),
                    ("failures", "count"))]
    + [("quad.self_s", "s", "lower"),
       ("greens.calls", "count", "lower"), ("greens.busy_s", "s", "lower"),
       ("greens.self_s", "s", "lower"),
       ("specfun.calls", "count", "lower"), ("specfun.busy_s", "s", "lower"),
       ("asymptotics.calls", "count", "lower"), ("asymptotics.busy_s", "s", "lower"),
       ("trace.overhead_frac", "frac", "lower")]
)


class Tracer:
    """Span stack with per-name aggregates; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}   # name -> [calls, busy_s, self_s, count]
        self.quad: dict[str, list] = {}    # enclosing span -> [calls, evals, busy_s, failures]
        self._stack: list[list] = []       # [name, start, child_s]
        self._depth: dict[str, int] = {}
        self._patches: list[tuple] = []

    def enter(self, name: str) -> None:
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self, count: int = 0, failed: bool = False) -> None:
        name, start, child = self._stack.pop()
        dur = self.clock() - start
        depth = self._depth[name] - 1
        self._depth[name] = depth
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0]
        st[0] += 1
        if depth == 0:
            st[1] += dur
        st[2] += dur - child
        st[3] += count
        if self._stack:
            self._stack[-1][2] += dur
        if name == "quad":
            owner = next((f[0] for f in reversed(self._stack) if f[0] != "quad"), "")
            q = self.quad.get(owner)
            if q is None:
                q = self.quad[owner] = [0, 0, 0.0, 0]
            q[0] += 1
            q[1] += count
            if depth == 0:
                q[2] += dur
            q[3] += int(failed)

    # -- wrapping -------------------------------------------------------------

    def patch(self, owner, attr: str, name, measure=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper.

        ``name`` is a span name or a function of the call's arguments;
        ``measure(args, result)`` returns ``(count, failed)`` for the span.
        """
        original = getattr(owner, attr)
        enter, exit_ = self.enter, self.exit

        @functools.wraps(original)
        def traced(*args, **kwargs):
            enter(name(args, kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                exit_(0, True)
                raise
            exit_(*(measure(args, result) if measure else (0, False)))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every layer of the importable ``cplattice`` package."""
        cli, lattice_sum, kernels, em, specfun, asymptotics = (
            importlib.import_module(f"cplattice.{m}") for m in
            ("cli", "lattice_sum", "kernels", "euler_maclaurin", "specfun", "asymptotics"))

        def kind_span(prefix):
            return lambda a, kw: f"{prefix}.{a[1] if len(a) > 1 else kw['kind']}"

        def sites(args, result):
            return result.terms_summed, False

        def row_terms(args, result):
            return args[2] + 1, False

        def quad_evals(args, result):
            # full_output=True: (value, abserr, infodict[, message]); a
            # message means QUADPACK returned ier != 0.
            info = result[2] if len(result) > 2 and isinstance(result[2], dict) else {}
            return int(info.get("neval", 0)), len(result) > 3

        self.patch(cli, "main", "cli")
        for owner in (cli, lattice_sum):
            self.patch(owner, "sum_lattice", kind_span("lattice_sum"), sites)
        for attr in ("res_row_zz", "res_row_zx"):
            self.patch(kernels, attr, "kernels", row_terms)
        self.patch(lattice_sum, "quad", "quad", quad_evals)
        for term in _TERMS:
            self.patch(em, f"{term}_term", kind_span(f"euler_maclaurin.{term}"))
        for owner in (lattice_sum, em):
            for attr in ("pair_coupling", "scalar_coefficients"):
                self.patch(owner, attr, "greens")
        for attr in ("cosine_integral", "exp_integral_e1", "chi_minus_shi"):
            self.patch(specfun, attr, "specfun")
        for attr in ("asymptotic_shift", "full_closed_form"):
            self.patch(asymptotics, attr, "asymptotics")

    # -- summary --------------------------------------------------------------

    def _sum(self, layer: str, field: int) -> float:
        return sum(v[field] for k, v in self.stats.items()
                   if k == layer or k.startswith(layer + "."))

    def _get(self, name: str, field: int) -> float:
        st = self.stats.get(name)
        return st[field] if st else 0

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER value except trace.overhead_frac (set by the caller)."""
        m: dict[str, float] = {"cli.self_s": self._sum("cli", 2)}
        for k in _KINDS:
            m[f"lattice_sum.{k}.calls"] = self._get(f"lattice_sum.{k}", 0)
            m[f"lattice_sum.{k}.busy_s"] = self._get(f"lattice_sum.{k}", 1)
        m["lattice_sum.self_s"] = self._sum("lattice_sum", 2)
        m["lattice_sum.sites"] = self._sum("lattice_sum", 3)
        calls, busy, terms = self._get("kernels", 0), self._get("kernels", 1), self._get("kernels", 3)
        m["kernels.calls"] = calls
        m["kernels.terms"] = terms
        m["kernels.busy_s"] = busy
        m["kernels.terms_per_s"] = terms / busy if busy > 0 else 0.0
        m["kernels.s_per_call"] = busy / calls if calls else 0.0
        for t in _TERMS:
            for k in _KINDS:
                m[f"euler_maclaurin.{t}.{k}.calls"] = self._get(f"euler_maclaurin.{t}.{k}", 0)
                m[f"euler_maclaurin.{t}.{k}.busy_s"] = self._get(f"euler_maclaurin.{t}.{k}", 1)
        m["euler_maclaurin.self_s"] = self._sum("euler_maclaurin", 2)
        for s in QUAD_SPANS:
            q = self.quad.get(s, [0, 0, 0.0, 0])
            m[f"{s}.quad_calls"], m[f"{s}.quad_evals"] = q[0], q[1]
            m[f"{s}.quad_busy_s"], m[f"{s}.quad_failures"] = q[2], q[3]
        m["quad.self_s"] = self._get("quad", 2)
        for layer in ("greens", "specfun", "asymptotics"):
            m[f"{layer}.calls"] = self._get(layer, 0)
            m[f"{layer}.busy_s"] = self._get(layer, 1)
        m["greens.self_s"] = self._get("greens", 2)
        return m

    def dump(self) -> dict:
        """Every span aggregate and quad attribution, for the run report."""
        return {"spans": {k: {"calls": v[0], "busy_s": v[1], "self_s": v[2], "count": v[3]}
                          for k, v in sorted(self.stats.items())},
                "quad": {k: {"calls": v[0], "evals": v[1], "busy_s": v[2], "failures": v[3]}
                         for k, v in sorted(self.quad.items())}}
