"""Per-layer spans and counts, recorded from outside the package.

``Tracer.install`` replaces every public function of each layer module, and
the public methods and arithmetic operators of its classes, with a wrapper
that times the call.  A function imported into another module (for example
``identities.rc_bracket``) is replaced there too, so every call crosses a
wrapper.  Spans are not kept one by one: with millions of calls they are
summed in memory per (caller layer, callee layer) as count, total time and
self time, where self time is a span's time minus that of its child spans.
Reported self times also leave out the wrappers' own cost, which
``calibrate`` measures before the wrappers go in.

``Fraction.__new__`` is only counted, not timed, so the time of exact
arithmetic stays with the layer that does it.  Cache sizes and hit counts
come from ``cache_info()`` on the package's eight ``lru_cache``s.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from fractions import Fraction

LAYERS = (
    "rationals",
    "poly",
    "hypergeom",
    "brackets",
    "transition",
    "verma",
    "star",
    "rewrite",
    "identities",
    "cli",
    "report",
)

# methods kept although their names start with an underscore
OPERATORS = ("__init__", "__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__pow__")

SUITES = ("main", "reverse", "eholzer", "operator", "classical", "cmz", "zagier", "convolution")
U_MATRIX_SIZES = (8, 16, 32, 48)
REWRITE_GROUPS = ("left", "descending")


def unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("self_s") or "_s." in name:
        return "s"
    if name.endswith(("ratio", "share", "per_defect", "per_output_term")):
        return "1"
    if name.endswith("bytes"):
        return "B"
    return "count"


def _series_terms(spec) -> int:
    """Terms summed by a terminating series: its termination index plus one."""
    return min(-int(a) for a in spec.top if a.denominator == 1 and a <= 0) + 1


class Tracer:
    """Aggregated spans and counters for one traced round."""

    def __init__(self) -> None:
        self.stack: list[list] = [["bench", 0.0]]
        self.edges: dict[tuple[str, str], list] = {}
        self.calls: dict[tuple[str, str], int] = {}
        self.fractions: dict[str, int] = {}
        self.cost = {"inside": 0.0, "outside": 0.0, "fraction": 0.0}
        self.sums: dict[str, float] = {}
        self.caches: dict[str, object] = {}

    # -- recording ----------------------------------------------------------

    def add(self, name: str, amount: float) -> None:
        self.sums[name] = self.sums.get(name, 0) + amount

    def _span(self, fn, layer: str, key: str, after=None):
        stack, edges, calls, clock = self.stack, self.edges, self.calls, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = stack[-1]
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                caller[1] += elapsed
                edge = edges.get((caller[0], layer))
                if edge is None:
                    edge = edges[(caller[0], layer)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += elapsed - frame[1]
                count_key = (caller[0], key)
                calls[count_key] = calls.get(count_key, 0) + 1
            if after is not None:
                after(args, kwargs, result, elapsed)
            return result

        return wrapper

    # -- hooks for the metrics that need arguments or results -------------------

    def _after_hooks(self) -> dict:
        def mul(args, kwargs, result, elapsed):
            if isinstance(args[1], type(args[0])):
                self.add("poly.mul.term_products", len(args[0].terms) * len(args[1].terms))

        def series(args, kwargs, result, elapsed):
            self.add("hypergeom.series_terms", _series_terms(args[0]))

        def bracket(args, kwargs, result, elapsed):
            f, g = args[0], args[1]
            if len(f.form.terms) <= 1 and len(g.form.terms) <= 1:
                self.add("brackets.rc_bracket.monomial", 1)

        def u_matrix(args, kwargs, result, elapsed):
            self.add(f"transition.u_matrix_s.n{len(result) - 1}", elapsed)

        def to_standard(args, kwargs, result, elapsed):
            self.add("rewrite.output_terms", len(result))

        def run_suite(args, kwargs, result, elapsed):
            name = args[0] if args else kwargs["name"]
            if name != "all":
                self.add(f"identities.suite_s.{name}", elapsed)
                self.add("identities.instances_checked", sum(r.instances_checked for r in result))

        return {
            "poly.Poly.__mul__": mul,
            "hypergeom.hyp_terminating_at_one": series,
            "hypergeom.hyp_terminating_poly": series,
            "brackets.rc_bracket": bracket,
            "transition.u_matrix": u_matrix,
            "rewrite.to_standard": to_standard,
            "identities.run_suite": run_suite,
        }

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers' public callables everywhere the package refers to them."""
        hooks = self._after_hooks()
        modules = {layer: importlib.import_module(f"rcbrackets.{layer}") for layer in LAYERS}
        package = importlib.import_module("rcbrackets")
        replaced: dict[int, tuple] = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    if not issubclass(obj, BaseException):
                        self._wrap_class(obj, layer, hooks)
                    continue
                target = getattr(obj, "__wrapped__", obj)
                if callable(obj) and getattr(target, "__module__", None) == module.__name__:
                    key = f"{layer}.{name}"
                    if hasattr(obj, "cache_info"):
                        self.caches[key] = obj
                    replaced[id(obj)] = (obj, self._span(obj, layer, key, hooks.get(key)))
        for module in list(modules.values()) + [package]:
            for name, obj in list(vars(module).items()):
                entry = replaced.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, name, entry[1])
        for layer in ("rationals", "brackets", "transition"):
            for name, obj in vars(modules[layer]).items():
                if name.startswith("_") and hasattr(obj, "cache_info"):
                    self.caches[f"{layer}.{name}"] = obj
        self._count_fractions()

    def _wrap_class(self, cls, layer: str, hooks: dict) -> None:
        wrapped: dict[int, object] = {}
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in OPERATORS:
                continue
            kind = None
            fn = raw
            if isinstance(raw, (classmethod, staticmethod)):
                kind, fn = type(raw), raw.__func__
            if not inspect.isfunction(fn):
                continue
            if id(fn) not in wrapped:
                key = f"{layer}.{cls.__name__}.{fn.__name__}"
                wrapped[id(fn)] = self._span(fn, layer, key, hooks.get(key))
            new = wrapped[id(fn)]
            setattr(cls, name, kind(new) if kind else new)
        # aliases such as __radd__ = __add__ share the wrapper of their target
        for name, raw in list(vars(cls).items()):
            if inspect.isfunction(raw) and id(raw) in wrapped:
                setattr(cls, name, wrapped[id(raw)])

    def _count_fractions(self) -> None:
        original = Fraction.__new__
        stack, fractions = self.stack, self.fractions

        def counting_new(cls, *args, **kwargs):
            layer = stack[-1][0]
            fractions[layer] = fractions.get(layer, 0) + 1
            return original(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting_new)

    def calibrate(self, calls: int = 20000, repeats: int = 5) -> None:
        """Measure what a wrapper adds to each call, so self times can omit it.

        ``inside`` is the part within the interval a span times, charged to
        the callee; ``outside`` is the rest, charged to the caller; and
        ``fraction`` is what counting adds to each ``Fraction`` built.  Call
        before ``install``; each cost is the least seen over the repeats.
        """
        probe = Tracer()

        def noop():
            return None

        wrapped = probe._span(noop, "probe", "probe")
        clock = time.perf_counter
        inside = outside = fraction = float("inf")
        for _ in range(repeats):
            start = clock()
            for _ in range(calls):
                noop()
            raw = clock() - start
            probe.edges.clear()
            start = clock()
            for _ in range(calls):
                wrapped()
            total = clock() - start
            timed = probe.edges[("bench", "probe")][1]
            inside = min(inside, max(timed - raw, 0.0) / calls)
            outside = min(outside, max(total - timed, 0.0) / calls)
            start = clock()
            for _ in range(calls):
                Fraction(3, 4)
            raw = clock() - start
            saved = Fraction.__new__
            probe._count_fractions()
            try:
                start = clock()
                for _ in range(calls):
                    Fraction(3, 4)
                counted = clock() - start
            finally:
                Fraction.__new__ = staticmethod(saved)
            fraction = min(fraction, max(counted - raw, 0.0) / calls)
        self.cost = {"inside": inside, "outside": outside, "fraction": fraction}

    # -- read-out --------------------------------------------------------------

    def count(self, *keys: str, caller: str | None = None) -> int:
        return sum(
            n
            for (who, key), n in self.calls.items()
            if key in keys and (caller is None or who == caller)
        )

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer, less the calibrated cost of the tracing itself."""
        out = {layer: 0.0 for layer in LAYERS}
        for (caller, callee), (n, _, self_s) in self.edges.items():
            out[callee] += self_s - n * self.cost["inside"]
            if caller in out:
                out[caller] -= n * self.cost["outside"]
        for layer, n in self.fractions.items():
            if layer in out:
                out[layer] -= n * self.cost["fraction"]
        return {layer: max(seconds, 0.0) for layer, seconds in out.items()}

    def _cache(self, *names: str) -> tuple[float, int]:
        hits = misses = size = 0
        for name in names:
            info = self.caches[name].cache_info()
            hits, misses, size = hits + info.hits, misses + info.misses, size + info.currsize
        return (hits / (hits + misses) if hits + misses else 0.0), size

    def metrics(self, output_bytes: int, group_seconds: dict[str, float]) -> dict[str, float]:
        """The per-layer metrics, by name; read before any output check runs."""
        c, s = self.count, self.sums.get
        selfs = self.self_seconds()
        rational_hits, rational_entries = self._cache(
            "rationals.factorial", "rationals._pochhammer_cached", "rationals._binom_cached"
        )
        monomial_hits, monomial_entries = self._cache("brackets._monomial_bracket")
        u_hits, u_entries = self._cache("transition._u_cached")
        brackets_n = c("brackets.rc_bracket")
        defects = c("star.assoc_defect")
        output_terms = s("rewrite.output_terms", 0)
        u_from_rewrite = c("transition.u_coefficient", "transition.u_reverse", caller="rewrite")
        out = {
            "rationals.fraction_new.count": sum(self.fractions.values()),
            "rationals.as_rational.count": c("rationals.as_rational"),
            "rationals.pochhammer.count": c("rationals.pochhammer"),
            "rationals.binom.count": c("rationals.binom_general"),
            "rationals.self_s": selfs["rationals"],
            "rationals.cache_hit_ratio": rational_hits,
            "rationals.cache_entries": rational_entries,
            "poly.init.count": c("poly.Poly.__init__"),
            "poly.canonical_vars.count": c("poly.canonical_vars"),
            "poly.lift.count": c("poly.Poly.lift"),
            "poly.add.count": c("poly.Poly.__add__"),
            "poly.mul.count": c("poly.Poly.__mul__"),
            "poly.mul.term_products": s("poly.mul.term_products", 0),
            "poly.diff.count": c("poly.Poly.diff"),
            "poly.subst.count": c("poly.Poly.subst"),
            "poly.self_s": selfs["poly"],
            "hypergeom.racah_value.count": c("hypergeom.racah_value"),
            "hypergeom.series_terms": s("hypergeom.series_terms", 0),
            "hypergeom.jacobi_two_var.count": c("hypergeom.jacobi_two_var"),
            "hypergeom.self_s": selfs["hypergeom"],
            "brackets.rc_bracket.count": brackets_n,
            "brackets.rc_bracket.monomial_share": (
                s("brackets.rc_bracket.monomial", 0) / brackets_n if brackets_n else 0.0
            ),
            "brackets.weighted_form.count": c("brackets.WeightedForm.__init__"),
            "brackets.monomial_cache_hit_ratio": monomial_hits,
            "brackets.monomial_cache_entries": monomial_entries,
            "brackets.node.count": c("brackets.Node.__init__"),
            "brackets.self_s": selfs["brackets"],
            "transition.u_coefficient.count": c("transition.u_coefficient"),
            "transition.u_reverse.count": c("transition.u_reverse"),
            "transition.u_cache_hit_ratio": u_hits,
            "transition.u_cache_entries": u_entries,
        }
        for n in U_MATRIX_SIZES:
            out[f"transition.u_matrix_s.n{n}"] = s(f"transition.u_matrix_s.n{n}", 0.0)
        out.update(
            {
                "transition.cmz.count": c("transition.cmz_t_sum", "transition.cmz_t_closed"),
                "transition.self_s": selfs["transition"],
                "verma.intertwiner.count": c("verma.intertwiner_phi_tilde"),
                "verma.self_s": selfs["verma"],
                "star.star.count": c("star.star"),
                "star.assoc_defect.count": defects,
                "star.rc_bracket_per_defect": (
                    c("brackets.rc_bracket", caller="star") / defects if defects else 0.0
                ),
                "star.self_s": selfs["star"],
                "rewrite.to_standard.count": c("rewrite.to_standard"),
                "rewrite.output_terms": output_terms,
                "rewrite.u_calls_per_output_term": (
                    u_from_rewrite / output_terms if output_terms else 0.0
                ),
            }
        )
        for group in REWRITE_GROUPS:
            out[f"rewrite.shape_s.{group}"] = group_seconds.get(group, 0.0)
        out["rewrite.self_s"] = selfs["rewrite"]
        for suite in SUITES:
            out[f"identities.suite_s.{suite}"] = s(f"identities.suite_s.{suite}", 0.0)
        out["identities.instances_checked"] = s("identities.instances_checked", 0)
        out["identities.self_s"] = selfs["identities"]
        out["cli.self_s"] = selfs["cli"]
        out["cli.output_bytes"] = output_bytes
        out["report.self_s"] = selfs["report"]
        return out

    def layer_table(self) -> list[dict]:
        """Per (caller, callee) layer pair: calls, total and self seconds."""
        return [
            {"caller": caller, "callee": callee, "calls": n, "total_s": total, "self_s": own}
            for (caller, callee), (n, total, own) in sorted(
                self.edges.items(), key=lambda item: -item[1][2]
            )
        ]
