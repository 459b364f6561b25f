"""Spans around the public functions at each layer boundary of ordercone.

The library is measured from outside: ``install`` replaces each traced
function at every name it is reachable through (its module attribute,
every ``from .x import name`` binding in the other modules, the package
export), and each class method on its defining class.  A replaced
function opens a span, calls the original and closes the span, so
nothing in ``src/`` changes.

Spans of the coarse operations (CLI commands, census, scans, balls,
certificate replays, and the benchmark's own per-operation root span)
are kept one by one as (id, name, start, end, parent id).  The fine,
hot calls (cone and lattice signs, reduction, fingerprints, equality,
multiplication, integer linear algebra) are aggregated per (nearest
kept ancestor, name), so memory stays bounded however many there are.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
from time import perf_counter

# Traced functions: (metric name, module, attribute), with the class
# name first in the attribute for methods.  ``fine`` marks the
# aggregated hot calls.
TARGETS = [
    ("braids.main_sign", "braids", "main_sign", True),
    ("braids.handle_reduce", "braids", "handle_reduce", True),
    ("braids.fingerprint", "braids", "fingerprint", True),
    ("braids.braid_equal", "braids", "braid_equal", True),
    ("groups.ball", "groups", "ball", False),
    ("groups.product_triples", "groups", "Ball.product_triples", False),
    ("groups.multiply", "groups", "multiply", True),
    ("groups.eq", "groups", "GroupElement.__eq__", True),
    ("cones.sign", "cones", "ConeOracle.sign", True),
    ("lospace.census", "lospace", "census", False),
    ("lospace.validate", "lospace", "SignVector.validate", False),
    ("lospace.convexity_check", "lospace", "convexity_check", False),
    ("lospace.order_property_scan", "lospace", "order_property_scan", False),
    ("lospace.accumulation_scan", "lospace", "accumulation_scan", False),
    ("lospace.dd_isolation_witnesses", "lospace", "dd_isolation_witnesses",
     False),
    ("lospace.distance", "lospace", "distance", False),
    ("lattices.sign", "lattices", "LexConeSpec.sign", True),
    ("lattices.classify_density", "lattices", "classify_density", False),
    ("lattices.least_positive_in_ball", "lattices", "least_positive_in_ball",
     False),
    ("lattices.perturb_dense", "lattices", "perturb_dense", False),
    ("intlinalg", "intlinalg", "kernel_basis", True),
    ("intlinalg", "intlinalg", "rational_rank", True),
    ("intlinalg", "intlinalg", "smith_with_transforms", True),
    ("intlinalg", "intlinalg", "solve_in_row_span", True),
    ("cli.report_emit", "cli", "report_emit", False),
    ("cli.main", "cli", "main", False),
]

CERTIFICATE_CLASSES = ("ConvexityCertificate", "ConvexityCounterexample",
                       "SemigroupWitness", "AccumulationWitness",
                       "DensityWitness", "DiscretenessPass",
                       "IntervalClosureReport")

CONE_CLASSES = ("DehornoyCone", "DubrovinaDubrovinCone", "KleinTararinCone",
                "LatticeCone", "ConjugateCone", "FlipCone", "ReplaceCone",
                "LexExtensionCone")


class Tracer:
    """Span stack, per-name call counts and self times, extra counters.

    ``active`` gates every wrapper, so checks run between traced passes
    cost nothing and count nothing.
    """

    def __init__(self):
        self.active = False
        self.keep_spans = True
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.aggregated: dict[tuple, list] = {}
        self.next_id = 0

    def shift(self, seconds: float) -> None:
        """Leave a pause out of every open span, as if it never happened."""
        for frame in self.stack:
            frame[1] += seconds

    def bump(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0))[0]

    def enter(self, name: str, fine: bool) -> list:
        parent = self.stack[-1][4] if self.stack else None
        span_id = None
        if not fine and self.keep_spans:
            span_id = self.next_id
            self.next_id += 1
        frame = [name, perf_counter(), 0.0, span_id,
                 span_id if span_id is not None else parent, parent]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = perf_counter()
        self.stack.pop()
        name, start, child, span_id, _, parent = frame
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0]
        stat[0] += 1
        stat[1] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if span_id is not None:
            self.spans.append((span_id, name, start, end, parent))
        elif self.keep_spans:
            agg = self.aggregated.get((parent, name))
            if agg is None:
                agg = self.aggregated[(parent, name)] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - child

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a kept span (the benchmark's root spans)."""
        if not self.active:
            return fn(*args, **kwargs)
        frame = self.enter(name, False)
        try:
            return fn(*args, **kwargs)
        finally:
            self.leave(frame)

    def dump(self) -> dict:
        """Kept spans as [id, name, start, end, parent] and aggregated
        calls as [parent, name, calls, seconds, self seconds]."""
        return {"spans": [list(s) for s in self.spans],
                "aggregated": [[parent, name] + values for (parent, name),
                               values in self.aggregated.items()]}


def _wrap(tracer: Tracer, name: str, fn, fine: bool, before=None, after=None):
    """A stand-in for ``fn`` that records a span named ``name``.

    ``before(args)`` runs before the call and its value is handed to
    ``after(state, args, result, raised)`` once the span is closed.
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        state = before(args) if before else None
        frame = tracer.enter(name, fine)
        raised = True
        result = None
        try:
            result = fn(*args, **kwargs)
            raised = False
            return result
        finally:
            tracer.leave(frame)
            if after:
                after(state, args, result, raised)

    return traced


def _hooks(tracer: Tracer, lib):
    """Per-target counters measured where the work happens."""
    braids, groups = lib.braids, lib.groups
    bump = tracer.bump

    def reduce_before(args):
        return len(braids._reduce_cache)

    def reduce_after(size, args, result, raised):
        entries = len(braids._reduce_cache)
        if not raised and entries == size:
            bump("braids.handle_reduce.hits")
        key = "braids.reduce_cache.entries_max"
        tracer.counts[key] = max(tracer.counts.get(key, 0), entries)

    def equal_before(args):
        return tracer.calls("braids.handle_reduce")

    def equal_after(reductions, args, result, raised):
        if not raised and result is False and \
                tracer.calls("braids.handle_reduce") == reductions:
            bump("braids.braid_equal.filtered")

    def ball_before(args):
        return len(args) >= 2 and (args[0], args[1]) in groups._ball_cache

    def ball_after(hit, args, result, raised):
        if raised:
            return
        if hit:
            bump("groups.ball.hits")
        else:
            bump("groups.ball.elements", len(result))

    def triples_before(args):
        return args[0]._triples is None

    def triples_after(miss, args, result, raised):
        if miss and not raised:
            bump("groups.product_triples.pairs", len(args[0]) ** 2)
            bump("groups.product_triples.triples", len(result))

    def eq_after(state, args, result, raised):
        if result is True:
            bump("groups.eq.true")

    def sign_before(args):
        bump("cones.sign.calls." + type(args[0]).__name__)
        if tracer.counts.get("scope.convexity_check"):
            bump("lospace.convexity_check.sign_calls")

    def convexity_before(args):
        bump("scope.convexity_check")

    def convexity_after(state, args, result, raised):
        bump("scope.convexity_check", -1)

    def census_after(state, args, result, raised):
        if not raised:
            bump("lospace.census.vectors", len(result))

    def perturb_after(state, args, result, raised):
        if not raised:
            bump("lattices.perturb_dense.successes")

    def emit_after(state, args, result, raised):
        if not raised:
            bump("cli.report_emit.bytes", len(result))

    return {
        "braids.handle_reduce": (reduce_before, reduce_after),
        "braids.braid_equal": (equal_before, equal_after),
        "groups.ball": (ball_before, ball_after),
        "groups.product_triples": (triples_before, triples_after),
        "groups.eq": (None, eq_after),
        "cones.sign": (sign_before, None),
        "lospace.convexity_check": (convexity_before, convexity_after),
        "lospace.census": (None, census_after),
        "lattices.perturb_dense": (None, perturb_after),
        "cli.report_emit": (None, emit_after),
    }


def install(tracer: Tracer, lib) -> int:
    """Replace every traced function at all its names; returns how many
    names were rebound."""
    modules = [getattr(lib, m) for m in lib.MODULES]
    hooks = _hooks(tracer, lib)
    targets = list(TARGETS) + [
        ("certificates.replay", "certificates", f"{cls}.replay", False)
        for cls in CERTIFICATE_CLASSES]
    rebound = 0
    for name, module_name, attr, fine in targets:
        module = getattr(lib, module_name)
        before, after = hooks.get(name, (None, None))
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[method]
            setattr(owner, method,
                    _wrap(tracer, name, original, fine, before, after))
            rebound += 1
            continue
        original = getattr(module, attr)
        wrapper = _wrap(tracer, name, original, fine, before, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    rebound += 1
    _check_no_overrides(lib)
    return rebound


def _check_no_overrides(lib) -> None:
    """A subclass overriding a traced method would escape its span."""
    for cls_name in CONE_CLASSES:
        cls = getattr(lib.cones, cls_name)
        if "sign" in cls.__dict__:
            raise RuntimeError(f"{cls_name} overrides sign; trace it too")


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    stats, counts = tracer.stats, tracer.counts

    def calls(name):
        return stats.get(name, (0, 0.0))[0]

    def self_s(name):
        return stats.get(name, (0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    reduce_calls = calls("braids.handle_reduce")
    m["braids.handle_reduce.calls"] = reduce_calls
    m["braids.handle_reduce.self_s"] = self_s("braids.handle_reduce")
    m["braids.handle_reduce.hit_ratio"] = ratio(
        counts.get("braids.handle_reduce.hits", 0), reduce_calls)
    m["braids.reduce_cache.entries"] = counts.get(
        "braids.reduce_cache.entries_max", 0)
    m["braids.fingerprint.calls"] = calls("braids.fingerprint")
    m["braids.fingerprint.self_s"] = self_s("braids.fingerprint")
    equal_calls = calls("braids.braid_equal")
    m["braids.braid_equal.calls"] = equal_calls
    m["braids.braid_equal.self_s"] = self_s("braids.braid_equal")
    m["braids.braid_equal.filtered_ratio"] = ratio(
        counts.get("braids.braid_equal.filtered", 0), equal_calls)
    ball_calls = calls("groups.ball")
    m["groups.ball.calls"] = ball_calls
    m["groups.ball.self_s"] = self_s("groups.ball")
    m["groups.ball.elements"] = counts.get("groups.ball.elements", 0)
    m["groups.ball.hit_ratio"] = ratio(counts.get("groups.ball.hits", 0),
                                       ball_calls)
    m["groups.product_triples.self_s"] = self_s("groups.product_triples")
    m["groups.product_triples.pairs"] = counts.get(
        "groups.product_triples.pairs", 0)
    m["groups.product_triples.triples"] = counts.get(
        "groups.product_triples.triples", 0)
    m["groups.multiply.calls"] = calls("groups.multiply")
    eq_calls = calls("groups.eq")
    m["groups.eq.calls"] = eq_calls
    m["groups.eq.true_ratio"] = ratio(counts.get("groups.eq.true", 0),
                                      eq_calls)
    for cls in CONE_CLASSES:
        m[f"cones.sign.calls.{cls}"] = counts.get(f"cones.sign.calls.{cls}", 0)
    m["cones.sign.self_s"] = self_s("cones.sign")
    m["lospace.census.self_s"] = self_s("lospace.census")
    m["lospace.census.vectors"] = counts.get("lospace.census.vectors", 0)
    m["lospace.validate.self_s"] = self_s("lospace.validate")
    m["lospace.convexity_check.self_s"] = self_s("lospace.convexity_check")
    m["lospace.convexity_check.sign_calls"] = counts.get(
        "lospace.convexity_check.sign_calls", 0)
    for name in ("order_property_scan", "accumulation_scan",
                 "dd_isolation_witnesses"):
        m[f"lospace.{name}.self_s"] = self_s(f"lospace.{name}")
    m["lospace.distance.calls"] = calls("lospace.distance")
    m["lospace.distance.self_s"] = self_s("lospace.distance")
    m["lattices.sign.calls"] = calls("lattices.sign")
    m["lattices.sign.self_s"] = self_s("lattices.sign")
    m["lattices.classify_density.self_s"] = self_s("lattices.classify_density")
    m["lattices.least_positive_in_ball.self_s"] = self_s(
        "lattices.least_positive_in_ball")
    perturb_calls = calls("lattices.perturb_dense")
    m["lattices.perturb_dense.calls"] = perturb_calls
    m["lattices.perturb_dense.self_s"] = self_s("lattices.perturb_dense")
    m["lattices.perturb_dense.success_ratio"] = ratio(
        counts.get("lattices.perturb_dense.successes", 0), perturb_calls)
    m["intlinalg.calls"] = calls("intlinalg")
    m["intlinalg.self_s"] = self_s("intlinalg")
    m["certificates.replay.calls"] = calls("certificates.replay")
    m["certificates.replay.self_s"] = self_s("certificates.replay")
    m["cli.report_emit.self_s"] = self_s("cli.report_emit")
    m["cli.report_emit.bytes"] = counts.get("cli.report_emit.bytes", 0)
    m["cli.main.self_s"] = self_s("cli.main")
    return m
