"""Machine-checkable evidence objects.

Every certificate embeds the cone descriptors it talks about, so
``replay()`` can re-evaluate the claimed facts from scratch against
fresh oracles.  Replay returns True only when every claimed fact
reproduces; tests and the CLI treat a False replay as a hard failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import UsageError, _field, _int_field


def _cone(cone_json: dict):
    from .cones import cone_from_json
    return cone_from_json(cone_json)


@dataclass(frozen=True)
class ConvexityCertificate:
    """A passed sorted-ball check: sorted by the cone, the ball of the
    stated radius holds the subgroup's members as one contiguous block,
    so it has no f < g < h with f, h inside and g outside."""

    cone_json: dict
    predicate_json: dict
    radius: int

    def replay(self) -> bool:
        from .lospace import convexity_check
        from .cones import predicate_from_json
        result = convexity_check(_cone(self.cone_json),
                                 predicate_from_json(self.predicate_json),
                                 self.radius)
        return isinstance(result, ConvexityCertificate)

    def to_json(self) -> dict:
        return {"kind": "convexity_pass", "cone": self.cone_json,
                "predicate": self.predicate_json, "radius": self.radius}


@dataclass(frozen=True)
class ConvexityCounterexample:
    """Elements f < g < h with f, h in the candidate subgroup but g outside."""

    cone_json: dict
    predicate_json: dict
    radius: int
    f: object
    g: object
    h: object

    def replay(self) -> bool:
        from .cones import compare, predicate_from_json
        cone = _cone(self.cone_json)
        predicate = predicate_from_json(self.predicate_json)
        f, g, h = (cone.context.element(x) for x in (self.f, self.g, self.h))
        return (predicate.contains(f) and predicate.contains(h)
                and not predicate.contains(g)
                and compare(cone, f, g) == "<" and compare(cone, g, h) == "<")

    def to_json(self) -> dict:
        return {"kind": "convexity_counterexample", "cone": self.cone_json,
                "predicate": self.predicate_json, "radius": self.radius,
                "f": self.f, "g": self.g, "h": self.h}


@dataclass(frozen=True)
class SemigroupWitness:
    """A factorization of a braid over the Dubrovina-Dubrovin generators."""

    n: int
    element: str
    factors: tuple[str, ...]

    def replay(self) -> bool:
        from .cones import DubrovinaDubrovinCone
        cone = DubrovinaDubrovinCone(self.n)
        gens = {f"y{i + 1}": g for i, g in enumerate(cone.generators())}
        target = cone.context.element(self.element)
        product = cone.context.identity()
        try:
            for name in self.factors:
                product = product * gens[name]
        except KeyError:
            return False
        return product == target and cone.sign(target) == 1

    def to_json(self) -> dict:
        return {"kind": "semigroup_witness", "n": self.n,
                "element": self.element, "witness": list(self.factors)}


@dataclass(frozen=True)
class AccumulationWitness:
    """A conjugator moving the cone a small exact distance: the conjugate
    agrees with the cone through the target radius yet differs within
    the scanned resolution."""

    cone_json: dict
    conjugator: object
    target_radius: int
    agree_radius: int
    resolution: int

    def replay(self) -> bool:
        from .cones import ConjugateCone
        from .lospace import distance
        cone = _cone(self.cone_json)
        h = cone.context.element(self.conjugator)
        result = distance(cone, ConjugateCone(cone, h), self.resolution)
        return (result.exact and result.agree_radius == self.agree_radius
                and self.agree_radius >= self.target_radius >= 0)

    def to_json(self) -> dict:
        return {"kind": "accumulation_witness", "cone": self.cone_json,
                "conjugator": self.conjugator,
                "target_radius": self.target_radius,
                "agree_radius": self.agree_radius,
                "distance": f"2^-{self.agree_radius}",
                "resolution": self.resolution}


@dataclass(frozen=True)
class DensityWitness:
    """A positive element strictly below a claimed least positive element."""

    cone_json: dict
    eps: object
    smaller_positive: object

    def replay(self) -> bool:
        cone = _cone(self.cone_json)
        eps = cone.context.element(self.eps)
        smaller = cone.context.element(self.smaller_positive)
        return (cone.sign(smaller) == 1 and smaller != eps
                and cone.sign(smaller.inverse() * eps) == 1)

    def to_json(self) -> dict:
        return {"kind": "density_witness", "cone": self.cone_json,
                "eps": self.eps, "smaller_positive": self.smaller_positive}


@dataclass(frozen=True)
class DiscretenessPass:
    """No positive element below the candidate exists in the scanned ball."""

    cone_json: dict
    eps: object
    radius: int

    def replay(self) -> bool:
        from .lospace import discreteness_check
        cone = _cone(self.cone_json)
        eps = cone.context.element(self.eps)
        return isinstance(discreteness_check(cone, eps, self.radius),
                          DiscretenessPass)

    def to_json(self) -> dict:
        return {"kind": "discreteness_pass", "cone": self.cone_json,
                "eps": self.eps, "radius": self.radius}


@dataclass(frozen=True)
class IntervalClosureReport:
    """The ball members squeezed between powers of a positive element,
    with their cone-stabilization status at the working radius."""

    cone_json: dict
    element: object
    radius: int
    k_max: int
    members: tuple[tuple[object, bool], ...]
    all_stabilize: bool

    def replay(self) -> bool:
        from .lospace import interval_closure
        cone = _cone(self.cone_json)
        g = cone.context.element(self.element)
        fresh = interval_closure(cone, g, self.radius, self.k_max)
        return (fresh.members == self.members
                and fresh.all_stabilize == self.all_stabilize)

    def to_json(self) -> dict:
        return {"kind": "interval_closure", "cone": self.cone_json,
                "element": self.element, "radius": self.radius,
                "k_max": self.k_max,
                "members": [{"element": e, "stabilizes": s}
                            for e, s in self.members],
                "all_stabilize": self.all_stabilize}


def certificate_from_json(data: dict):
    field, int_field = partial(_field, data), partial(_int_field, data)
    kind = field("kind")
    if kind == "convexity_pass":
        return ConvexityCertificate(field("cone"), field("predicate"),
                                    int_field("radius"))
    if kind == "convexity_counterexample":
        return ConvexityCounterexample(field("cone"), field("predicate"),
                                       int_field("radius"),
                                       field("f"), field("g"), field("h"))
    if kind == "semigroup_witness":
        if not isinstance(field("witness"), list):
            raise UsageError("semigroup witness must be a list of factors")
        return SemigroupWitness(int_field("n"), field("element"),
                                tuple(field("witness")))
    if kind == "accumulation_witness":
        return AccumulationWitness(field("cone"), field("conjugator"),
                                   int_field("target_radius"),
                                   int_field("agree_radius"),
                                   int_field("resolution"))
    if kind == "density_witness":
        return DensityWitness(field("cone"), field("eps"),
                              field("smaller_positive"))
    if kind == "discreteness_pass":
        return DiscretenessPass(field("cone"), field("eps"),
                                int_field("radius"))
    if kind == "interval_closure":
        members, closed = field("members"), field("all_stabilize")
        if not isinstance(members, list) or type(closed) is not bool or any(
                type(_field(m, "stabilizes")) is not bool for m in members):
            raise UsageError("malformed interval_closure members or flags")
        members = tuple((_field(m, "element"), m["stabilizes"]) for m in members)
        return IntervalClosureReport(field("cone"), field("element"),
                                     int_field("radius"), int_field("k_max"),
                                     members, closed)
    raise UsageError(f"unknown certificate kind {kind!r}")
