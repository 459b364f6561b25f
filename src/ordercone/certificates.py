"""Machine-checkable evidence objects.

Every certificate embeds the cone descriptors it talks about, so
``replay()`` can re-evaluate the claimed facts from scratch against
fresh oracles.  Replay returns True only when every claimed fact
reproduces; tests and the CLI treat a False replay as a hard failure.

A certificate is a ``cones._Descriptor`` tagged by ``"kind"``, which
``certificate_from_json`` reads with the cones' field readers plus one
for interval-closure members.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cones
from .cones import (ConjugateCone, DubrovinaDubrovinCone, _Descriptor, _read,
                    compare, cone_from_json, predicate_from_json)
from .errors import UsageError, _field, _typed_field

#: (element, flag) pairs, written as {"element", "stabilizes"} objects.
_Stabilizations = tuple[tuple[object, bool], ...]


def _stabilizations_field(data, key: str) -> _Stabilizations:
    members = _typed_field(data, key, list, "a list")
    if any(type(_field(m, "stabilizes")) is not bool for m in members):
        raise UsageError(f"descriptor field {key!r} needs boolean "
                         "'stabilizes' flags")
    return tuple((_field(m, "element"), m["stabilizes"]) for m in members)


_READERS = {**cones._READERS, "_Stabilizations": _stabilizations_field}


class _Certificate(_Descriptor):
    tag_key = "kind"
    classes = {}


@dataclass(frozen=True)
class ConvexityCertificate(_Certificate, tag="convexity_pass"):
    """A passed sorted-ball check: sorted by the cone, the ball of the
    stated radius holds the subgroup's members as one contiguous block,
    so it has no f < g < h with f, h inside and g outside."""

    cone: dict
    predicate: dict
    radius: int

    def replay(self) -> bool:
        from .lospace import convexity_check
        result = convexity_check(cone_from_json(self.cone),
                                 predicate_from_json(self.predicate),
                                 self.radius)
        return isinstance(result, ConvexityCertificate)


@dataclass(frozen=True)
class ConvexityCounterexample(_Certificate, tag="convexity_counterexample"):
    """Elements f < g < h with f, h in the candidate subgroup but g outside."""

    cone: dict
    predicate: dict
    radius: int
    f: object
    g: object
    h: object

    def replay(self) -> bool:
        cone = cone_from_json(self.cone)
        predicate = predicate_from_json(self.predicate)
        f, g, h = (cone.context.element(x) for x in (self.f, self.g, self.h))
        return (predicate.contains(f) and predicate.contains(h)
                and not predicate.contains(g)
                and compare(cone, f, g) == "<" and compare(cone, g, h) == "<")


@dataclass(frozen=True)
class SemigroupWitness(_Certificate, tag="semigroup_witness"):
    """A factorization of a braid over the Dubrovina-Dubrovin generators."""

    n: int
    element: str
    witness: tuple[str, ...]

    def replay(self) -> bool:
        cone = DubrovinaDubrovinCone(self.n)
        gens = {f"y{i + 1}": g for i, g in enumerate(cone.generators())}
        target = cone.context.element(self.element)
        product = cone.context.identity()
        try:
            for name in self.witness:
                product = product * gens[name]
        except KeyError:
            return False
        return product == target and cone.sign(target) == 1


@dataclass(frozen=True)
class AccumulationWitness(_Certificate, tag="accumulation_witness"):
    """A conjugator moving the cone a small exact distance: the conjugate
    agrees with the cone through the target radius yet differs within
    the scanned resolution."""

    cone: dict
    conjugator: object
    target_radius: int
    agree_radius: int
    resolution: int

    def replay(self) -> bool:
        from .lospace import distance
        cone = cone_from_json(self.cone)
        h = cone.context.element(self.conjugator)
        result = distance(cone, ConjugateCone(cone, h), self.resolution)
        return (result.exact and result.agree_radius == self.agree_radius
                and self.agree_radius >= self.target_radius >= 0)

    def to_json(self) -> dict:
        return {**super().to_json(), "distance": f"2^-{self.agree_radius}"}


@dataclass(frozen=True)
class DensityWitness(_Certificate, tag="density_witness"):
    """A positive element strictly below a claimed least positive element."""

    cone: dict
    eps: object
    smaller_positive: object

    def replay(self) -> bool:
        cone = cone_from_json(self.cone)
        eps = cone.context.element(self.eps)
        smaller = cone.context.element(self.smaller_positive)
        return (cone.sign(smaller) == 1 and smaller != eps
                and cone.sign(smaller.inverse() * eps) == 1)


@dataclass(frozen=True)
class DiscretenessPass(_Certificate, tag="discreteness_pass"):
    """No positive element below the candidate exists in the scanned ball."""

    cone: dict
    eps: object
    radius: int

    def replay(self) -> bool:
        from .lospace import discreteness_check
        cone = cone_from_json(self.cone)
        eps = cone.context.element(self.eps)
        return isinstance(discreteness_check(cone, eps, self.radius),
                          DiscretenessPass)


@dataclass(frozen=True)
class IntervalClosureReport(_Certificate, tag="interval_closure"):
    """The ball members squeezed between powers of a positive element,
    with their cone-stabilization status at the working radius."""

    cone: dict
    element: object
    radius: int
    k_max: int
    members: _Stabilizations
    all_stabilize: bool

    def replay(self) -> bool:
        from .lospace import interval_closure
        cone = cone_from_json(self.cone)
        g = cone.context.element(self.element)
        fresh = interval_closure(cone, g, self.radius, self.k_max)
        return (fresh.members == self.members
                and fresh.all_stabilize == self.all_stabilize)

    def to_json(self) -> dict:
        return {**super().to_json(),
                "members": [{"element": e, "stabilizes": s}
                            for e, s in self.members]}


def certificate_from_json(data: dict):
    """The certificate a ``to_json`` descriptor names, read by
    ``cones._read``; keys beyond its fields are ignored."""
    return _read(data, _Certificate, "certificate kind", _READERS)
