"""Positive-cone oracles and convex-subgroup predicates.

A cone oracle is a total sign function on one of the supported groups
satisfying the positive-cone axioms: the identity gets 0 and nothing
else does, inversion negates the sign, and positives are closed under
products.  Base cones are the Dehornoy and Dubrovina-Dubrovin braid
cones, the four Klein-bottle orders, and lattice lex cones; derived
cones are conjugates, flips and replacements on certified convex
subgroups, and lexicographic extensions over a normal convex subgroup.

Oracles are immutable value objects; evaluation is pure.  Each is a
``_Descriptor``, its tag and fields in JSON, which ``cone_from_json`` or
``predicate_from_json`` reads back into an oracle that replays
identically (flip and replace certify convexity on construction).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from . import intlinalg
from .braids import handle_reduce, main_sign
from .errors import (CertificateError, ContextMismatchError, UsageError,
                     _field, _int_at_least, _int_field, _typed_field)
from .groups import GroupContext, GroupElement
from .lattices import LexConeSpec

_SIGN_TEXT = {1: "+", 0: "0", -1: "-"}

#: An orientation, written "+" or "-" in JSON.
_Sign = int


def sign_text(s: int) -> str:
    return _SIGN_TEXT[s]


def _sign_field(data, key: str) -> int:
    text = _field(data, key)
    if text not in ("+", "-"):
        raise UsageError(f"descriptor field {key!r} must be '+' or '-'")
    return 1 if text == "+" else -1


class _Descriptor:
    """A frozen dataclass that is its own JSON descriptor.

    ``to_json`` writes the ``tag`` named in the class statement, as in
    ``class DehornoyCone(ConeOracle, tag="dehornoy")``, under ``tag_key``
    ("type" for cones and predicates, "kind" for certificates), then every
    dataclass field under its own name: nested values by their ``to_json``,
    tuples as lists.  ``_read`` builds the class back from such a
    descriptor.  A class overrides ``to_json`` only where a field has its
    own text.  Each family base (``ConvexPredicate``, ``ConeOracle``,
    ``certificates._Certificate``) holds a ``classes`` dict, and a class
    statement with a tag registers the class there under it.
    """

    tag_key = "type"
    tag: str
    classes: dict[str, type]

    def __init_subclass__(cls, tag: str = "") -> None:
        cls.tag = tag  # empty on the family bases
        if tag:
            cls.classes[tag] = cls

    def to_json(self) -> dict:
        data = {self.tag_key: self.tag}
        for f in fields(self):
            data[f.name] = _json(getattr(self, f.name))
        return data


def _json(value):
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    return value.to_json() if hasattr(value, "to_json") else value


def _read(data, family: type[_Descriptor], noun: str, readers: dict):
    """The descriptor's class, looked up by its tag in ``family.classes``,
    built from its fields in declaration order.  Each field is read by
    its annotation through ``readers``; any other annotation reads the
    raw JSON value, which the class's constructor checks."""
    tag = _field(data, family.tag_key)
    if not isinstance(tag, str) or tag not in family.classes:
        raise UsageError(f"unknown {noun} {tag!r}")
    cls = family.classes[tag]
    return cls(*(readers.get(f.type, _field)(data, f.name)
                 for f in fields(cls)))


# ---------------------------------------------------------------------------
# Convex-subgroup predicates


class ConvexPredicate(_Descriptor):
    """A subgroup used as a convexity candidate, deciding one fact:
    ``_coordinates(g)``, a member's coordinates in ``subgroup_context()``
    or None for a non-member, from which ``contains`` and ``project``
    follow.  ``BraidShiftPredicate`` keeps its own ``contains``, a key read
    that reduces no word; ``LatticeSublatticePredicate`` keeps its own, as
    the trivial sublattice has members but no coordinate group.  Convexity
    for a cone is certified by the sorted-ball check in ``lospace``.
    """

    context: GroupContext
    classes = {}

    def _coordinates(self, g: GroupElement) -> GroupElement | None:
        raise NotImplementedError

    def contains(self, g: GroupElement) -> bool:
        return self._coordinates(g) is not None

    def subgroup_context(self) -> GroupContext:
        """The standalone group the subgroup is identified with."""
        raise NotImplementedError

    def project(self, g: GroupElement) -> GroupElement:
        """Coordinates of a member inside ``subgroup_context()``."""
        coordinates = self._coordinates(g)
        if coordinates is None:
            raise UsageError(f"{g!r} is not in {self.describe()}")
        return coordinates

    def quotient_image(self, g: GroupElement) -> GroupElement:
        """The coset of g in the quotient, a free abelian group, for the
        predicates a lex extension can extend over."""
        raise UsageError(
            f"lex extension is not implemented over {self.describe()}")

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class BraidShiftPredicate(ConvexPredicate, tag="braid_shift"):
    """The subgroup of B_n generated by the generators above index r:
    the braids whose reduced form only uses indices > r, and whose
    Dynnikov key starts with r zero coordinate pairs."""

    n: int
    r: int

    def __post_init__(self) -> None:
        if _int_at_least(self.r, 0, "shift amount") > self.context.n - 2:
            raise UsageError(f"shift amount {self.r} out of range for B_{self.n}")

    @property
    def context(self) -> GroupContext:
        return GroupContext.braid(self.n)

    def contains(self, g: GroupElement) -> bool:
        return not any(g._key[:2 * self.r])

    def subgroup_context(self) -> GroupContext:
        return GroupContext.braid(self.n - self.r)

    def _coordinates(self, g: GroupElement) -> GroupElement | None:
        if not self.contains(g):
            return None
        return self.subgroup_context().element(tuple(
            l - self.r if l > 0 else l + self.r
            for l in handle_reduce(self.n, g.payload)))

    def describe(self) -> str:
        return f"sh^{self.r}(B_{self.n - self.r})<=B_{self.n}"


@dataclass(frozen=True)
class KleinYPredicate(ConvexPredicate, tag="klein_y"):
    """The subgroup <y> of the Klein-bottle group: pairs (0, b).  The
    quotient K / <y> is infinite cyclic in the x exponent."""

    @property
    def context(self) -> GroupContext:
        return GroupContext.klein_bottle()

    def _coordinates(self, g: GroupElement) -> GroupElement | None:
        a, b = g.payload
        return None if a else self.subgroup_context().element((b,))

    def subgroup_context(self) -> GroupContext:
        return GroupContext.free_abelian(1)

    def quotient_image(self, g: GroupElement) -> GroupElement:
        return GroupContext.free_abelian(1).element((g.payload[0],))

    def describe(self) -> str:
        return "<y><=K"


@dataclass(frozen=True)
class LatticeSublatticePredicate(ConvexPredicate, tag="lattice_sublattice"):
    """An explicit sublattice of Z^k given by independent basis rows B.
    Membership, coordinates and quotient images read one U B V = D taken
    at construction, whose ``divisors`` refuse dependent rows."""

    k: int
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _int_at_least(self.k, 1, "lattice dimension k")
        try:
            basis = tuple(tuple(b) for b in self.basis)
        except TypeError:
            raise UsageError("basis must be a list of integer rows") from None
        object.__setattr__(self, "basis", basis)
        for b in basis:
            if len(b) != self.k or any(type(c) is not int for c in b):
                raise UsageError("basis rows must be k integers each")
        smith = intlinalg.smith_with_transforms([list(b) for b in basis])
        divisors = [row[i] for i, row in enumerate(smith[1][:self.k])]
        if len(divisors) < len(basis) or 0 in divisors:
            raise UsageError("sublattice basis rows are linearly dependent")
        object.__setattr__(self, "_smith", smith)
        object.__setattr__(self, "divisors", divisors)

    @property
    def context(self) -> GroupContext:
        return GroupContext.free_abelian(self.k)

    def contains(self, g: GroupElement) -> bool:
        return intlinalg.solve_in_row_span(
            self._smith, list(g.payload)) is not None

    def subgroup_context(self) -> GroupContext:
        if not self.basis:
            raise UsageError("the trivial sublattice (empty basis) carries "
                             "no order to replace or extend")
        return GroupContext.free_abelian(len(self.basis))

    def completion(self) -> tuple[list[list[int]], list[list[int]]]:
        """U and V of U B V = [I | 0], refusing torsion (other divisors):
        g . V has coordinates inside B (through U), then in the quotient."""
        if any(x != 1 for x in self.divisors):
            raise UsageError("basis is not saturated (quotient has torsion: "
                             f"divisors {self.divisors})")
        return self._smith[0], self._smith[2]

    def _coordinates(self, g: GroupElement) -> GroupElement | None:
        coeff = intlinalg.solve_in_row_span(self._smith, list(g.payload))
        return None if coeff is None else self.subgroup_context().element(
            tuple(coeff))

    def quotient_image(self, g: GroupElement) -> GroupElement:
        """The last k - r coordinates of g . V, in a basis completing B."""
        r = len(self.basis)
        if r == self.k:
            raise UsageError("quotient is trivial; nothing to extend by")
        self.subgroup_context()  # refuses the empty basis, whose V is empty
        alpha = intlinalg.matvec_left(list(g.payload), self.completion()[1])
        return GroupContext.free_abelian(self.k - r).element(tuple(alpha[r:]))

    def describe(self) -> str:
        return f"span{list(map(list, self.basis))}<=Z^{self.k}"


@dataclass(frozen=True)
class CyclicBraidPredicate(ConvexPredicate, tag="cyclic_braid"):
    """The cyclic subgroup of B_n generated by one braid w, parsed once.

    The exponent sum e of w must be nonzero: the exponent-sum
    homomorphism then pins the only possible power, g = w^m with
    m = exp(g) / e, and one key comparison decides membership.  For
    e = 0 there is no exact rule here, so the constructor refuses it.
    """

    n: int
    word: str

    def __post_init__(self) -> None:
        w = self.context.element(self.word)
        e = sum(1 if l > 0 else -1 for l in w.payload)
        if e == 0:
            raise UsageError(f"cyclic generator {self.word!r} has "
                             "exponent sum 0: no exact membership rule")
        object.__setattr__(self, "_generator", w)
        object.__setattr__(self, "_exponent", e)

    @property
    def context(self) -> GroupContext:
        return GroupContext.braid(self.n)

    def _coordinates(self, g: GroupElement) -> GroupElement | None:
        m, rest = divmod(sum(1 if l > 0 else -1 for l in g.payload),
                         self._exponent)
        if rest:
            return None
        member = g.is_identity() if m == 0 else g == self._generator ** m
        return self.subgroup_context().element((m,)) if member else None

    def subgroup_context(self) -> GroupContext:
        return GroupContext.free_abelian(1)

    def describe(self) -> str:
        return f"<{self.word}><=B_{self.n}"


@dataclass(frozen=True)
class WholePredicate(ConvexPredicate, tag="whole"):
    """The whole group; lets chains for the soul estimator end at G."""

    group: GroupContext

    @property
    def context(self) -> GroupContext:
        return self.group

    def _coordinates(self, g: GroupElement) -> GroupElement:
        return g

    def subgroup_context(self) -> GroupContext:
        return self.group

    def describe(self) -> str:
        return f"all of {self.group!r}"


def predicate_from_json(data: dict) -> ConvexPredicate:
    """The predicate a ``to_json`` descriptor names, read by ``_read``."""
    return _read(data, ConvexPredicate, "predicate type", _READERS)


# ---------------------------------------------------------------------------
# Cone oracles


class ConeOracle(_Descriptor):
    """A total sign function satisfying the positive-cone axioms;
    ``order_property_scan`` infers most conjugate signs from them."""

    context: GroupContext
    classes = {}

    def sign(self, g: GroupElement) -> int:
        if g.context != self.context:
            raise ContextMismatchError("incompatible groups")
        return self._sign(g)

    def _sign(self, g: GroupElement) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class DehornoyCone(ConeOracle, tag="dehornoy"):
    """The Dehornoy order of B_n: positive iff the reduced form's lowest
    generator index occurs positively."""

    n: int

    def __post_init__(self) -> None:
        GroupContext.braid(self.n)  # refuses n below 2 and non-integers

    @property
    def context(self) -> GroupContext:
        return GroupContext.braid(self.n)

    def _sign(self, g: GroupElement) -> int:
        return main_sign(self.n, g.payload).sign

    def describe(self) -> str:
        return f"dehornoy:{self.n}"


@dataclass(frozen=True)
class DubrovinaDubrovinCone(ConeOracle, tag="dd"):
    """The Dubrovina-Dubrovin order of B_n.

    A braid with main index i and main sign s is positive iff
    s = (-1)^(i+1), matching the semigroup generators
    y_i = (s_i ... s_{n-1})^((-1)^(i+1)): odd main indices must be
    positive, even ones negative.
    """

    n: int

    def __post_init__(self) -> None:
        GroupContext.braid(self.n)  # refuses n below 2 and non-integers

    @property
    def context(self) -> GroupContext:
        return GroupContext.braid(self.n)

    def _sign(self, g: GroupElement) -> int:
        report = main_sign(self.n, g.payload)
        if report.index is None:
            return 0
        required = 1 if report.index % 2 == 1 else -1
        return 1 if report.sign == required else -1

    def generators(self) -> list[GroupElement]:
        """The semigroup generators y_1 .. y_{n-1} of the positive cone."""
        out = []
        for i in range(1, self.n):
            y = self.context.element(tuple(range(i, self.n)))
            out.append(y if i % 2 == 1 else y.inverse())
        return out

    def describe(self) -> str:
        return f"dd:{self.n}"


@dataclass(frozen=True)
class KleinTararinCone(ConeOracle, tag="klein_tararin"):
    """One of the four orders of the Klein-bottle group: the sign of
    x^a y^b is sx * sgn(a) when a != 0 and sy * sgn(b) otherwise."""

    sx: _Sign
    sy: _Sign

    def __post_init__(self) -> None:
        if self.sx not in (1, -1) or self.sy not in (1, -1):
            raise UsageError("Klein-Tararin orientations must be +1 or -1")

    @property
    def context(self) -> GroupContext:
        return GroupContext.klein_bottle()

    def _sign(self, g: GroupElement) -> int:
        a, b = g.payload
        if a != 0:
            return self.sx * (1 if a > 0 else -1)
        if b != 0:
            return self.sy * (1 if b > 0 else -1)
        return 0

    def to_json(self) -> dict:
        return {"type": self.tag, "sx": sign_text(self.sx),
                "sy": sign_text(self.sy)}

    def describe(self) -> str:
        return f"klein:{sign_text(self.sx)}{sign_text(self.sy)}"


@dataclass(frozen=True)
class LatticeCone(ConeOracle, tag="lattice"):
    """A lex cone on Z^k backed by an exact hyperplane-chain spec."""

    spec: LexConeSpec

    @property
    def context(self) -> GroupContext:
        return GroupContext.free_abelian(self.spec.k)

    def _sign(self, g: GroupElement) -> int:
        # sign() has checked the context; payloads are k-tuples of ints.
        return self.spec._sign(g.payload)

    def describe(self) -> str:
        return f"lattice:k={self.spec.k}"


@dataclass(frozen=True)
class ConjugateCone(ConeOracle, tag="conjugate"):
    """The image of a cone under the conjugation action: an element is
    positive here iff h^-1 g h is positive in the base cone.  h^-1 is
    taken once, at construction."""

    base: ConeOracle
    h: GroupElement

    def __post_init__(self) -> None:
        if self.h.context != self.base.context:
            raise ContextMismatchError("incompatible groups")
        object.__setattr__(self, "_h_inverse", self.h.inverse())

    @property
    def context(self) -> GroupContext:
        return self.base.context

    def _sign(self, g: GroupElement) -> int:
        return self.base.sign(self._h_inverse * g * self.h)

    def to_json(self) -> dict:
        return {"type": self.tag, "base": self.base.to_json(),
                "g": self.h.to_json()}

    def describe(self) -> str:
        return f"conj[{self.h.text()}]({self.base.describe()})"


@dataclass(frozen=True)
class FlipCone(ConeOracle, tag="flip_on_convex"):
    """The base cone with its sign negated exactly on a convex subgroup:
    the flipped restriction glued to the untouched outside.  A cone by
    convexity, which the constructor certifies up to ``radius`` only."""

    base: ConeOracle
    predicate: ConvexPredicate
    radius: int

    def __post_init__(self) -> None:
        _certify(self)

    @property
    def context(self) -> GroupContext:
        return self.base.context

    def _sign(self, g: GroupElement) -> int:
        s = self.base.sign(g)
        return -s if self.predicate.contains(g) else s

    def describe(self) -> str:
        return f"flip[{self.predicate.describe()}]({self.base.describe()})"


@dataclass(frozen=True)
class ReplaceCone(ConeOracle, tag="replace_on_convex"):
    """The base cone with its restriction to a convex subgroup replaced
    by an arbitrary order of that subgroup.  A cone by convexity, which
    the constructor certifies up to ``radius`` only."""

    base: ConeOracle
    predicate: ConvexPredicate
    inner: ConeOracle
    radius: int

    def __post_init__(self) -> None:
        _check_inner(self.inner, self.predicate)  # before the ball is sorted
        _certify(self)

    @property
    def context(self) -> GroupContext:
        return self.base.context

    def _sign(self, g: GroupElement) -> int:
        coordinates = self.predicate._coordinates(g)
        if coordinates is None:
            return self.base.sign(g)
        return self.inner.sign(coordinates)

    def describe(self) -> str:
        return (f"replace[{self.predicate.describe()}<-{self.inner.describe()}]"
                f"({self.base.describe()})")


@dataclass(frozen=True)
class LexExtensionCone(ConeOracle, tag="lex_extension"):
    """Order a group through a normal convex subgroup: compare cosets by
    the quotient order and fall back to the inner order inside.

    Works over any predicate with a ``quotient_image``; the image of the
    identity names the quotient group, and a predicate without a quotient
    refuses there.
    """

    convex: ConvexPredicate
    inner: ConeOracle
    quotient: ConeOracle

    def __post_init__(self) -> None:
        expected = self.convex.quotient_image(self.context.identity()).context
        _check_inner(self.inner, self.convex)
        if self.quotient.context != expected:
            raise ContextMismatchError(
                f"quotient cone must live on {expected!r}")

    @property
    def context(self) -> GroupContext:
        return self.convex.context

    def _sign(self, g: GroupElement) -> int:
        image = self.convex.quotient_image(g)
        if not image.is_identity():
            return self.quotient.sign(image)
        return self.inner.sign(self.convex.project(g))

    def describe(self) -> str:
        return (f"lexext[{self.convex.describe()}: {self.inner.describe()}; "
                f"{self.quotient.describe()}]")


def _check_inner(inner: ConeOracle, predicate: ConvexPredicate) -> None:
    if inner.context != predicate.subgroup_context():
        raise ContextMismatchError(
            "inner cone lives on the wrong group for this subgroup")


def _certify(cone: FlipCone | ReplaceCone) -> None:
    """Refuse a flip or replacement failing the sorted-ball check."""
    from .lospace import convexity_check
    verdict = convexity_check(cone.base, cone.predicate, cone.radius)
    if verdict.tag != "convexity_pass":
        raise CertificateError(
            f"{cone.predicate.describe()} is not convex in "
            f"{cone.base.describe()} at radius {cone.radius}")


# ---------------------------------------------------------------------------
# Operations


def compare(cone: ConeOracle, g: GroupElement, h: GroupElement) -> str:
    """'<', '=', or '>' for g against h: g < h iff g^-1 h is positive."""
    if g.context != h.context:
        raise ContextMismatchError("incompatible groups")
    s = cone.sign(g.inverse() * h)
    return {1: "<", 0: "=", -1: ">"}[s]


def cone_from_json(data: dict) -> ConeOracle:
    """The cone a ``to_json`` descriptor names, read by ``_read``; only a
    conjugate's element is read here, in its base cone's group."""
    if _field(data, "type") == "conjugate":
        base = cone_from_json(_field(data, "base"))
        return ConjugateCone(base, base.context.element(_field(data, "g")))
    return _read(data, ConeOracle, "cone type", _READERS)


def _nested(read):
    """A field reader for a nested descriptor that ``read`` builds."""
    return lambda data, key: read(_field(data, key))


#: How ``_read`` reads a field, by the field's annotation.
_READERS = {
    "int": _int_field,
    "bool": lambda data, key: _typed_field(data, key, bool, "true or false"),
    "tuple[str, ...]": lambda data, key: tuple(
        _typed_field(data, key, list, "a list")),
    "_Sign": _sign_field,
    "ConeOracle": _nested(cone_from_json),
    "ConvexPredicate": _nested(predicate_from_json),
    "GroupContext": _nested(GroupContext.from_json),
    "LexConeSpec": _nested(LexConeSpec.from_json),
}
