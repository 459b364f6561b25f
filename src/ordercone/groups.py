"""Uniform element arithmetic and Cayley-ball enumeration.

Three group families are supported:

* free abelian lattices Z^k, elements stored as integer vectors;
* Artin braid groups B_n, elements carrying a ``BraidWord`` (free-reduced
  by its constructor) and compared through its Dynnikov coordinates, an
  exact key;
* the Klein-bottle group <x, y | x y x^-1 = y^-1>, elements in the
  normal form x^a y^b with the multiplication law
  (a1, b1)(a2, b2) = (a1 + a2, (-1)^a2 b1 + b2), derived once from the
  relator and fixed as the datum.

Balls are enumerated breadth first over the standard generators and
their inverses in a fixed letter order, deduplicating by each
element's exact key, so members carry shortest (for braids,
BFS-first canonical) representatives and appear in a deterministic
order: by word length, then by discovery.  The BFS keys each candidate
with one letter from its parent's key, Z^k reads that order off its
shells (``iter_lattice_shell``), and ``ball`` wraps each member once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add

from . import braids
from .braids import BraidWord
from .budgets import current_budget
from .errors import (BudgetExceededError, ContextMismatchError, UsageError,
                     _field, _int_field)

FREE_ABELIAN = "free_abelian"
BRAID = "braid"
KLEIN_BOTTLE = "klein_bottle"


@dataclass(frozen=True)
class GroupContext:
    """One of the supported group families together with its parameters."""

    family: str
    k: int = 0
    n: int = 0

    def __post_init__(self) -> None:
        if self.family == FREE_ABELIAN:
            if self.k < 1:
                raise UsageError("free abelian rank must be k >= 1")
        elif self.family == BRAID:
            if self.n < 2:
                raise UsageError("braid group needs n >= 2")
        elif self.family != KLEIN_BOTTLE:
            raise UsageError(f"unknown group family {self.family!r}")
        for name in {FREE_ABELIAN: "n", BRAID: "k"}.get(self.family, "kn"):
            if getattr(self, name):
                raise UsageError(f"{self!r} takes no parameter {name}")

    # Interned: cones build their context on every access.  ``typed``
    # keeps ``braid(3.0)`` or ``free_abelian(True)`` from answering for
    # the int parameter.
    @classmethod
    @lru_cache(maxsize=None, typed=True)
    def free_abelian(cls, k: int) -> "GroupContext":
        return cls(FREE_ABELIAN, k=k)

    @classmethod
    @lru_cache(maxsize=None, typed=True)
    def braid(cls, n: int) -> "GroupContext":
        return cls(BRAID, n=n)

    @classmethod
    @lru_cache(maxsize=None, typed=True)
    def klein_bottle(cls) -> "GroupContext":
        return cls(KLEIN_BOTTLE)

    @classmethod
    def from_json(cls, data) -> "GroupContext":
        family = _field(data, "family")
        if family == FREE_ABELIAN:
            return cls.free_abelian(_int_field(data, "k"))
        if family == BRAID:
            return cls.braid(_int_field(data, "n"))
        if family == KLEIN_BOTTLE:
            return cls.klein_bottle()
        return cls(family)

    def to_json(self) -> dict:
        if self.family == FREE_ABELIAN:
            return {"family": self.family, "k": self.k}
        if self.family == BRAID:
            return {"family": self.family, "n": self.n}
        return {"family": self.family}

    def census_limit(self) -> int:
        """The scoped budget's census radius cap for this family."""
        budget = current_budget()
        return (budget.census_braid_radius if self.family == BRAID
                else budget.census_other_radius)

    def identity(self) -> "GroupElement":
        if self.family == FREE_ABELIAN:
            return GroupElement(self, (0,) * self.k)
        if self.family == BRAID:
            return GroupElement(self, BraidWord(self.n, ()))
        return GroupElement(self, (0, 0))

    def element(self, value) -> "GroupElement":
        """Coerce a payload into an element: coordinate tuple or Klein pair
        (or their comma-separated text), BraidWord, braid word text, or
        braid letter list or tuple.  Any other payload is a UsageError."""
        if isinstance(value, str):
            if self.family == BRAID:
                value = BraidWord.from_text(self.n, value)
            else:
                try:
                    value = tuple(int(c) for c in value.split(","))
                except ValueError:
                    raise UsageError(f"{value!r} is not comma-separated "
                                     "integers") from None
        elif isinstance(value, (list, tuple)):
            value = (BraidWord(self.n, value) if self.family == BRAID
                     else tuple(value))
        return GroupElement(self, value)

    def generators(self) -> list["GroupElement"]:
        if self.family == FREE_ABELIAN:
            return [self.element(tuple(1 if j == i else 0 for j in range(self.k)))
                    for i in range(self.k)]
        if self.family == BRAID:
            return [self.element(BraidWord(self.n, (i,))) for i in range(1, self.n)]
        return [self.element((1, 0)), self.element((0, 1))]

    def generators_with_inverses(self) -> list["GroupElement"]:
        """Generators interleaved with inverses: g1, g1^-1, g2, g2^-1, ..."""
        out = []
        for g in self.generators():
            out.append(g)
            out.append(g.inverse())
        return out

    def __repr__(self) -> str:
        if self.family == FREE_ABELIAN:
            return f"Z^{self.k}"
        if self.family == BRAID:
            return f"B_{self.n}"
        return "KleinBottle"


@dataclass(frozen=True, eq=False)
class GroupElement:
    """An element of one of the supported groups in its family's form,
    checked at construction: a tuple of k (Z^k) or 2 (Klein) ints, or a
    ``BraidWord`` on the context's n strands.

    Equality, hashing and ``is_identity`` read one key, a tuple of ints
    that is all zeros for the identity and is hashed with its entries
    doubled: the payload for Z^k and Klein, and for braids the cached
    Dynnikov key ``braids.fingerprint``, so different words for the same
    braid are equal.
    """

    context: GroupContext
    payload: tuple | BraidWord

    def __post_init__(self) -> None:
        ctx, payload = self.context, self.payload
        if ctx.family == BRAID:
            if type(payload) is not BraidWord:
                raise UsageError(f"{payload!r} is not a braid word")
            if payload.n != ctx.n:
                raise ContextMismatchError("incompatible groups")
            return
        size = ctx.k if ctx.family == FREE_ABELIAN else 2
        if (type(payload) is not tuple or len(payload) != size
                or not all(type(c) is int for c in payload)):
            raise UsageError(f"{payload!r} is not a tuple of {size} integers")

    @property
    def word(self) -> BraidWord:
        if self.context.family != BRAID:
            raise UsageError("only braid elements carry a word")
        return self.payload

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return multiply(self, other)

    def __pow__(self, k: int) -> "GroupElement":
        base = self if k >= 0 else self.inverse()
        out = self.context.identity()
        for _ in range(abs(k)):
            out = out * base
        return out

    def inverse(self) -> "GroupElement":
        return GroupElement(self.context, _inverse(self.context, self.payload))

    def is_identity(self) -> bool:
        # The identity's key is all zeros.
        return not any(self._key)

    def word_length(self) -> int:
        """Length of the stored representative.  Exact for ball members;
        an upper bound for freshly computed braid products."""
        if self.context.family == BRAID:
            return len(self.payload.letters)
        return sum(abs(c) for c in self.payload)

    @property
    def _key(self):
        # Not functools.cached_property: its first-access lock slows hashing.
        if self.context.family != BRAID:
            return self.payload
        key = self.__dict__.get("key")
        if key is None:
            key = self.__dict__["key"] = _payload_key(self.context, self.payload)
        return key

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.context == other.context and self._key == other._key

    def __hash__(self) -> int:
        # Doubled entries are never -1, which CPython hashes like -2.
        return hash(tuple([2 * c for c in self._key]))

    def text(self) -> str:
        if self.context.family == BRAID:
            return self.payload.to_text()
        return ",".join(str(c) for c in self.payload)

    def to_json(self):
        """Braid word text, or the coordinate list."""
        return self.text() if self.context.family == BRAID else list(self.payload)

    def __repr__(self) -> str:
        return f"<{self.context!r}: {self.text() or '1'}>"


def _product(context: GroupContext, p, q):
    """The product of two payloads of the context's family."""
    if context.family == FREE_ABELIAN:
        return tuple(map(add, p, q))
    if context.family == KLEIN_BOTTLE:
        (a1, b1), (a2, b2) = p, q
        return (a1 + a2, (b1 if a2 % 2 == 0 else -b1) + b2)
    return p * q


def _inverse(context: GroupContext, p):
    """The inverse of a payload of the context's family."""
    if context.family == FREE_ABELIAN:
        return tuple(-c for c in p)
    if context.family == KLEIN_BOTTLE:
        a, b = p
        return (-a, -b if a % 2 == 0 else b)
    return p.inverse()


def _payload_key(context: GroupContext, p):
    """The exact equality key of a payload, a tuple of ints: itself for
    Z^k and Klein, ``braids.fingerprint`` (the Dynnikov coordinates less
    the identity's) for braids."""
    return braids.fingerprint(p) if context.family == BRAID else p


def product_key(context: GroupContext, key, q):
    """The exact key of p * q from p's key and q's payload, in O(len(q)):
    the product for Z^k and Klein, and for braids q's letters acting on
    p's Dynnikov coordinates, its key plus (0,1, ..., 0,1)."""
    if context.family != BRAID:
        return _product(context, key, q)
    return braids.act(list(map(add, key, (0, 1) * context.n)), q.letters)


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    context = g.context
    if context is not h.context and context != h.context:
        raise ContextMismatchError("incompatible groups")
    product = object.__new__(GroupElement)  # the payload fits: unchecked
    product.__dict__.update(context=context, payload=_product(
        context, g.payload, h.payload))
    return product


class Ball:
    """The nontrivial elements of word length at most ``radius``.

    Closed under inversion, free of duplicates, ordered by word length
    and then by BFS discovery order.  One map from each member's exact
    key to its position, listing the keys in ball order, answers ``in``,
    ``position`` and the product lookups.  ``product_triples`` relies on
    the identity being absent: an identity product finds no position.
    """

    def __init__(self, context: GroupContext, radius: int):
        self.context = context
        self.radius = radius
        payloads, positions = ball_payloads(context, radius)
        elements = [GroupElement(context, p) for p in payloads]
        if context.family == BRAID:  # the BFS keyed every member already
            for e, key in zip(elements, positions):
                e.__dict__["key"] = key
        self.elements: tuple[GroupElement, ...] = tuple(elements)
        self.lengths: tuple[int, ...] = tuple(e.word_length() for e in self.elements)
        self.inverse_position: tuple[int, ...] = tuple(
            positions[_payload_key(context, _inverse(context, p))]
            for p in payloads)
        self._positions = positions
        self._triples: list[tuple[int, int, int]] | None = None
        self._cuts: list[tuple[tuple[int, int], ...]] | None = None
        self._element_json: list | None = None

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, element: GroupElement) -> bool:
        return (element.context == self.context
                and element._key in self._positions)

    def position(self, element: GroupElement) -> int:
        if element in self:
            return self._positions[element._key]
        raise UsageError(f"{element!r} is not in the radius-{self.radius} ball")

    def product_triples(self) -> list[tuple[int, int, int]]:
        """All (i, j, k) with element_i * element_j = element_k, cached,
        each product keyed from element_i's key and element_j's payload."""
        if self._triples is None:
            context, positions = self.context, self._positions
            payloads = [e.payload for e in self.elements]
            triples = []
            for i, key in enumerate(positions):
                for j, q in enumerate(payloads):
                    k = positions.get(product_key(context, key, q))
                    if k is not None:
                        triples.append((i, j, k))
            self._triples = triples
        return self._triples

    def cuts(self) -> list[tuple[tuple[int, int], ...]]:
        """Per member of length l, each (i, j) with element_i * element_j
        equal to it, one factor a generator and the other of length l - 1
        (none for the generators), once each; cached.  A right cut e s^-1
        is keyed from e's key, a left cut s^-1 e from the key of s^-1."""
        if self._cuts is None:
            context, positions, lengths = (self.context, self._positions,
                                           self.lengths)
            keys = list(positions)
            letters = [(t, keys[u], self.elements[u].payload)
                       for t, length in enumerate(lengths) if length == 1
                       for u in [self.inverse_position[t]]]
            self._cuts = []
            for e, key, length in zip(self.elements, keys, lengths):
                found = []
                for t, s_key, s_inverse in letters if length > 1 else ():
                    j = positions.get(product_key(context, s_key, e.payload))
                    i = positions.get(product_key(context, key, s_inverse))
                    found += [pair for pair, f in (((t, j), j), ((i, t), i))
                              if f is not None and lengths[f] == length - 1]
                self._cuts.append(tuple(dict.fromkeys(found)))
        return self._cuts

    def element_json(self) -> list:
        """Each element's ``to_json``, in ball order, built once and
        shared by every sign vector on the ball: read, never mutate."""
        if self._element_json is None:
            self._element_json = [e.to_json() for e in self.elements]
        return self._element_json


_ball_cache: dict[tuple[GroupContext, int], Ball] = {}


def ball(context: GroupContext, radius: int) -> Ball:
    """Enumerate the Cayley ball of the given radius.

    Braid balls are capped by the budget because they grow exponentially
    and every candidate computes its Dynnikov key.
    """
    if radius < 0:
        raise UsageError("ball radius must be nonnegative")
    if context.family == BRAID:
        limit = current_budget().braid_ball_limit(context.n)
        if radius > limit:
            raise BudgetExceededError(
                f"ball budget exceeded: radius {radius} > limit {limit} "
                f"for B_{context.n}")
    cached = _ball_cache.get((context, radius))
    if cached is None:
        cached = _ball_cache[(context, radius)] = Ball(context, radius)
    return cached


def iter_lattice_shell(k: int, norm: int):
    """The vectors of Z^k with L1 norm ``norm`` in ball order, the order
    in which the BFS over e1, -e1, e2, ... first reaches them: each
    coordinate runs m..1, -m..-1, 0 for the norm m the earlier ones
    left, the first one slowest."""
    prefixes = [((), norm)]
    for _ in range(k - 1):
        prefixes = [(prefix + (value,), remaining - abs(value))
                    for prefix, remaining in prefixes
                    for value in (*range(remaining, 0, -1),
                                  *range(-remaining, 0), 0)]
    for prefix, remaining in prefixes:
        yield prefix + (remaining,)
        if remaining:
            yield prefix + (-remaining,)


def ball_payloads(context: GroupContext, radius: int) -> tuple[list, dict]:
    """The BFS of ``ball``: the nontrivial members in ball order (int
    tuples for Z^k and Klein; braid words, deduplicated by Dynnikov key)
    and each member's exact key mapped to its position, in the same
    order.  A candidate's key is one letter acting on its parent's key,
    and its payload is built only when it is new.  Z^k reads its shells
    instead of searching.  Nothing is cached or budgeted."""
    if context.family == FREE_ABELIAN:
        members = [v for norm in range(1, radius + 1)
                   for v in iter_lattice_shell(context.k, norm)]
        return members, {v: i for i, v in enumerate(members)}
    gens = [g.payload for g in context.generators_with_inverses()]
    identity = context.identity().payload
    identity_key = _payload_key(context, identity)
    members: list = []
    positions: dict = {identity_key: -1}
    frontier = [(identity, identity_key)]
    for _layer in range(radius):
        next_frontier = []
        for parent, parent_key in frontier:
            for g in gens:
                key = product_key(context, parent_key, g)
                if key not in positions:
                    positions[key] = len(members)
                    members.append(_product(context, parent, g))
                    next_frontier.append((members[-1], key))
        frontier = next_frontier
    del positions[identity_key]
    return members, positions


def clear_ball_cache() -> None:
    _ball_cache.clear()
