"""The space of left orderings at finite resolution.

A cone restricted to a Cayley ball is a sign vector; two cones are at
distance 2^-r when r is the largest radius on which their sign vectors
agree.  Distance zero is never asserted: when agreement persists to the
scanned resolution the result is an upper bound flagged as inexact.

The census enumerates every +/- assignment on a ball satisfying the
local cone axioms (inversion antisymmetry and product closure for
in-ball products) plus optional positivity pins.  Finite-radius census
vectors are necessary conditions for genuine left orders, so counts are
"consistent cylinder classes at radius r"; when constructed orders
match the count, the count is certified.  Enumeration is an iterative
backtracking search with unit propagation on one literal per inverse
pair, over the fact sets that product triples forbid (see ``census``).
It branches on the first unset ball position, + before -, so the sign
tuples come out in decreasing lexicographic order.  The test suite
keeps a brute-force enumeration and a position search over product
triples as oracles for the whole output list.

The remaining operations are experiment drivers: semigroup witnesses
for the Dubrovina-Dubrovin cone, conjugate-orbit accumulation scans,
sorted-ball convexity checks, discreteness checks, interval closures,
and Conradian / bi-order violation scans, each returning replayable
certificates.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from .budgets import current_budget
from .certificates import (AccumulationWitness, ConvexityCertificate,
                           ConvexityCounterexample, DensityWitness,
                           DiscretenessPass, IntervalClosureReport,
                           SemigroupWitness)
from .cones import (ConeOracle, ConjugateCone, ConvexPredicate,
                    DubrovinaDubrovinCone, sign_text)
from .errors import (BudgetExceededError, CertificateError,
                     ContextMismatchError, UsageError, _int_at_least)
from .groups import Ball, GroupContext, GroupElement, ball, product_key


@dataclass(frozen=True)
class SignVector:
    """The restriction of a cone to a ball: one sign per ball element."""

    ball: Ball
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.signs) != len(self.ball):
            raise UsageError("sign vector length must match the ball")

    def validate(self) -> None:
        """Re-check the invariants: antisymmetry under the inversion
        pairing and closure of positives under in-ball products."""
        for i, s in enumerate(self.signs):
            if s not in (1, -1):
                raise UsageError("sign vectors only take values + and -")
            if self.signs[self.ball.inverse_position[i]] != -s:
                raise UsageError("sign vector is not antisymmetric")
        for i, j, k in self.ball.product_triples():
            if self.signs[i] == 1 and self.signs[j] == 1 and self.signs[k] != 1:
                raise UsageError("sign vector is not product closed")

    def to_json(self) -> dict:
        return {"radius": self.ball.radius,
                "signs": [[e, sign_text(s)] for e, s in
                          zip(self.ball.element_json(), self.signs)]}

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignVector):
            return NotImplemented
        return (self.ball.context == other.ball.context
                and self.ball.radius == other.ball.radius
                and self.signs == other.signs)

    def __hash__(self) -> int:
        return hash((self.ball.context, self.ball.radius, self.signs))


@dataclass(frozen=True)
class DistanceResult:
    """Ultrametric distance at finite resolution.

    ``exact`` is False when the vectors agreed all the way out to the
    resolution; the distance is then only an upper bound 2^-resolution.
    """

    agree_radius: int
    resolution: int
    exact: bool

    @property
    def distance(self) -> Fraction:
        return Fraction(1, 2 ** self.agree_radius)

    def to_json(self) -> dict:
        return {"agree_radius": self.agree_radius,
                "distance": f"2^-{self.agree_radius}",
                "resolution": self.resolution, "exact": self.exact}


def sign_vector(cone: ConeOracle, radius: int) -> SignVector:
    """Evaluate the cone on every element of the radius ball."""
    b = ball(cone.context, radius)
    signs = []
    for element in b:
        s = cone.sign(element)
        if s == 0:
            raise UsageError(
                f"cone assigned 0 to the nontrivial element {element!r}")
        signs.append(s)
    return SignVector(b, tuple(signs))


def _first_disagreement(cone: ConeOracle, elements,
                        signs: Iterable[int]) -> int | None:
    """Position of the first element whose sign under ``cone`` differs
    from the reference sign beside it, or None when all agree.

    ``signs`` may be a lazy iterable; it is consumed in step with the
    elements, so a walk that stops early evaluates no further signs.
    """
    for i, (g, s) in enumerate(zip(elements, signs)):
        if cone.sign(g) != s:
            return i
    return None


def distance(p: ConeOracle, q: ConeOracle, resolution: int) -> DistanceResult:
    """Largest agreement radius up to the resolution, as a distance."""
    if p.context != q.context:
        raise ContextMismatchError("incompatible groups")
    _int_at_least(resolution, 1, "resolution")
    b = ball(p.context, resolution)
    i = _first_disagreement(q, b.elements, (p.sign(g) for g in b.elements))
    if i is None:
        return DistanceResult(resolution, resolution, False)
    return DistanceResult(b.lengths[i] - 1, resolution, True)


# ---------------------------------------------------------------------------
# Census


def census(context: GroupContext, radius: int,
           required_positive: Iterable[GroupElement] = ()) -> list[SignVector]:
    """All consistent sign vectors on the radius ball with the
    ``required_positive`` elements positive: a cylinder set at finite
    radius.

    Complete and duplicate-free.  A fact ``2p + (v < 0)`` says that the
    lower position p of an inverse pair has sign v; the upper position
    q has sign v when the fact ``(inverse[q], -v)`` holds.  A product
    triple (i, j, k) forbids the fact set {i +, j +, k -}.  The six
    triples of one relation g h = k give two such sets, and in Z^k the
    commuted triples repeat them, so each set is kept once.  ``watch[f]``
    holds the other facts of every set containing f, padded with a fact
    that always holds.  Setting f forces the negation of a set's one
    other fact still unset when the rest hold.  A set whose other facts
    all hold needs no check: the later of them to be set forced the
    negation of f in this same propagation (an earlier one would have
    left f false), and popping it is the conflict.  So every set needs
    two facts; a one-fact set {g +} would mean g g = g^-1, a torsion
    element, and no supported group has one.  Unit propagation reaches
    the same fixpoint, or a conflict, in any order.  The search branches
    on the first unset position in ball order and tries + before -, so
    the sign tuples come out in decreasing lexicographic order.
    """
    cap = context.census_limit()
    if _int_at_least(radius, 0, "ball radius") > cap:
        raise BudgetExceededError(
            f"census budget exceeded: radius {radius} > limit {cap}")
    b = ball(context, radius)
    required_positive = tuple(required_positive)
    for pin in required_positive:
        if pin not in b:
            raise UsageError(f"pinned element {pin!r} is outside the ball")
    inverse = b.inverse_position

    def fact(pos: int, value: int) -> int:
        """s_pos = value, as a fact on the lower position of its pair."""
        upper = pos > inverse[pos]
        return 2 * min(pos, inverse[pos]) + ((value < 0) ^ upper)

    true = 2 * len(b)  # a fact that always holds, padding short sets
    truth = [0] * true + [1]  # per fact: 1 true, -1 false, 0 unset
    watch: list[list[tuple[int, int]]] = [[] for _ in range(true)]
    for forbidden in {frozenset((fact(i, 1), fact(j, 1), fact(k, -1)))
                      for i, j, k in b.product_triples()}:
        for f in forbidden:
            watch[f].append((*(forbidden - {f}), true, true)[:2])
    signs = [0] * len(b)
    trail: list[int] = []

    def assign(f: int) -> bool:
        """Make a fact true, then every fact unit propagation forces;
        False on a conflict."""
        queue = [f]
        while queue:
            f = queue.pop()
            if truth[f]:
                if truth[f] == 1:
                    continue
                return False
            truth[f], truth[f ^ 1] = 1, -1
            pos, value = f >> 1, -1 if f & 1 else 1
            signs[pos], signs[inverse[pos]] = value, -value
            trail.append(f)
            for a, c in watch[f]:
                ta, tc = truth[a], truth[c]
                if ta == 1 and tc == 0:
                    queue.append(c ^ 1)
                elif ta == 0 and tc == 1:
                    queue.append(a ^ 1)
        return True

    solutions: list[SignVector] = []
    stack: list[tuple[int, int]] = []
    feasible = all(assign(fact(b.position(pin), 1))
                   for pin in required_positive)
    while True:
        if feasible and 0 in signs:
            pos = signs.index(0)  # a lower position: pairs are set together
            stack += ((2 * pos + 1, len(trail)), (2 * pos, len(trail)))
        elif feasible:
            solutions.append(SignVector(b, tuple(signs)))
        if not stack:
            return solutions
        f, mark = stack.pop()
        for t in trail[mark:]:
            truth[t] = truth[t ^ 1] = signs[t >> 1] = signs[inverse[t >> 1]] = 0
        del trail[mark:]
        feasible = assign(f)


# ---------------------------------------------------------------------------
# Semigroup witnesses for the Dubrovina-Dubrovin cone


def dd_isolation_witnesses(n: int, radius: int,
                           max_len: int) -> list[SemigroupWitness]:
    """Factor every DD-positive ball element over the cone's generators.

    Breadth-first search over semigroup products, each keyed from its
    parent's key and one generator.  ``paths`` maps each key reached to
    its first, hence shortest, factorization and is the seen set too.
    Elements left unresolved within ``max_len`` or the frontier budget
    raise, never silently vanish.
    """
    _int_at_least(max_len, 1, "max_len")
    cone = DubrovinaDubrovinCone(n)
    context = cone.context
    frontier_cap = current_budget().bfs_frontier
    targets = {e._key: e for e in ball(context, radius) if cone.sign(e) == 1}
    generators = [g.payload for g in cone.generators()]
    names = [f"y{i + 1}" for i in range(len(generators))]

    def unresolved() -> str:
        return ", ".join(e.text() for key, e in targets.items()
                         if key not in paths)

    identity = context.identity()._key
    paths: dict[tuple[int, ...], tuple[str, ...]] = {identity: ()}
    frontier = [identity]
    for _ in range(max_len):
        if targets.keys() <= paths.keys():
            break
        next_frontier = []
        for key in frontier:
            for gen, name in zip(generators, names):
                candidate = product_key(context, key, gen)
                if candidate in paths:
                    continue
                if len(paths) >= frontier_cap:
                    raise BudgetExceededError(
                        "semigroup BFS frontier budget exceeded; unresolved: "
                        + unresolved())
                paths[candidate] = paths[key] + (name,)
                next_frontier.append(candidate)
        frontier = next_frontier
    if not targets.keys() <= paths.keys():
        raise BudgetExceededError(
            f"no semigroup witness of length <= {max_len} for: "
            + unresolved())
    return [SemigroupWitness(n, e.text(), paths[key])
            for key, e in targets.items()]


# ---------------------------------------------------------------------------
# Accumulation scan


def accumulation_scan(cone: ConeOracle, conjugator_radius: int,
                      target_radius: int, resolution: int | None = None
                      ) -> AccumulationWitness | None:
    """First conjugator in the ``conjugator_radius`` ball moving the cone
    a positive exact distance at most 2^-target_radius, or None when that
    ball has no witness.  The radii and the resolution are checked before
    any ball is built.

    Conjugators are tried in ball order; per conjugator the conjugate is
    evaluated outward and abandoned at the first disagreement, so cones
    that differ early cost almost nothing and cones that agree through
    the resolution are skipped as inexact rather than claimed.  A cone
    that signs a nontrivial element 0 is refused, by ``sign_vector``.
    """
    _int_at_least(conjugator_radius, 0, "conjugator radius")
    _int_at_least(target_radius, 0, "target radius")
    if resolution is None:
        resolution = target_radius + 1
    if _int_at_least(resolution, 1, "resolution") <= target_radius:
        raise UsageError("resolution must exceed the target radius")
    conjugators = ball(cone.context, conjugator_radius)
    base = sign_vector(cone, resolution)
    for h in conjugators:
        i = _first_disagreement(ConjugateCone(cone, h), base.ball.elements,
                                base.signs)
        if i is None:
            continue  # agreement to the whole resolution: inexact, unusable
        agree = base.ball.lengths[i] - 1
        if agree >= target_radius:
            return AccumulationWitness(cone.to_json(), h.to_json(),
                                       target_radius, agree, resolution)
    return None


# ---------------------------------------------------------------------------
# Convexity, discreteness, interval closures


def convexity_check(cone: ConeOracle, predicate: ConvexPredicate, radius: int):
    """Sort the ball by the cone once and test whether the subgroup's
    members form one contiguous block.

    That is exactly the absence of f < g < h in the ball with f, h
    inside and g outside.  Returns a ConvexityCertificate when the block
    is contiguous, otherwise a counterexample made of the least member,
    the first non-member after it and the greatest member.
    """
    if predicate.context != cone.context:
        raise ContextMismatchError("incompatible groups")
    b = ball(cone.context, radius)
    ordered = sorted(b, key=cmp_to_key(
        lambda u, v: -cone.sign(u.inverse() * v)))
    inside = [predicate.contains(g) for g in ordered]
    if True in inside:
        first = inside.index(True)
        last = len(inside) - 1 - inside[::-1].index(True)
        if not all(inside[first:last]):
            gap = inside.index(False, first)
            return ConvexityCounterexample(
                cone.to_json(), predicate.to_json(), radius,
                ordered[first].to_json(), ordered[gap].to_json(),
                ordered[last].to_json())
    return ConvexityCertificate(cone.to_json(), predicate.to_json(), radius)


def discreteness_check(cone: ConeOracle, candidate_eps: GroupElement,
                       radius: int):
    """Verify no positive ball element lies strictly below the candidate.

    Returns a DiscretenessPass, or a DensityWitness naming the first
    smaller positive element found.  This stays a linear scan in ball
    order: sorting the ball as ``convexity_check`` does would cost more
    sign evaluations and change which witness is reported.
    """
    if cone.sign(candidate_eps) != 1:
        raise UsageError("candidate least element must be positive")
    for g in ball(cone.context, radius):
        if cone.sign(g) != 1 or g == candidate_eps:
            continue
        if cone.sign(g.inverse() * candidate_eps) == 1:
            return DensityWitness(cone.to_json(), candidate_eps.to_json(),
                                  g.to_json())
    return DiscretenessPass(cone.to_json(), candidate_eps.to_json(),
                            radius)


def interval_closure(cone: ConeOracle, g: GroupElement, radius: int,
                     k_max: int) -> IntervalClosureReport:
    """Ball members h with g^-k <= h <= g^k for some k <= k_max, and
    whether each of them fixes the cone under conjugation at this radius.

    Since g is positive the powers are monotone, so membership is
    decided at k = k_max directly, from the signs of h^-1 g^k and g^k h.
    """
    _int_at_least(k_max, 1, "k_max")
    if cone.sign(g) != 1:
        raise UsageError("interval element must be positive")
    top = g ** k_max
    members: list[GroupElement] = []
    for h in ball(cone.context, radius):
        below = cone.sign(h.inverse() * top)
        above = cone.sign(top * h)
        if below >= 0 and above >= 0:
            members.append(h)
    base = sign_vector(cone, radius)
    flags = []
    for h in members:
        moved = _first_disagreement(ConjugateCone(cone, h), base.ball.elements,
                                    base.signs)
        flags.append((h.to_json(), moved is None))
    return IntervalClosureReport(cone.to_json(), g.to_json(), radius,
                                 k_max, tuple(flags),
                                 all(s for _, s in flags))


# ---------------------------------------------------------------------------
# Order-property scans


@dataclass(frozen=True)
class OrderPropertyReport:
    """Violation inventories at finite resolution.

    conradian_violations  positive pairs (g, h) with g^-1 h g^2 not
                          positive: each refutes the Conradian property
                          (Navas-Rivas), so the JSON's "n_max" is always 2
    biorder_violations    pairs (g, h) with h positive but g h g^-1 negative
    stabilizer_elements   ball elements whose conjugate cone agrees with
                          the cone on the whole ball (a finite-resolution
                          over-approximation of the stabilizer)
    """

    radius: int
    conradian_violations: tuple[tuple[object, object], ...]
    biorder_violations: tuple[tuple[object, object], ...]
    stabilizer_elements: tuple[object, ...]

    def to_json(self) -> dict:
        return {"radius": self.radius, "n_max": 2,
                "conradian_violations": [list(p) for p in
                                         self.conradian_violations],
                "biorder_violations": [list(p) for p in
                                       self.biorder_violations],
                "stabilizer_elements": list(self.stabilizer_elements)}


def _conjugation_row(cone: ConeOracle, b: Ball, g: GroupElement) -> list[int]:
    """The sign of g h g^-1 for every h of the ball, in ball order.

    h -> sign(g h g^-1) is the sign function of the cone g^-1 P g, so it
    is antisymmetric and product closed: an entry takes the common sign
    of a cut (i, j) when they agree, and fixes its inverse's.  Only the
    rest call the cone, shortest first, so every cut is already set."""
    g_inverse, inverse, cuts = g.inverse(), b.inverse_position, b.cuts()
    row = [0] * len(b)
    for k, h in enumerate(b.elements):
        if not row[k]:
            s = next((row[i] for i, j in cuts[k] if row[i] == row[j]), 0)
            s = s or cone.sign(g * h * g_inverse)
            row[k], row[inverse[k]] = s, -s
    return row


def _check_certified_to(cone: ConeOracle, radius: int) -> None:
    """Refuse ``cone`` when it, or a cone it is built on, is a flip or
    replacement certified convex to a radius below ``radius``.

    Only a necessary condition: the conjugation table signs elements up
    to three times the radius, and g^-1 h g^2 reaches four times it."""
    if getattr(cone, "radius", radius) < radius:
        raise CertificateError(
            f"{cone.describe()} is certified convex only to radius "
            f"{cone.radius}, below the scan radius {radius}")
    for name in ("base", "inner", "quotient"):
        if isinstance(getattr(cone, name, None), ConeOracle):
            _check_certified_to(getattr(cone, name), radius)


def order_property_scan(cone: ConeOracle, radius: int,
                        restrict_to: ConvexPredicate | None = None
                        ) -> OrderPropertyReport:
    """Scan a ball for Conradian failures, bi-order failures, and
    cone-stabilizing elements; optionally restricted to a subgroup of
    the cone's group.  ``cone`` must satisfy the positive-cone axioms,
    from which ``_conjugation_row`` infers most table entries.

    One table answers all three: ``rows[g][h]`` is the sign of g h g^-1
    for each scanned g and each h of the whole ball.  Bi-order
    failures are its -1 entries at positive h.  An order is Conradian
    iff g^-1 h g^2 > 1 for all positive g, h (Navas-Rivas, Algebr. Geom.
    Topol. 9, 2009), so each reported pair refutes it.  ``rows[g^-1][h]``
    is the sign of g^-1 h g; when it is positive so is g^-1 h g^2 =
    (g^-1 h g) g, and only the other pairs call the cone.  As the
    subgroup is closed under inverses, g stabilizes the cone on the ball
    exactly when ``rows[g^-1]`` is the cone's sign vector.

    A flip or replacement, here or inside the cone, certified convex
    below ``radius`` raises ``CertificateError``.
    """
    _check_certified_to(cone, _int_at_least(radius, 0, "ball radius"))
    if restrict_to is not None and restrict_to.context != cone.context:
        raise ContextMismatchError("incompatible groups")
    vector = sign_vector(cone, radius)
    elements, inverse = vector.ball.elements, vector.ball.inverse_position
    names = vector.ball.element_json()
    signs = list(vector.signs)
    scanned = [i for i, g in enumerate(elements)
               if restrict_to is None or restrict_to.contains(g)]
    positives = [i for i in scanned if signs[i] == 1]
    rows = {i: _conjugation_row(cone, vector.ball, elements[i])
            for i in scanned}

    conradian = []
    for i in positives:
        g = elements[i]
        g_inverse, g_square = g.inverse(), g * g
        first = rows[inverse[i]]  # the signs of g^-1 h g
        conradian += [(names[i], names[j]) for j in positives if first[j] != 1
                      and cone.sign(g_inverse * elements[j] * g_square) != 1]

    biorder = [(names[i], names[j])
               for i in scanned for j in positives if rows[i][j] == -1]
    stabilizers = [names[i] for i in scanned if rows[inverse[i]] == signs]
    return OrderPropertyReport(radius, tuple(conradian),
                               tuple(biorder), tuple(stabilizers))


@dataclass(frozen=True)
class SoulLevelReport:
    """One chain level of the soul estimate."""

    predicate_json: dict
    description: str
    convex: bool
    conradian_ok: bool
    biorder_ok: bool

    def to_json(self) -> dict:
        return {"predicate": self.predicate_json,
                "description": self.description, "convex": self.convex,
                "conradian_ok": self.conradian_ok,
                "biorder_ok": self.biorder_ok}


@dataclass(frozen=True)
class SoulEstimate:
    """Finite-resolution estimate of the largest convex levels on which
    the restricted order looks Conradian / bi-invariant.

    Levels are indices into the chain; -1 means no level passed.  This
    is evidence at the scanned radius, not a decision about the group.
    """

    radius: int
    levels: tuple[SoulLevelReport, ...]
    best_conradian_level: int
    best_biorder_level: int

    def to_json(self) -> dict:
        return {"radius": self.radius, "n_max": 2,
                "levels": [l.to_json() for l in self.levels],
                "best_conradian_level": self.best_conradian_level,
                "best_biorder_level": self.best_biorder_level,
                "note": "finite-resolution estimate"}


def soul_estimate(cone: ConeOracle, chain: list[ConvexPredicate], radius: int
                  ) -> SoulEstimate:
    """Scan an inclusion-ordered chain of candidate convex subgroups.  A
    level is ``conradian_ok`` when ``order_property_scan`` finds no pair
    g, h with g^-1 h g^2 not positive in the restricted order."""
    # Checked even for an empty chain, which runs no scan.
    _int_at_least(radius, 0, "ball radius")
    levels = []
    best_conradian = -1
    best_biorder = -1
    for level, predicate in enumerate(chain):
        convex_result = convexity_check(cone, predicate, radius)
        is_convex = isinstance(convex_result, ConvexityCertificate)
        report = order_property_scan(cone, radius, restrict_to=predicate)
        conradian_ok = not report.conradian_violations
        biorder_ok = not report.biorder_violations
        levels.append(SoulLevelReport(predicate.to_json(),
                                      predicate.describe(), is_convex,
                                      conradian_ok, biorder_ok))
        if is_convex and conradian_ok:
            best_conradian = level
        if is_convex and biorder_ok:
            best_biorder = level
    return SoulEstimate(radius, tuple(levels), best_conradian, best_biorder)

