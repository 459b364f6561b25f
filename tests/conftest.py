"""Shared test helpers, including independent oracles.

The exact Burau matrix over Z[t, 1/t] is a faithful representation of
the 3-strand braid group, so it decides equality there without touching
the Dynnikov keys or the reduction machinery under test.  Laurent
polynomials are dicts degree -> coefficient with zero coefficients
dropped.

The Garside key oracle computes the left normal form Delta^p A_1 ... A_r
(Epstein et al., *Word Processing in Groups*, ch. 9), each simple factor
stored as the lexicographic rank of its permutation; it decides equality
in every B_n and is the reference for ``braids.fingerprint``, the
Dynnikov coordinates.

The rational rank oracle is Gauss-Jordan elimination on ``Fraction``
rows; it is the reference for ``intlinalg.rational_rank`` and the
kernel sizes of ``intlinalg.kernel_basis``, which read a Smith
decomposition instead.

``compare_vectors`` compares two lattice vectors under a lex spec; the
ball-search density oracle reads it.

The window-minimum oracle signs every vector of the L1 ball with the
public ``LexConeSpec.sign``, enumerating the ball coordinate by
coordinate rather than by shells, and keeps the positive that no other
positive lies below by ``compare_vectors``; it is the reference for
``lattices.least_positive_in_ball``, which signs by the first normal's
dot pairs and reads the later normals only on a zero pair.

The lattice ball-search density oracle decides dense/discrete by
enumerating lattice shells, independently of the exact recursion in
``classify_density``.

The convexity triple scan tests every member pair against every outside
element of the ball, O(|B|^3) comparisons; it is the reference for the
sorted-ball ``lospace.convexity_check``.

The handle-reduction oracle rescans the whole word for the
earliest-closing handle and free-reduces the whole word after every
rewrite; it is the reference for ``braids.handle_reduce``, which
resumes at the rewrite junction instead.

The three-loop order-property scan signs every pair separately: each
Conradian chain g^-1 h g^m from m = 1, each conjugate g h g^-1, and the
conjugate cone of each scanned element over the whole ball; it is the
reference for ``lospace.order_property_scan``, which reads all three
answers from one conjugation table.

The element ball search runs the breadth-first search on
``GroupElement`` products, deduplicated by element equality; it is the
reference for ``groups.ball_payloads``, which keys each candidate with
one letter from its parent's key, and for the order, lengths, inverse
positions and cuts of ``groups.ball``.

The full-schedule perturbation walks every delta of the schedule at
every coordinate, rescanning the whole witness probe each time; it is
the reference for ``lattices.perturb_dense``, which stops at a
coordinate once a probe scan finds no witness.

The product-triple oracle multiplies every pair of ball elements as
``GroupElement`` values and looks the product up with the ball's ``in``
and ``position``; it is the reference for ``Ball.product_triples``,
which keys each product from its left factor's stored key.
The semigroup witness oracle runs the breadth-first search over
Dubrovina-Dubrovin generator products on ``GroupElement`` values,
deduplicated by element hashing; it is the reference for
``lospace.dd_isolation_witnesses``, which keys each candidate from its
parent's key and builds no product.  Its discovery order is also the
reference for the elements that function names when it runs out of
``max_len`` or of the frontier budget.

The census brute force tries every antisymmetric +/- assignment on a
ball and keeps the product-closed ones that honour the pins.  The
census search oracle is a backtracking search over ball positions that
sets both members of an inverse pair and scans every product triple at
a newly set position.  Both read the product-triple oracle, and both are
references for ``lospace.census``, which propagates on one literal per
inverse pair.  The library does not re-check its census output, so this
module wraps ``census`` (also where ``ordercone`` and its CLI bind it)
so that every vector a test obtains from it passes
``SignVector.validate``.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

import ordercone
from ordercone import BraidWord, GroupContext, UsageError, ball, cli, lospace
from ordercone.certificates import (ConvexityCertificate,
                                    ConvexityCounterexample)
from ordercone.cones import ConjugateCone, DubrovinaDubrovinCone
from ordercone.errors import ContextMismatchError, PerturbationError
from ordercone.groups import GroupElement, iter_lattice_shell
from ordercone.lattices import (_DELTA_FLOOR, _DELTA_START, DensityReport,
                                LexConeSpec, PerturbationResult, Vector,
                                _as_vector, classify_density)
from ordercone.quadratic import QuadScalar

Laurent = dict[int, int]


def lp(*pairs) -> Laurent:
    out: Laurent = {}
    for deg, coeff in pairs:
        if coeff:
            out[deg] = out.get(deg, 0) + coeff
            if not out[deg]:
                del out[deg]
    return out


def lp_add(a: Laurent, b: Laurent) -> Laurent:
    out = dict(a)
    for deg, coeff in b.items():
        out[deg] = out.get(deg, 0) + coeff
        if not out[deg]:
            del out[deg]
    return out


def lp_mul(a: Laurent, b: Laurent) -> Laurent:
    out: Laurent = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            deg = d1 + d2
            out[deg] = out.get(deg, 0) + c1 * c2
            if not out[deg]:
                del out[deg]
    return out


def burau_exact(word: BraidWord) -> tuple:
    """Unreduced Burau matrix of a braid word over Z[t, 1/t]."""
    n = word.n
    one, zero = lp((0, 1)), lp()
    matrix = [[one if r == c else zero for c in range(n)] for r in range(n)]
    for letter in word.letters:
        i = abs(letter) - 1
        gen = [[one if r == c else zero for c in range(n)] for r in range(n)]
        if letter > 0:
            gen[i][i] = lp((0, 1), (1, -1))      # 1 - t
            gen[i][i + 1] = lp((1, 1))           # t
            gen[i + 1][i] = one
            gen[i + 1][i + 1] = zero
        else:
            gen[i][i] = zero
            gen[i][i + 1] = one
            gen[i + 1][i] = lp((-1, 1))          # 1/t
            gen[i + 1][i + 1] = lp((0, 1), (-1, -1))  # 1 - 1/t
        matrix = [[_dot(matrix, gen, r, c, n) for c in range(n)]
                  for r in range(n)]
    return tuple(tuple(frozenset(entry.items()) for entry in row)
                 for row in matrix)


def _dot(a, b, r, c, n) -> Laurent:
    total = lp()
    for t in range(n):
        total = lp_add(total, lp_mul(a[r][t], b[t][c]))
    return total


def braids_equal_oracle(u: BraidWord, v: BraidWord) -> bool:
    """Independent equality decision, valid for 3-strand braids only."""
    assert u.n == v.n == 3, "the Burau oracle is only faithful for B_3"
    return burau_exact(u) == burau_exact(v)


def _free_reduce(letters) -> list[int]:
    out: list[int] = []
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return out


def _find_handle(letters: list[int], n: int) -> tuple[int, int] | None:
    """Position pair (p, q) of the earliest-closing handle, or None.

    ``last[i]`` tracks the most recent occurrence of index ``i`` that has
    not been separated from the scan point by any index ``< i``; a letter
    of index ``j`` therefore invalidates the entries above ``j``.
    """
    last: list[int | None] = [None] * (n + 1)
    for q, letter in enumerate(letters):
        j = abs(letter)
        for i in range(j + 1, n):
            last[i] = None
        p = last[j]
        if p is not None and letters[p] == -letter:
            return p, q
        last[j] = q
    return None


def handle_reduce_oracle(n: int, letters) -> tuple[tuple[int, ...], int]:
    """(handle-free word, rewrite count): rewrite the earliest-closing
    handle, then rescan and free-reduce the whole word, until none is left."""
    word = _free_reduce(letters)
    steps = 0
    while (found := _find_handle(word, n)) is not None:
        steps += 1
        p, q = found
        i, e = abs(word[p]), 1 if word[p] > 0 else -1
        replacement: list[int] = []
        for letter in word[p + 1:q]:
            if abs(letter) == i + 1:
                d = 1 if letter > 0 else -1
                replacement.extend((-e * (i + 1), d * i, e * (i + 1)))
            else:
                replacement.append(letter)
        word = _free_reduce(word[:p] + replacement + word[q + 1:])
    return tuple(word), steps


class _Simples:
    """The simples of B_n, each named by the lexicographic rank of its
    permutation (identity 0, Delta n! - 1), with lazily filled memos.

    ``perm`` and ``rank`` translate between a rank and its strand labels
    by position; ``letter[parity][l]`` is the simple of letter ``l`` at
    that parity of the Delta power; ``flip`` holds tau-flips, and
    ``weighted`` left-weighted pairs keyed ``(a << shift) | b``.
    """

    def __init__(self, n: int) -> None:
        self.n, self.delta = n, factorial(n) - 1
        self.shift = self.delta.bit_length()
        self.perm: dict[int, tuple[int, ...]] = {}
        self.rank: dict[tuple[int, ...], int] = {}
        self.flip: dict[int, int] = {}
        self.weighted: dict[int, tuple[int, int]] = {}
        identity, delta = tuple(range(n)), tuple(range(n - 1, -1, -1))
        self.letter = ({}, {})
        for parity, table in enumerate(self.letter):
            for i in range(1, n):
                j = i - 1 if parity == 0 else n - 1 - i
                for letter, base in ((i, identity), (-i, delta)):
                    # s_j, or Delta s_j^{-1}: swap positions j, j + 1
                    table[letter] = self.intern(
                        base[:j] + (base[j + 1], base[j]) + base[j + 2:])

    def intern(self, perm: tuple[int, ...]) -> int:
        """The rank of ``perm``, by its Lehmer code, recorded both ways."""
        rank = self.rank.get(perm)
        if rank is None:
            rank = 0
            for k, v in enumerate(perm):
                rank = rank * (self.n - k) + sum(u < v for u in perm[k + 1:])
            self.rank[perm], self.perm[rank] = rank, perm
        return rank

    def tau(self, a: int) -> int:
        """The rank of the tau-flip of ``a``: s_i -> s_{n-i}."""
        flipped = self.flip.get(a)
        if flipped is None:
            n = self.n
            flipped = self.flip[a] = self.intern(
                tuple(n - 1 - v for v in reversed(self.perm[a])))
        return flipped

    def left_weight(self, a: int, b: int) -> tuple[int, int]:
        """Simples (a', b') with a' b' = a b, left-weighted: while some s_j
        starts b (value j + 1 before j) but does not finish a (a[j] < a[j+1]),
        move it over: swap positions j, j + 1 of a and values j, j + 1 of b.
        Memoized in ``weighted``."""
        x, y = list(self.perm[a]), list(self.perm[b])
        where = sorted(range(len(y)), key=y.__getitem__)  # value -> position
        j = 0
        while j < len(x) - 1:
            if x[j] < x[j + 1] and where[j] > where[j + 1]:
                x[j], x[j + 1] = x[j + 1], x[j]
                y[where[j]], y[where[j + 1]] = j + 1, j
                where[j], where[j + 1] = where[j + 1], where[j]
                j = max(j - 1, 0)
            else:
                j += 1
        pair = self.weighted[(a << self.shift) | b] = (
            self.intern(tuple(x)), self.intern(tuple(y)))
        return pair


@functools.cache
def _simples(n: int) -> _Simples:
    return _Simples(n)


def garside_key_oracle(word: BraidWord) -> tuple[int, tuple[int, ...]]:
    """Exact key ``(p, (A_1, ..., A_r))`` of the left normal form
    Delta^p A_1 ... A_r: equal exactly when the braids are equal.

    A simple is stored as the lexicographic rank of its permutation (its
    strand labels by position).  ``s_i^{-1}`` is Delta^{-1} (Delta
    s_i^{-1}), and moving Delta^{-1} to the front flips the simples it
    passes by tau: s_i -> s_{n-i}; factors are kept flipped by tau^p and
    restored at the end.  Each new simple is left-weighted against its
    predecessors from the right, up to the first pair that does not
    change.
    """
    n = word.n
    table = _simples(n)
    of_letter, weighted = table.letter, table.weighted.get
    shift = table.shift
    p, factors = 0, []
    for letter in word.letters:
        p -= letter < 0
        b = of_letter[p & 1][letter]
        k = len(factors)
        factors.append(b)
        while k:  # left-weight b against the factors before it
            a = factors[k - 1]
            a2, b2 = weighted((a << shift) | b) or table.left_weight(a, b)
            if a2 == a:
                break
            factors[k], b, k = b2, a2, k - 1
        factors[k] = b
        if not factors[-1]:  # the identity
            factors.pop()
    if p & 1:
        factors = [table.tau(a) for a in factors]
    lead = factors.count(table.delta)  # Delta factors only lead a normal form
    return p + lead, tuple(factors[lead:])


def rational_rank_oracle(rows) -> int:
    """Rank over Q by Gaussian elimination on Fraction copies of rows."""
    work = [[Fraction(x) for x in row] for row in rows if any(row)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        head = work[rank][col]
        work[rank] = [x / head for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                work[r] = [x - work[r][col] * y
                           for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


def compare_vectors(spec: LexConeSpec, u, v) -> int:
    """Sign of v - u: positive when u < v in the order."""
    u, v = _as_vector(u, spec.k), _as_vector(v, spec.k)
    return spec.sign(tuple(b - a for a, b in zip(u, v)))


def _l1_ball(k: int, radius: int):
    """Every vector of Z^k with L1 norm <= radius, zero included, in
    lexicographic order."""
    if k == 0:
        yield ()
        return
    for c in range(-radius, radius + 1):
        for rest in _l1_ball(k - 1, radius - abs(c)):
            yield (c,) + rest


def window_minimum_oracle(spec: LexConeSpec, radius: int) -> Vector | None:
    """Order-minimum of the positive vectors with L1 norm <= radius, or
    None when the window holds no positive vector."""
    positives = [v for v in _l1_ball(spec.k, radius) if spec.sign(v) == 1]
    below = functools.cmp_to_key(lambda u, v: -compare_vectors(spec, u, v))
    return min(positives, key=below, default=None)


def _positive_below(spec: LexConeSpec, bound: Vector,
                    lo: int, hi: int) -> Vector | None:
    """First positive vector strictly below ``bound`` with norm in (lo, hi]."""
    for norm in range(lo + 1, hi + 1):
        for v in iter_lattice_shell(spec.k, norm):
            if spec.sign(v) == 1 and compare_vectors(spec, v, bound) == 1:
                return v
    return None


def ball_search_density(spec: LexConeSpec, radius: int,
                        refutation_radius: int | None = None) -> DensityReport:
    """Desk-scale density oracle, independent of the exact recursion.

    Takes the order-minimum m of the positives in the radius window,
    then tries to refute its minimality by exhibiting a positive vector
    strictly below m in balls of doubling radius.  A found witness is
    a genuine decreasing chain, so the dense verdict is sound; a miss up
    to the refutation cap is read as discrete with least m, which is
    exactly as strong as a finite window can be.  Meaningful for specs
    with small coefficients relative to the cap; used as the cross-check
    route, never as the exact answer.
    """
    minimum = window_minimum_oracle(spec, radius)
    if minimum is None:
        raise UsageError("window contained no positive vectors")
    if refutation_radius is None:
        refutation_radius = 16 * radius if spec.k <= 2 else 8 * radius
    scanned = 0
    width = radius
    while scanned < refutation_radius:
        width = min(max(2 * width, radius), refutation_radius)
        if _positive_below(spec, minimum, scanned, width) is not None:
            return DensityReport("dense", None, "ball-search")
        scanned = width
    return DensityReport("discrete", minimum, "ball-search")


def convexity_triple_scan(cone, predicate, radius):
    """Scan all triples f, h in C, g outside C for f < g < h.

    Returns a ConvexityCertificate on a clean scan, otherwise the first
    counterexample in deterministic scan order.
    """
    if predicate.context != cone.context:
        raise ContextMismatchError("incompatible groups")
    b = ball(cone.context, radius)
    signs = {g: cone.sign(g) for g in b}

    def less(u: GroupElement, v: GroupElement) -> bool:
        product = u.inverse() * v
        if product.is_identity():
            return False
        s = signs.get(product)
        if s is None:
            s = cone.sign(product)
        return s == 1

    members = [g for g in b if predicate.contains(g)]
    outside = [g for g in b if not predicate.contains(g)]
    for f in members:
        for h in members:
            for g in outside:
                if less(f, g) and less(g, h):
                    return ConvexityCounterexample(
                        cone.to_json(), predicate.to_json(), radius,
                        f.to_json(), g.to_json(), h.to_json())
    return ConvexityCertificate(cone.to_json(), predicate.to_json(), radius)


def order_property_scan_oracle(cone, radius, n_max=4, restrict_to=None):
    """``order_property_scan`` as three independent loops of sign calls."""
    b = ball(cone.context, radius)
    elements = [g for g in b
                if restrict_to is None or restrict_to.contains(g)]
    positives = [g for g in elements if cone.sign(g) == 1]

    conradian = []
    for g in positives:
        g_inverse = g.inverse()
        for h in positives:
            ok = False
            power = g_inverse * h
            for _ in range(n_max):
                power = power * g
                if cone.sign(power) == 1:
                    ok = True
                    break
            if not ok:
                conradian.append((g.to_json(), h.to_json()))

    biorder = []
    for g in elements:
        g_inverse = g.inverse()
        for h in positives:
            if cone.sign(g * h * g_inverse) == -1:
                biorder.append((g.to_json(), h.to_json()))

    base_signs = lospace.sign_vector(cone, radius).signs
    stabilizers = []
    for g in elements:
        if lospace._first_disagreement(ConjugateCone(cone, g), b.elements,
                                       base_signs) is None:
            stabilizers.append(g.to_json())

    return lospace.OrderPropertyReport(radius, n_max, tuple(conradian),
                                       tuple(biorder), tuple(stabilizers))


def element_ball_search(context: GroupContext, radius: int):
    """(payloads, word lengths, inverse positions) of the nontrivial
    radius ball, by BFS over element products deduplicated by element
    equality, in ``generators_with_inverses`` order."""
    gens = context.generators_with_inverses()
    identity = context.identity()
    seen = {identity: -1}
    members: list[GroupElement] = []
    frontier = [identity]
    for _ in range(radius):
        next_frontier = []
        for parent in frontier:
            for g in gens:
                candidate = parent * g
                if candidate not in seen:
                    seen[candidate] = len(members)
                    members.append(candidate)
                    next_frontier.append(candidate)
        frontier = next_frontier
    return ([e.payload for e in members], [e.word_length() for e in members],
            [seen[e.inverse()] for e in members])


@functools.cache
def _witness_probe(k: int) -> tuple[Vector, ...]:
    context = GroupContext.free_abelian(k)
    return tuple(element_ball_search(context, 12 if k == 2 else 6)[0])


def full_schedule_perturbation(spec: LexConeSpec,
                               required_positive) -> PerturbationResult:
    """``perturb_dense`` without its early exit: every delta from 1/8
    down to the floor is tried at every coordinate, and each admissible
    candidate rescans the whole probe from ``element_ball_search``."""
    required = [tuple(g) for g in required_positive]
    for g in required:
        if spec.sign(g) != 1:
            raise UsageError(f"required vector {g} is not positive")
    first = spec.normals[0]
    probe = [(v, spec.sign(v)) for v in _witness_probe(spec.k)]
    for j in range(spec.k):
        if any(first[p].b != 0 for p in range(spec.k) if p != j):
            continue
        if any(g[j] <= 0 for g in required if spec.dot(0, g).is_zero()):
            continue
        delta = _DELTA_START
        while delta >= _DELTA_FLOOR:
            entries = list(first)
            entries[j] = entries[j] + QuadScalar(0, delta)
            if entries[j].b == 0:
                delta /= 2
                continue
            try:
                candidate = LexConeSpec(spec.k, (tuple(entries),))
            except UsageError:
                break
            if (all(candidate.sign(g) == 1 for g in required)
                    and classify_density(candidate).verdict == "dense"):
                witness = next((v for v, s in probe
                                if candidate._sign(v) != s), None)
                if witness is not None:
                    return PerturbationResult(candidate, witness, j + 1, delta)
            delta /= 2
    raise PerturbationError("perturbation failed")


def product_triples_oracle(b) -> list[tuple[int, int, int]]:
    """Every (i, j, k) with element_i * element_j = element_k, by
    ``GroupElement`` products looked up with ``in`` and ``position``."""
    triples = []
    for i, g in enumerate(b.elements):
        for j, h in enumerate(b.elements):
            product = g * h
            if product in b:
                triples.append((i, j, b.position(product)))
    return triples


def dd_witness_bfs(n: int, radius: int, max_len: int
                   ) -> tuple[list[GroupElement], dict]:
    """The DD-positive ball elements, in ball order, and a dict mapping
    each element reached to its first path; the dict's order is the
    discovery order, identity first.  The search is breadth first over
    products of ``GroupElement`` values and the cone's generators,
    deduplicated by element equality.  It stops after ``max_len``
    factors or at the first layer that reaches every target."""
    cone = DubrovinaDubrovinCone(n)
    targets = [e for e in ball(cone.context, radius) if cone.sign(e) == 1]
    generators = cone.generators()
    identity = cone.context.identity()
    paths = {identity: ()}
    frontier = [identity]
    for _ in range(max_len):
        if all(t in paths for t in targets):
            break
        next_frontier = []
        for element in frontier:
            for i, gen in enumerate(generators):
                candidate = element * gen
                if candidate not in paths:
                    paths[candidate] = paths[element] + (f"y{i + 1}",)
                    next_frontier.append(candidate)
        frontier = next_frontier
    return targets, paths


def dd_witness_oracle(n: int, radius: int,
                      max_len: int) -> list[tuple[str, tuple[str, ...]]]:
    """(text, factor names) of each DD-positive ball element in ball
    order, from ``dd_witness_bfs``."""
    targets, paths = dd_witness_bfs(n, radius, max_len)
    return [(t.text(), paths[t]) for t in targets]


def census_brute_force(query) -> list[tuple[int, ...]]:
    """Every antisymmetric, product-closed sign tuple on the query's ball
    with the pins positive, in decreasing lexicographic order."""
    b = ball(query.context, query.radius)
    inverse = b.inverse_position
    reps = [i for i in range(len(b)) if inverse[i] > i]
    pins = [b.position(pin) for pin in query.required_positive]
    triples = product_triples_oracle(b)
    found = []
    for bits in product((1, -1), repeat=len(reps)):
        signs = [0] * len(b)
        for rep, value in zip(reps, bits):
            signs[rep] = value
            signs[inverse[rep]] = -value
        if (all(signs[p] == 1 for p in pins)
                and all(not (signs[i] == 1 and signs[j] == 1 and signs[k] != 1)
                        for i, j, k in triples)):
            found.append(tuple(signs))
    return sorted(found, reverse=True)


def census_search_oracle(query) -> list[tuple[int, ...]]:
    """The census sign tuples, in the order found, by a backtracking
    search over ball positions: both members of an inverse pair are set
    together, and every product triple at a newly set position is
    scanned for a forced sign."""
    b = ball(query.context, query.radius)
    inverse = b.inverse_position
    by_element: list[list[tuple[int, int, int]]] = [[] for _ in range(len(b))]
    for triple in product_triples_oracle(b):
        for slot in triple:
            by_element[slot].append(triple)
    signs = [0] * len(b)
    trail: list[int] = []

    def assign(pos: int, value: int) -> bool:
        queue = [(pos, value)]
        while queue:
            pos, value = queue.pop()
            if signs[pos] == value:
                continue
            if signs[pos] == -value:
                return False
            for target, v in ((pos, value), (inverse[pos], -value)):
                signs[target] = v
                trail.append(target)
                for i, j, k in by_element[target]:
                    si, sj, sk = signs[i], signs[j], signs[k]
                    if si == 1 and sj == 1:
                        queue.append((k, 1))
                    elif si == 1 and sk == -1:
                        queue.append((j, -1))
                    elif sj == 1 and sk == -1:
                        queue.append((i, -1))
        return True

    solutions: list[tuple[int, ...]] = []
    stack: list[tuple[int, int, int]] = []
    feasible = all(assign(b.position(pin), 1)
                   for pin in query.required_positive)
    while True:
        if feasible and 0 in signs:
            pos = signs.index(0)
            stack += ((pos, -1, len(trail)), (pos, 1, len(trail)))
        elif feasible:
            solutions.append(tuple(signs))
        if not stack:
            return solutions
        pos, value, mark = stack.pop()
        for touched in trail[mark:]:
            signs[touched] = 0
        del trail[mark:]
        feasible = assign(pos, value)


def _validated(census):
    @functools.wraps(census)
    def checked(query):
        vectors = census(query)
        for vector in vectors:
            vector.validate()
        return vectors
    return checked


ordercone.census = lospace.census = cli.census = _validated(lospace.census)


def random_word(rng: random.Random, n: int, max_len: int,
                min_len: int = 0) -> BraidWord:
    length = rng.randint(min_len, max_len)
    letters = []
    for _ in range(length):
        idx = rng.randint(1, n - 1)
        letters.append(idx if rng.random() < 0.5 else -idx)
    return BraidWord(n, tuple(letters))


def random_positive_word(rng: random.Random, n: int, max_len: int) -> BraidWord:
    length = rng.randint(1, max_len)
    return BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(length)))


@pytest.fixture
def b3() -> GroupContext:
    return GroupContext.braid(3)


@pytest.fixture
def b4() -> GroupContext:
    return GroupContext.braid(4)


@pytest.fixture
def klein() -> GroupContext:
    return GroupContext.klein_bottle()


@pytest.fixture
def z2() -> GroupContext:
    return GroupContext.free_abelian(2)
