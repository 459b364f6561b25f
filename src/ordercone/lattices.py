"""Exact left orderings of Z^k by chains of hyperplane normals over Q(sqrt 2).

A ``LexConeSpec`` orders Z^k by the sign of the first nonzero dot
product against an ordered list of normal vectors with entries in
Q(sqrt 2).  Each normal contributes two rational functionals (the
rational and the sqrt-2 part of the dot product).  The spec scales each
pair to integer rows once, at construction, and that is the only form
read afterwards: validity (no nonzero lattice vector orthogonal to every
normal), signs and kernels are decided exactly from it.

Density classification peels normals recursively: the integer kernel L
of the first normal carries the refinement order given by the remaining
rows, restricted to L through its basis, and its positives sit below
everything the first normal already separates, so the whole order has a
least positive element exactly when the restriction to L does.  When L is trivial the first
normal embeds the lattice in the reals, where a subgroup of rank 2 or
more is never discrete.  Discrete verdicts are cross-checked against a
brute-force ball search and the operation fails loudly on disagreement;
a dense verdict cannot be refuted by any finite window, so the window
check for it is one-directional.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import intlinalg
from .errors import (CrossCheckError, PerturbationError, UsageError,
                     _field, _int_at_least, _int_field)
from .groups import iter_lattice_shell
from .quadratic import QuadScalar, sqrt2_sign

Vector = tuple[int, ...]
Normal = tuple[QuadScalar, ...]

_DELTA_START = Fraction(1, 8)
_DELTA_FLOOR = Fraction(1, 2 ** 64)

#: Difference-witness probe radius for perturbations.
_WITNESS_RADIUS = 12
#: Largest ball radius of the classify cross-check window.
_CHECK_RADIUS = 12


def _as_vector(v, k: int) -> Vector:
    """A list or tuple of k integers as a tuple, else UsageError."""
    if not (isinstance(v, (list, tuple)) and all(type(c) is int for c in v)):
        raise UsageError(f"{v!r} is not a list of integers")
    if len(v) != k:
        raise UsageError(f"expected a vector of dimension {k}, got {len(v)}")
    return tuple(v)


@dataclass(frozen=True)
class LexConeSpec:
    """An exact total left order of Z^k: sign of the first nonzero dot.

    ``_int_normals`` is the one exact form that validity, signs and
    density read: each normal scaled by a positive integer so that its
    rational and sqrt-2 rows are integral, which changes no sign and no
    kernel.
    """

    k: int
    normals: tuple[Normal, ...]

    def __post_init__(self) -> None:
        _int_at_least(self.k, 1, "lattice dimension k")
        if not self.normals:
            raise UsageError("a lex spec needs at least one normal")
        normals = tuple(tuple(e if isinstance(e, QuadScalar) else QuadScalar(e)
                              for e in normal)
                        for normal in self.normals)
        object.__setattr__(self, "normals", normals)
        int_normals = []
        for normal in normals:
            if len(normal) != self.k:
                raise UsageError(f"normal {normal!r} has wrong dimension")
            denom = lcm(*(x.denominator for e in normal for x in (e.a, e.b)))
            int_normals.append((tuple(int(e.a * denom) for e in normal),
                                tuple(int(e.b * denom) for e in normal)))
        object.__setattr__(self, "_int_normals", tuple(int_normals))
        if intlinalg.rational_rank([row for pair in int_normals
                                    for row in pair]) < self.k:
            raise UsageError(
                "invalid spec: some nonzero lattice vector is orthogonal "
                "to every normal")

    def dot(self, normal_index: int, v: Vector) -> QuadScalar:
        total = QuadScalar()
        for entry, coord in zip(self.normals[normal_index], v):
            total = total + entry * coord
        return total

    def sign(self, v) -> int:
        return self._sign(_as_vector(v, self.k))

    def _sign(self, v: Vector) -> int:
        """``sign`` of a vector already known to be a tuple of k ints."""
        for a_row, b_row in self._int_normals:
            a = b = 0
            for x, y, c in zip(a_row, b_row, v):
                a += x * c
                b += y * c
            if a or b:
                return sqrt2_sign(a, b)
        return 0

    def to_json(self) -> dict:
        return {"k": self.k,
                "normals": [[entry.to_json() for entry in normal]
                            for normal in self.normals]}

    @classmethod
    def from_json(cls, data: dict) -> "LexConeSpec":
        try:
            normals = tuple(tuple(QuadScalar.from_json(entry) for entry in normal)
                            for normal in _field(data, "normals"))
            return cls(_int_field(data, "k"), normals)
        except TypeError as exc:
            raise UsageError(f"bad lex spec payload: {exc}") from exc


@dataclass(frozen=True)
class DensityReport:
    """Outcome of a density classification: discrete orders carry their
    least positive element, dense ones carry none."""

    verdict: str  # "dense" | "discrete"
    least_positive: Vector | None
    method: str  # "exact-recursive" | "ball-search"

    def __post_init__(self) -> None:
        if (self.verdict == "discrete") != (self.least_positive is not None):
            raise UsageError("verdict is discrete iff least_positive is present")

    def to_json(self) -> dict:
        return {"verdict": self.verdict,
                "least_positive": list(self.least_positive)
                if self.least_positive is not None else None,
                "method": self.method}


def _classify(k: int, int_normals) -> Vector | None:
    """Least positive element in basis coordinates, or None when dense,
    for the order given by integer (rational, sqrt-2) row pairs."""
    if not int_normals:
        raise AssertionError("recursion exhausted normals on a nonzero lattice")
    (a, b), rest = int_normals[0], int_normals[1:]
    kernel = intlinalg.kernel_basis((a, b), k)
    rank = len(kernel)
    if rank == 0:
        if k == 1:
            return (sqrt2_sign(a[0], b[0]),)
        # The first normal embeds a rank >= 2 lattice into the reals;
        # such a subgroup is never discrete.
        return None
    if rank == k:
        # The first normal vanishes identically; peel it.
        return _classify(k, rest)
    restricted = [tuple(tuple(sum(x * c for x, c in zip(row, basis_vec))
                              for basis_vec in kernel) for row in pair)
                  for pair in rest]
    sub_least = _classify(rank, restricted)
    if sub_least is None:
        return None
    lifted = [0] * k
    for coeff, basis_vec in zip(sub_least, kernel):
        for i, c in enumerate(basis_vec):
            lifted[i] += coeff * c
    return tuple(lifted)


def least_positive_in_ball(spec: LexConeSpec, radius: int) -> Vector | None:
    """Order-minimum of the positive vectors with L1 norm <= radius, read
    shell by shell in ball order; a radius that is not a nonnegative
    ``int`` is refused, as ``groups.ball`` refuses it.  Each
    vector's dot pair (a, b) with the first normal's integer rows is
    computed once.  Dots are linear, so the vector is positive when
    a + b*sqrt(2) > 0 and below the best so far when the difference of
    the pairs is; ``_sign`` reads the later normals only on a (0, 0) pair."""
    _int_at_least(radius, 0, "ball radius")
    a_row, b_row = spec._int_normals[0]
    best: Vector | None = None
    for norm in range(1, radius + 1):
        for v in iter_lattice_shell(spec.k, norm):
            a = b = 0
            for x, y, c in zip(a_row, b_row, v):
                a += x * c
                b += y * c
            if (sqrt2_sign(a, b) if a or b else spec._sign(v)) != 1:
                continue
            if best is None or (
                    sqrt2_sign(best_a - a, best_b - b)
                    if best_a != a or best_b != b else
                    spec._sign(tuple(y - x for x, y in zip(v, best)))) == 1:
                best, best_a, best_b = v, a, b
    return best


def classify_density(spec: LexConeSpec) -> DensityReport:
    """Exact dense/discrete verdict with the least positive element.

    A discrete verdict is checked against ``least_positive_in_ball`` at
    radius min(12, max(norm, 4)), a fixed window, norm being the least
    element's L1 norm.  The window minimum must equal the least element
    when the window holds it, and must not lie below it by ``_sign``
    otherwise; a disagreement raises CrossCheckError."""
    least = _classify(spec.k, spec._int_normals)
    if least is None:
        return DensityReport("dense", None, "exact-recursive")
    norm = sum(abs(c) for c in least)
    check_radius = min(_CHECK_RADIUS, max(norm, 4))
    window_min = least_positive_in_ball(spec, check_radius)
    if norm <= check_radius:
        if window_min != least:
            raise CrossCheckError(
                f"exact least {least} disagrees with ball search {window_min}")
    elif window_min is not None and spec._sign(
            tuple(b - a for a, b in zip(window_min, least))) == 1:
        raise CrossCheckError(
            f"ball search found {window_min} below the exact least {least}")
    return DensityReport("discrete", least, "exact-recursive")


@dataclass(frozen=True)
class PerturbationResult:
    """A dense single-normal spec close to the input, with evidence."""

    spec: LexConeSpec
    witness: Vector  # lattice vector on which input and output disagree
    coordinate: int  # 1-based index of the perturbed entry
    delta: Fraction

    def to_json(self) -> dict:
        return {"spec": self.spec.to_json(), "witness": list(self.witness),
                "coordinate": self.coordinate, "delta": str(self.delta)}


def perturb_dense(spec: LexConeSpec, required_positive) -> PerturbationResult:
    """Tilt the first normal into a dense order keeping pinned vectors positive.

    Candidate normals are n1 + delta*sqrt(2)*e_j for j = 1, 2 and delta
    halving from 1/8; the first that keeps the pins positive and has a
    difference witness within the probe radius 12 wins.  A single
    normal over Q(sqrt 2) has two integer rows, so it orders Z^k totally
    only for k <= 2 and is never dense on Z^1: other k are refused at
    once (dense orders there compose ``saturate`` and
    ``extend_by_quotient``).  On Z^2 a tilt of entry j is valid exactly
    when the other entry is rational and nonzero, whatever delta is, and
    a valid single normal embeds Z^2 in the reals, so it is dense.

    For fixed j, halving delta only shrinks the set of vectors on which
    the candidate disagrees with the input.  With alpha = n1 . v, it
    disagrees exactly when delta*sqrt(2)*|v_j| >= |alpha| with the
    opposite sign (alpha != 0), or when sign(v_j) differs from the
    input's sign, whatever delta is (alpha = 0).  So a probe scan, in
    ball order up to the first disagreement, that finds no witness ends
    the search at that j.
    """
    required = [_as_vector(g, spec.k) for g in required_positive]
    for g in required:
        if spec._sign(g) != 1:
            raise UsageError(f"required vector {g} is not positive under the spec")
    first = spec.normals[0]
    tilts = ((0, first[1]), (1, first[0])) if spec.k == 2 else ()
    witness_free = False
    for j, other in tilts:
        if other.b != 0 or other.a == 0:
            continue  # no tilt of entry j is a valid single normal
        if any(g[j] <= 0 for g in required if spec.dot(0, g).is_zero()):
            continue  # a pinned vector rides the hyperplane on the wrong side
        delta = _DELTA_START
        while delta >= _DELTA_FLOOR:
            entries = list(first)
            entries[j] = entries[j] + QuadScalar(0, delta)
            if entries[j].b != 0:
                candidate = LexConeSpec(2, (tuple(entries),))
                if all(candidate._sign(g) == 1 for g in required):
                    witness = next(
                        (v for norm in range(1, _WITNESS_RADIUS + 1)
                         for v in iter_lattice_shell(2, norm)
                         if candidate._sign(v) != spec._sign(v)), None)
                    if witness is not None:
                        return PerturbationResult(candidate, witness, j + 1,
                                                  delta)
                    witness_free = True
                    break  # smaller deltas disagree on fewer vectors
            delta /= 2
    raise PerturbationError(
        "perturbation failed: no admissible tilt has a difference witness "
        f"within radius {_WITNESS_RADIUS} (k = 2)" if witness_free else
        "perturbation failed: no admissible tilt at the configured precision "
        f"(k = {spec.k}; dense single-normal specs over Q(sqrt 2) need k = 2)")


def saturate(k: int, generators) -> tuple[Vector, ...]:
    """Basis rows of the smallest saturated sublattice of Z^k containing
    the generators.

    Computed as the double integer-orthogonal complement; the quotient
    by the result is torsion free by construction.
    """
    gens = tuple(_as_vector(g, k) for g in generators)
    return tuple(tuple(row) for row in intlinalg.saturation(gens, k))


def extend_by_quotient(inner: LexConeSpec | None, basis,
                       outer: LexConeSpec) -> LexConeSpec:
    """Order Z^k by the quotient order first, refined by the inner order.

    ``basis`` spans a saturated sublattice L of Z^k; ``inner`` orders L
    in basis coordinates and ``outer`` orders the quotient Z^k / L.  The
    result stacks the lifted outer normals above the inner normals
    pulled back through the dual coordinates, so a vector is compared by
    its coset first and within L only when the coset is trivial.  An
    empty basis (trivial L) returns ``outer`` unchanged.
    """
    basis = list(basis)
    if not basis:
        return outer
    k = len(basis[0])
    basis = [_as_vector(b, k) for b in basis]
    r = len(basis)
    if inner is None:
        raise UsageError("a nonempty basis needs an inner spec")
    if inner.k != r:
        raise UsageError(f"inner spec has dimension {inner.k}, basis rank is {r}")
    if outer.k != k - r:
        raise UsageError(
            f"outer spec has dimension {outer.k}, quotient rank is {k - r}")
    from .cones import LatticeSublatticePredicate
    u, v = LatticeSublatticePredicate(k, basis).completion()
    quotient = [v[row][r:] for row in range(k)]
    inside = [[sum(v[row][t] * u[t][s] for t in range(r)) for s in range(r)]
              for row in range(k)]
    return LexConeSpec(k, tuple(
        tuple(order.dot(i, coords[row]) for row in range(k))
        for order, coords in ((outer, quotient), (inner, inside))
        for i in range(len(order.normals))))


def restrict_to_sublattice(spec: LexConeSpec, basis) -> LexConeSpec:
    """The order induced on a sublattice, in its basis coordinates."""
    basis = [_as_vector(b, spec.k) for b in basis]
    return LexConeSpec(len(basis), tuple(
        tuple(spec.dot(i, b) for b in basis) for i in range(len(spec.normals))))
