"""Integer linear algebra against brute-force oracles."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

from ordercone import intlinalg as la
from ordercone.intlinalg import IntMatrix

# Reference helpers: independent oracles for the decompositions below.


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free expansion (small sizes only)."""
    size = len(m)
    if size == 0:
        return 1
    if size == 1:
        return m[0][0]
    total = 0
    for c in range(size):
        if m[0][c] == 0:
            continue
        minor = [row[:c] + row[c + 1:] for row in m[1:]]
        total += (-1) ** c * m[0][c] * determinant(minor)
    return total


def maximal_minor_gcd(m: IntMatrix) -> int:
    """gcd of all maximal minors; equals the product of the elementary
    divisors, so a full-rank lattice basis is saturated iff this is 1."""
    rows = len(m)
    cols = len(m[0]) if m else 0
    r = min(rows, cols)
    if r == 0:
        return 0
    out = 0
    for row_ix in combinations(range(rows), r):
        for col_ix in combinations(range(cols), r):
            sub = [[m[i][j] for j in col_ix] for i in row_ix]
            out = gcd(out, determinant(sub))
    return abs(out)


def random_matrix(rng, rows, cols, bound=4):
    return [[rng.randint(-bound, bound) for _ in range(cols)]
            for _ in range(rows)]


def test_hermite_transform_identity():
    rng = random.Random(11)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = random_matrix(rng, rows, cols)
        h, u = la.hermite_with_transform(m)
        assert matmul(u, m) == h
        assert determinant(u) in (1, -1)


def test_smith_decomposition():
    rng = random.Random(7)
    for _ in range(80):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = random_matrix(rng, rows, cols)
        u, d, v = la.smith_with_transforms(m)
        assert matmul(matmul(u, m), v) == d
        assert determinant(u) in (1, -1)
        assert determinant(v) in (1, -1)
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        live = [x for x in diag if x]
        for a, b in zip(live, live[1:]):
            assert b % a == 0


def test_kernel_basis_spans_kernel():
    rng = random.Random(3)
    for _ in range(60):
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        m = random_matrix(rng, rows, cols, bound=3)
        kernel = la.kernel_basis(m, cols)
        for vec in kernel:
            assert all(sum(r[i] * vec[i] for i in range(cols)) == 0 for r in m)
        # Completeness: brute-force small kernel vectors must be spanned.
        for trial in range(40):
            cand = [rng.randint(-2, 2) for _ in range(cols)]
            if any(cand) and all(
                    sum(r[i] * cand[i] for i in range(cols)) == 0 for r in m):
                assert la.solve_in_row_span(kernel, cand) is not None


def test_saturation_examples():
    # {(2,0),(0,3)} saturates to all of Z^2.
    basis = la.saturation([[2, 0], [0, 3]], 2)
    assert la.solve_in_row_span(basis, [1, 0]) is not None
    assert la.solve_in_row_span(basis, [0, 1]) is not None
    # {(2,4)} saturates to the primitive line through (1,2).
    basis = la.saturation([[2, 4]], 2)
    assert len(basis) == 1
    assert tuple(basis[0]) in ((1, 2), (-1, -2))
    # Empty input saturates to the trivial subgroup.
    assert la.saturation([], 2) == []


def test_saturation_properties():
    rng = random.Random(19)
    for _ in range(50):
        k = rng.randint(1, 4)
        gens = random_matrix(rng, rng.randint(0, 3), k, bound=3)
        gens = [g for g in gens if any(g)]
        basis = la.saturation(gens, k)
        # Generators are integer combinations of the basis.
        for g in gens:
            assert la.solve_in_row_span(basis, g) is not None
        # Basis vectors have a positive multiple in the rational span.
        for b in basis:
            assert _in_rational_span(gens, b)
        # Elementary divisors of a saturated basis are all 1.
        if basis:
            assert la.elementary_divisors(basis) == [1] * len(basis)
            assert maximal_minor_gcd(basis) == 1


def _in_rational_span(gens, target):
    rows = [[Fraction(x) for x in g] for g in gens]
    target = [Fraction(x) for x in target]
    # Gaussian solve target = c . rows.
    aug = [row[:] + [Fraction(0)] * 0 for row in rows]
    matrix = list(map(list, zip(*aug))) if aug else []
    if not matrix:
        return not any(target)
    cols = len(rows)
    system = [[matrix[r][c] for c in range(cols)] + [target[r]]
              for r in range(len(target))]
    rank_pos = 0
    for col in range(cols):
        pivot = next((r for r in range(rank_pos, len(system))
                      if system[r][col] != 0), None)
        if pivot is None:
            continue
        system[rank_pos], system[pivot] = system[pivot], system[rank_pos]
        head = system[rank_pos][col]
        system[rank_pos] = [x / head for x in system[rank_pos]]
        for r in range(len(system)):
            if r != rank_pos and system[r][col] != 0:
                system[r] = [x - system[r][col] * y
                             for x, y in zip(system[r], system[rank_pos])]
        rank_pos += 1
    return all(row[-1] == 0 for row in system[rank_pos:])


def test_solve_in_row_span():
    assert la.solve_in_row_span([[1, 2]], [2, 4]) == [2]
    assert la.solve_in_row_span([[1, 2]], [1, 1]) is None
    assert la.solve_in_row_span([[2, 0]], [1, 0]) is None
    assert la.solve_in_row_span([], [0, 0]) == []

