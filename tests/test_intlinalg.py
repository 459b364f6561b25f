"""Integer linear algebra against brute-force oracles."""

import random
from itertools import combinations
from math import gcd

from ordercone import intlinalg as la
from ordercone.intlinalg import IntMatrix

from conftest import rational_rank_oracle

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
        smith = la.smith_with_transforms(kernel)
        for vec in kernel:
            assert all(sum(r[i] * vec[i] for i in range(cols)) == 0 for r in m)
        # Completeness: brute-force small kernel vectors must be spanned.
        for trial in range(40):
            cand = [rng.randint(-2, 2) for _ in range(cols)]
            if any(cand) and all(
                    sum(r[i] * cand[i] for i in range(cols)) == 0 for r in m):
                assert la.solve_in_row_span(smith, cand) is not None


def rank_test_matrix(rng) -> IntMatrix:
    """A random integer matrix whose rank often falls below both sides:
    some rows are zero, repeats or sums of earlier rows, and half of the
    matrices have tuple rows."""
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    m = random_matrix(rng, rows, cols, bound=3)
    for r in range(1, rows):
        roll = rng.random()
        if roll < 0.15:
            m[r] = [0] * cols
        elif roll < 0.3:
            m[r] = list(m[rng.randrange(r)])
        elif roll < 0.45:
            p, q = m[rng.randrange(r)], m[rng.randrange(r)]
            m[r] = [x + 2 * y for x, y in zip(p, q)]
    if rng.random() < 0.5:
        m = [tuple(row) for row in m]
    return m


def test_rank_and_kernel_against_fraction_gauss():
    rng = random.Random(29)
    seen = set()
    for _ in range(300):
        m = rank_test_matrix(rng)
        width = len(m[0])
        rank = rational_rank_oracle(m)
        assert la.rational_rank(m) == rank, m
        kernel = la.kernel_basis(m, width)
        assert len(kernel) == width - rank, m
        for vec in kernel:
            assert all(sum(x * c for x, c in zip(row, vec)) == 0 for row in m)
        if kernel:
            assert maximal_minor_gcd(kernel) == 1, m
        seen.add((width > len(m), width < len(m), rank < min(width, len(m)),
                  type(m[0]) is tuple, not all(any(row) for row in m)))
    # Every shape the docstring promises occurred.
    for i in range(5):
        assert {key[i] for key in seen} == {True, False}
    assert la.rational_rank([]) == 0
    assert la.kernel_basis([], 3) == la.identity_matrix(3)


def test_saturation_examples():
    # {(2,0),(0,3)} saturates to all of Z^2.
    smith = la.smith_with_transforms(la.saturation([[2, 0], [0, 3]], 2))
    assert la.solve_in_row_span(smith, [1, 0]) is not None
    assert la.solve_in_row_span(smith, [0, 1]) is not None
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
        u, d, v = smith = la.smith_with_transforms(basis)
        # Generators are integer combinations of the basis.
        for g in gens:
            assert la.solve_in_row_span(smith, g) is not None
        # Basis vectors have a positive multiple in the rational span.
        for b in basis:
            assert _in_rational_span(gens, b)
        # Elementary divisors of a saturated basis are all 1.
        if basis:
            assert [d[i][i] for i in range(len(basis))] == [1] * len(basis)
            assert maximal_minor_gcd(basis) == 1


def _in_rational_span(gens, target):
    return rational_rank_oracle(gens + [target]) == rational_rank_oracle(gens)


def test_solve_in_row_span():
    solve = lambda basis, target: la.solve_in_row_span(
        la.smith_with_transforms(basis), target)
    assert solve([[1, 2]], [2, 4]) == [2]
    assert solve([[1, 2]], [1, 1]) is None
    assert solve([[2, 0]], [1, 0]) is None
    assert solve([], [0, 0]) == []
    assert solve([], [0, 1]) is None
    # Dependent rows: any witness will do.
    coeff = solve([[0, 1], [0, 2], [1, 0]], [3, 5])
    assert la.matvec_left(coeff, [[0, 1], [0, 2], [1, 0]]) == [3, 5]
    assert solve([[0, 2], [0, 4]], [0, 3]) is None

