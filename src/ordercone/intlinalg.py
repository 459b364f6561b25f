"""Exact integer linear algebra at desk sizes.

Row-style Hermite reduction with a tracked unimodular transform gives
integer kernels (which are automatically saturated sublattices), and a
Smith decomposition with both transforms gives saturation tests, basis
completion, and membership solving.  Matrices are lists of lists of
Python ints; everything here is exact and intended for dimensions of at
most half a dozen.
"""

from __future__ import annotations

from fractions import Fraction

IntMatrix = list[list[int]]


def identity_matrix(size: int) -> IntMatrix:
    return [[1 if r == c else 0 for c in range(size)] for r in range(size)]


def matvec_left(v: list[int], m: IntMatrix) -> list[int]:
    """Row vector times matrix."""
    return [sum(v[i] * m[i][c] for i in range(len(v))) for c in range(len(m[0]))]


def hermite_with_transform(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row echelon form over Z: returns (H, U) with U m = H, U unimodular."""
    rows = len(m)
    h = [row[:] for row in m]
    u = identity_matrix(rows)
    pivot_row = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        # Euclid within the column until at most one nonzero entry remains
        # at or below the pivot row.
        while True:
            live = [r for r in range(pivot_row, rows) if h[r][col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda r: abs(h[r][col]))
            small, other = live[0], live[1]
            q = h[other][col] // h[small][col]
            h[other] = [x - q * y for x, y in zip(h[other], h[small])]
            u[other] = [x - q * y for x, y in zip(u[other], u[small])]
        live = [r for r in range(pivot_row, rows) if h[r][col] != 0]
        if not live:
            continue
        r = live[0]
        if r != pivot_row:
            h[r], h[pivot_row] = h[pivot_row], h[r]
            u[r], u[pivot_row] = u[pivot_row], u[r]
        if h[pivot_row][col] < 0:
            h[pivot_row] = [-x for x in h[pivot_row]]
            u[pivot_row] = [-x for x in u[pivot_row]]
        for r in range(pivot_row):
            q = h[r][col] // h[pivot_row][col]
            if q:
                h[r] = [x - q * y for x, y in zip(h[r], h[pivot_row])]
                u[r] = [x - q * y for x, y in zip(u[r], u[pivot_row])]
        pivot_row += 1
    return h, u


def kernel_basis(m: IntMatrix, width: int) -> IntMatrix:
    """Z-basis of {x in Z^width : m x = 0} for an integer matrix with
    ``width`` columns.  The kernel of integer functionals is saturated."""
    if not m:
        return identity_matrix(width)
    transposed = [[m[r][c] for r in range(len(m))] for c in range(width)]
    h, u = hermite_with_transform(transposed)
    return [u[r] for r in range(width) if not any(h[r])]


def saturation(generators: IntMatrix, width: int) -> IntMatrix:
    """Z-basis of the smallest saturated sublattice of Z^width containing
    the generators: the double integer-orthogonal complement."""
    if not generators:
        return []
    return kernel_basis(kernel_basis(generators, width), width)


def smith_with_transforms(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith decomposition: returns (U, D, V) with U m V = D diagonal,
    U and V unimodular, and each diagonal entry dividing the next."""
    rows = len(m)
    cols = len(m[0]) if m else 0
    d = [row[:] for row in m]
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        d[dst] = [x + q * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    while t < min(rows, cols):
        pivot = min(((abs(d[r][c]), r, c)
                     for r in range(t, rows) for c in range(t, cols)
                     if d[r][c] != 0), default=None)
        if pivot is None:
            break
        _, pr, pc = pivot
        swap_rows(t, pr)
        swap_cols(t, pc)
        dirty = False
        for r in range(t + 1, rows):
            q = d[r][t] // d[t][t]
            if q:
                add_row(t, r, -q)
            if d[r][t]:
                dirty = True
        for c in range(t + 1, cols):
            q = d[t][c] // d[t][t]
            if q:
                add_col(t, c, -q)
            if d[t][c]:
                dirty = True
        if dirty:
            continue
        # Pivot must divide the whole remaining block for the divisor chain.
        offender = next(((r, c) for r in range(t + 1, rows)
                         for c in range(t + 1, cols)
                         if d[r][c] % d[t][t] != 0), None)
        if offender is not None:
            add_row(offender[0], t, 1)
            continue
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, d, v


def elementary_divisors(m: IntMatrix) -> list[int]:
    _, d, _ = smith_with_transforms(m)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i]]


def solve_in_row_span(basis: IntMatrix, target: list[int]) -> list[int] | None:
    """Integer coefficients c with c . basis = target, or None.

    ``basis`` rows need not be independent; any witness is returned.
    """
    if not basis:
        return [] if not any(target) else None
    u, d, v = smith_with_transforms(basis)
    rank = sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i])
    tv = matvec_left(target, v)
    coeff = [0] * len(basis)
    for i in range(len(tv)):
        if i < rank:
            if tv[i] % d[i][i] != 0:
                return None
            coeff[i] = tv[i] // d[i][i]
        elif tv[i] != 0:
            return None
    return matvec_left(coeff, u)


def rational_rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q by Gaussian elimination on Fraction rows."""
    work = [row[:] for row in rows if any(row)]
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
