"""Exact integer linear algebra at desk sizes.

One elimination, a Smith decomposition U m V = D with both unimodular
transforms, answers every question asked here: ranks (the nonzero
divisors), integer kernels (the columns of V past the rank, which span
a saturated sublattice), saturation and membership solving, which reads
a decomposition its caller keeps instead of making one.  Matrices
are lists of int rows (tuples are read as rows too); everything here is
exact and intended for dimensions of at most half a dozen.
"""

from __future__ import annotations

IntMatrix = list[list[int]]


def identity_matrix(size: int) -> IntMatrix:
    return [[1 if r == c else 0 for c in range(size)] for r in range(size)]


def matvec_left(v: list[int], m: IntMatrix) -> list[int]:
    """Row vector times matrix."""
    return [sum(v[i] * m[i][c] for i in range(len(v))) for c in range(len(m[0]))]


def kernel_basis(m: IntMatrix, width: int) -> IntMatrix:
    """Z-basis of {x in Z^width : m x = 0} for an integer matrix with
    ``width`` columns.  With U m V = D, the columns of the unimodular V
    past the rank span the kernel, which is saturated."""
    if not m:
        return identity_matrix(width)
    _, d, v = smith_with_transforms(m)
    return [[row[c] for row in v] for c in range(_rank(d), width)]


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
    d = [list(row) for row in m]
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


def _rank(d: IntMatrix) -> int:
    """Rank of a Smith form: its nonzero divisors, which come first."""
    return sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i])


def solve_in_row_span(smith: tuple[IntMatrix, IntMatrix, IntMatrix],
                      target: list[int]) -> list[int] | None:
    """Integer coefficients c with c . basis = target, or None, read off
    ``smith = smith_with_transforms(basis)``: t = target . V must vanish
    past the rank and be divisible by D before it, and c = (t / D) . U.
    ``basis`` rows need not be independent; any witness is returned.
    """
    u, d, v = smith
    if not u:
        return [] if not any(target) else None
    rank = _rank(d)
    t = matvec_left(target, v)
    if any(t[rank:]) or any(t[i] % d[i][i] for i in range(rank)):
        return None
    return matvec_left([t[i] // d[i][i] for i in range(rank)]
                       + [0] * (len(u) - rank), u)


def rational_rank(m: IntMatrix) -> int:
    """Rank over Q of integer rows: the number of nonzero Smith divisors."""
    if not m:
        return 0
    return _rank(smith_with_transforms(m)[1])
