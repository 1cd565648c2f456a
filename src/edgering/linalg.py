"""Exact integer and rational linear algebra for the cone machinery:
edge exponent vectors, the rank of integer rows by fraction-free
Gaussian elimination, and a rational phase-1 simplex feasibility test.
No floating point anywhere.  Edge lattice membership has a closed form
and lives in ``semigroup.in_lattice``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Edge = tuple[int, int]


def rho_vector(d: int, e: Edge) -> tuple[int, ...]:
    """0/1 exponent vector of an edge: ones at both endpoints."""
    i, j = e
    if not (1 <= i < j <= d):
        raise ValueError(f"edge {e} outside 1..{d}")
    v = [0] * d
    v[i - 1] = 1
    v[j - 1] = 1
    return tuple(v)


def integer_rank(rows: Sequence[Sequence[int]], dim: int | None = None) -> int:
    """Rank over Q of integer row vectors, by fraction-free (Bareiss)
    Gaussian elimination: every entry below the pivot rows is a minor of
    the input, so the division by the previous pivot is exact."""
    mat = [list(row) for row in rows]
    if dim is None:
        if not mat:
            raise ValueError("cannot infer dimension of an empty row list")
        dim = len(mat[0])
    if any(len(row) != dim for row in mat):
        raise ValueError("dimension mismatch")
    rank, prev = 0, 1
    for col in range(dim):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][col]
            mat[i] = [(top[col] * a - f * b) // prev for a, b in zip(mat[i], top)]
        prev = top[col]
        rank += 1
    return rank


def in_rational_cone(generators: Sequence[Sequence[int]], target: Sequence[int]) -> bool:
    """Exact feasibility of target = sum lambda_g * g with rational
    lambda >= 0, decided by a phase-1 simplex over Fractions.

    Bland's rule on both the entering and leaving choice guarantees
    termination.  Feasible iff the artificial objective reaches zero.
    """
    n = len(generators)
    if n == 0:
        return all(t == 0 for t in target)
    m = len(target)
    for gvec in generators:
        if len(gvec) != m:
            raise ValueError("generator dimension mismatch")

    # rows: A lambda = b with b >= 0 after sign normalization
    tab: list[list[Fraction]] = []
    for i in range(m):
        sign = -1 if target[i] < 0 else 1
        row = [Fraction(sign * gvec[i]) for gvec in generators]
        row += [Fraction(1) if k == i else Fraction(0) for k in range(m)]
        row.append(Fraction(sign * target[i]))
        tab.append(row)
    ncols = n + m
    basis = [n + i for i in range(m)]

    # minimize w = sum of artificials; reduced costs with artificial basis
    obj = [Fraction(0)] * (ncols + 1)
    for j in range(ncols):
        cj = Fraction(1) if j >= n else Fraction(0)
        obj[j] = cj - sum(tab[i][j] for i in range(m))
    obj[ncols] = -sum(tab[i][ncols] for i in range(m))

    while True:
        enter = None
        for j in range(ncols):
            if obj[j] < 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][ncols] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            # unbounded phase-1 objective cannot happen (w >= 0); defensive
            raise ArithmeticError("phase-1 simplex detected unbounded direction")
        piv = tab[leave][enter]
        tab[leave] = [t / piv for t in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [t - f * s for t, s in zip(tab[i], tab[leave])]
        if obj[enter]:
            f = obj[enter]
            obj = [t - f * s for t, s in zip(obj, tab[leave])]
        basis[leave] = enter

    return obj[ncols] == 0
