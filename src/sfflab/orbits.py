"""Exact periodic points of linear torus maps.

Period-T points of an integer unimodular map M solve (M^T - I) x = 0 mod 1.
They form a finite subgroup of the torus of order |det(M^T - I)| = |tr M^T - 2|,
described exactly by the Smith form (d1, d2, W) of M^T - I over the integers:
the points are W (i/d1, j/d2) (dynamics.lattice_points).  Counting and
sampling use that form alone; only the orbit inventory lists the points.  All
arithmetic is on integer numerators over a common denominator, so iterating
the map on the points is exact.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .dynamics import CatMapSpec, SystemSpec, lattice_points, step_arrays

MAX_PERIOD = 64
# enumerate_lattice lists at most this many points (two int64 arrays, 80 MB)
MAX_LISTED_POINTS = 5_000_000


class EnumerationError(ValueError):
    """Enumeration refused (period too large, or too many points to list)."""


class ConsistencyError(ValueError):
    """A point count or point set fails an exact check (e.g. not closed under the map)."""


@dataclass(frozen=True)
class SubsystemOrbit:
    """A periodic orbit represented by its lexicographically smallest point.

    representative is that point as the reduced fraction (num_q, num_p, den):
    gcd(num_q, num_p, den) = 1 and 0 <= num_q, num_p < den.
    """

    representative: tuple[int, int, int]
    period: int
    primitive_period: int

    def cycle_lattice(self, m: CatMapSpec):
        """Positions (num_q[t], num_p[t]) over den for t = 0..period-1, exact."""
        nq, np_, den = self.representative
        qs, ps = [], []
        for _ in range(self.period):
            qs.append(nq)
            ps.append(np_)
            nq, np_ = step_arrays(nq, np_, m, den)
        return qs, ps, den


@dataclass(frozen=True)
class OrbitFamily:
    """Tuple of L subsystem orbits of a common period T (the point Gamma_0)."""

    reps: tuple[SubsystemOrbit, ...]

    def __post_init__(self):
        periods = {o.period for o in self.reps}
        if len(periods) != 1:
            raise ValueError("all orbits in a family must share the period")

    @property
    def L(self) -> int:
        return len(self.reps)

    @property
    def period(self) -> int:
        return self.reps[0].period


def map_power(m: CatMapSpec, T: int) -> tuple[int, int, int, int]:
    """Entries of M^T in exact integer arithmetic."""
    if T < 1:
        raise EnumerationError("period must be >= 1")
    if T > MAX_PERIOD:
        raise EnumerationError(
            f"period {T} exceeds the supported maximum {MAX_PERIOD}; use a smaller T"
        )
    return _power(m, T)


def _power(m: CatMapSpec, T: int) -> tuple[int, int, int, int]:
    """Entries of M^T, T >= 0, by repeated squaring in Python ints (no period cap)."""
    a, b, c, d = 1, 0, 0, 1
    sa, sb, sc, sd = m.a, m.b, m.c, m.d
    while T:
        if T & 1:
            a, b, c, d = a * sa + b * sc, a * sb + b * sd, c * sa + d * sc, c * sb + d * sd
        sa, sb, sc, sd = sa * sa + sb * sc, sa * sb + sb * sd, sc * sa + sd * sc, sc * sb + sd * sd
        T >>= 1
    return a, b, c, d


def periodic_point_count(T: int, m: CatMapSpec) -> int:
    """|det(M^T - I)| = |tr M^T - 2|."""
    a, _, _, d = map_power(m, T)
    return abs(a + d - 2)


def lattice_fixed_count(t: int, m: CatMapSpec, N: int) -> int:
    """Number of x in (Z/N)^2 with (M^t - I) x = 0 mod N, for any t >= 1.

    The Smith invariants of M^t - I are g, the gcd of its entries, and
    |det(M^t - I)|/g, so the count is gcd(N, g) gcd(N, |det(M^t - I)|/g).
    For the untranslated quantized map u at dimension N it equals |tr u^t|^2
    (Hannay & Berry, Physica D 1, 267 (1980); Keating, Nonlinearity 4, 309
    (1991)).  Python ints throughout, so there is no MAX_PERIOD cap.
    """
    if t < 1:
        raise EnumerationError("period must be >= 1")
    a, b, c, d = _power(m, t)
    a, d = a - 1, d - 1
    g = math.gcd(a, b, c, d)  # nonzero: a hyperbolic M^t has no eigenvalue 1
    return math.gcd(N, g) * math.gcd(N, abs(a * d - b * c) // g)


def _smith_2x2(A):
    """Reduce integer A (det != 0) to diag(d1, d2) with d1 | d2 by unimodular ops.

    Returns (d1, d2, W) where the solutions of A x = 0 mod Z^2 are exactly
    x = W @ (i/d1, j/d2) mod 1 for i in [0, d1), j in [0, d2).
    """
    a = [[int(A[0][0]), int(A[0][1])], [int(A[1][0]), int(A[1][1])]]
    W = [[1, 0], [0, 1]]

    def col_op(j, k, f):
        a[0][j] += f * a[0][k]
        a[1][j] += f * a[1][k]
        W[0][j] += f * W[0][k]
        W[1][j] += f * W[1][k]

    def col_swap():
        a[0][0], a[0][1] = a[0][1], a[0][0]
        a[1][0], a[1][1] = a[1][1], a[1][0]
        W[0][0], W[0][1] = W[0][1], W[0][0]
        W[1][0], W[1][1] = W[1][1], W[1][0]

    while True:
        while a[0][1] != 0 or a[1][0] != 0:
            if a[0][0] == 0:
                if a[1][0] != 0:
                    a[0], a[1] = a[1], a[0]
                else:
                    col_swap()
            while a[1][0] != 0:
                f = a[1][0] // a[0][0]
                a[1][0] -= f * a[0][0]
                a[1][1] -= f * a[0][1]
                if a[1][0] != 0:
                    a[0], a[1] = a[1], a[0]
            while a[0][1] != 0:
                f = a[0][1] // a[0][0]
                col_op(1, 0, -f)
                if a[0][1] != 0:
                    col_swap()
        if a[0][0] < 0:
            a[0][0] = -a[0][0]
        if a[1][1] < 0:
            a[1][1] = -a[1][1]
        if a[1][1] % a[0][0] == 0:
            return a[0][0], a[1][1], W
        col_op(0, 1, 1)


def smith_lattice(T: int, m: CatMapSpec):
    """Smith form (d1, d2, W) of M^T - I; the period-T points number d1 * d2.

    Refuses a singular M^T - I and checks d1 * d2 = |det(M^T - I)|.  No
    point is built, so any T <= MAX_PERIOD is counted.
    """
    pa, pb, pc, pd = map_power(m, T)
    A = [[pa - 1, pb], [pc, pd - 1]]
    count = abs(A[0][0] * A[1][1] - A[0][1] * A[1][0])
    if count == 0:
        raise EnumerationError("M^T - I is singular; map is not hyperbolic")
    d1, d2, W = _smith_2x2(A)
    if d1 * d2 != count:
        raise ConsistencyError("Smith form does not match the period-T point count")
    return d1, d2, W


def enumerate_lattice(T: int, m: CatMapSpec):
    """All period-T points as integer numerator arrays over a common denominator.

    Point i * d2 + j is lattice_points at (i, j).  Refuses more than
    MAX_LISTED_POINTS points.
    """
    d1, d2, _ = smith = smith_lattice(T, m)
    if d1 * d2 > MAX_LISTED_POINTS:
        raise EnumerationError(
            f"{d1 * d2} period-{T} points exceed the enumeration budget {MAX_LISTED_POINTS}"
        )
    nq, np_ = lattice_points(smith, np.arange(d1, dtype=np.int64)[:, None],
                             np.arange(d2, dtype=np.int64)[None, :])
    return nq.ravel(), np_.ravel(), int(d2)


def _group_lattice(nq, np_, den: int, T: int, m: CatMapSpec) -> list[SubsystemOrbit]:
    """Cycles of the map on a lattice point set over den, in order of first appearance.

    Each point is mapped to the index of its image; T steps of that
    permutation give every point its cycle's smallest key (the
    lexicographically smallest point), first index and primitive period.
    """
    key = nq * den + np_
    order = np.argsort(key)
    iq, ip = step_arrays(nq, np_, m, den)
    img_key = iq * den + ip
    pos = np.minimum(np.searchsorted(key[order], img_key), len(key) - 1)
    if not np.array_equal(key[order[pos]], img_key):
        raise ConsistencyError("a cycle leaves the provided point set; input incomplete")
    image = order[pos]
    idx = np.arange(len(key))
    cur, first, low = idx, idx, key
    prim = np.zeros(len(key), dtype=np.int64)
    for t in range(1, T + 1):
        cur = image[cur]
        first = np.minimum(first, cur)
        low = np.minimum(low, key[cur])
        prim[(prim == 0) & (cur == idx)] = t
    if (prim == 0).any() or (T % prim).any():
        raise ConsistencyError("cycle length does not divide the period")
    heads = np.flatnonzero(first == idx)
    rq, rp = np.divmod(low[heads], den)
    g = np.gcd(np.gcd(rq, rp), den)
    return [
        SubsystemOrbit((a, b, d), T, p)
        for a, b, d, p in zip((rq // g).tolist(), (rp // g).tolist(), (den // g).tolist(),
                              prim[heads].tolist())
    ]


def subsystem_orbits(T: int, m: CatMapSpec) -> list[SubsystemOrbit]:
    """Period-T orbits of the map, grouped on the enumerated lattice arrays."""
    nq, np_, den = enumerate_lattice(T, m)
    return _group_lattice(nq, np_, den, T, m)


def family_iterator(spec: SystemSpec, T: int) -> Iterator[OrbitFamily]:
    """Cartesian product of the subsystem orbit list across the L sites, lazily."""
    orbits = subsystem_orbits(T, spec.subsystem)
    for combo in itertools.product(orbits, repeat=spec.L):
        yield OrbitFamily(reps=combo)


def as_shift(r, L: int, T: int) -> tuple[int, ...]:
    """The shift r in Z_T^L as a tuple of components reduced into {0, ..., T-1}."""
    if len(r) != L:
        raise ValueError("shift vector has wrong length")
    return tuple(int(c) % T for c in r)


def stability_amplitude_sq(T: int, m: CatMapSpec) -> float:
    """A^2 = 1 / |tr M^T - 2|, uniform over all period-T points of a linear map."""
    return 1.0 / periodic_point_count(T, m)


def sum_rule_check(T: int, m: CatMapSpec) -> float:
    """Sum of A^2 over all period-T points; equals 1 for a chaotic map.

    For a linear map every point carries the same A^2, so the sum is the
    Smith count d1 * d2 times A^2, the correctly rounded product (what an
    exact sum of count equal terms rounds to).  The real oracle is the exact
    count check of acceptance 03.
    """
    d1, d2, _ = smith_lattice(T, m)
    return d1 * d2 * stability_amplitude_sq(T, m)
