"""Exact enumeration of periodic points of linear torus maps.

Period-T points of an integer unimodular map M solve (M^T - I) x = 0 mod 1.
They form a finite subgroup of the torus of order |det(M^T - I)| = |tr M^T - 2|,
enumerated exactly by Smith-diagonalizing M^T - I over the integers.  All
arithmetic is on integer numerators over a common denominator, so iterating
the map on enumerated points is exact.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .dynamics import CatMapSpec, SystemSpec, TorusPoint

MAX_PERIOD = 64


class EnumerationError(ValueError):
    """Enumeration refused (period too large or point count over budget)."""


class ConsistencyError(ValueError):
    """A point set handed to orbit grouping is not closed under the map."""


@dataclass(frozen=True)
class PeriodicPoint:
    """Exact rational periodic point num_q/den, num_p/den of period T."""

    num_q: int
    num_p: int
    den: int
    period: int

    def __post_init__(self):
        if self.den < 1 or not (0 <= self.num_q < self.den and 0 <= self.num_p < self.den):
            raise ValueError("numerators must lie in [0, den)")

    @classmethod
    def from_lattice(cls, nq: int, np_: int, den: int, period: int) -> "PeriodicPoint":
        g = math.gcd(math.gcd(nq, np_), den)
        return cls(nq // g, np_ // g, den // g, period)

    @property
    def q(self) -> Fraction:
        return Fraction(self.num_q, self.den)

    @property
    def p(self) -> Fraction:
        return Fraction(self.num_p, self.den)

    def to_torus_point(self) -> TorusPoint:
        return TorusPoint(self.num_q / self.den, self.num_p / self.den)


@dataclass(frozen=True)
class SubsystemOrbit:
    """A periodic orbit represented by its lexicographically smallest point."""

    representative: PeriodicPoint
    period: int
    primitive_period: int

    def cycle_lattice(self, m: CatMapSpec):
        """Positions (num_q[t], num_p[t]) over den for t = 0..period-1, exact."""
        rep = self.representative
        nq, np_, den = rep.num_q, rep.num_p, rep.den
        qs, ps = [], []
        for _ in range(self.period):
            qs.append(nq)
            ps.append(np_)
            nq, np_ = (m.a * nq + m.b * np_) % den, (m.c * nq + m.d * np_) % den
        return qs, ps, den

    def position_cycle(self, m: CatMapSpec) -> np.ndarray:
        qs, _, den = self.cycle_lattice(m)
        return np.array(qs, dtype=float) / den


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


@dataclass(frozen=True)
class ShiftVector:
    """Element of Z_T^L: per-site time offsets."""

    components: tuple[int, ...]
    modulus: int

    def __post_init__(self):
        if any(not (0 <= c < self.modulus) for c in self.components):
            raise ValueError("shift components must lie in {0, ..., T-1}")

    @classmethod
    def of(cls, components: Sequence[int], modulus: int) -> "ShiftVector":
        return cls(tuple(int(c) % modulus for c in components), modulus)

    @classmethod
    def zero(cls, L: int, modulus: int) -> "ShiftVector":
        return cls((0,) * L, modulus)

    def __add__(self, other: "ShiftVector") -> "ShiftVector":
        if self.modulus != other.modulus:
            raise ValueError("mismatched moduli")
        return ShiftVector.of(
            [a + b for a, b in zip(self.components, other.components)], self.modulus
        )


def map_power(m: CatMapSpec, T: int) -> tuple[int, int, int, int]:
    """Entries of M^T in exact integer arithmetic."""
    if T < 1:
        raise EnumerationError("period must be >= 1")
    if T > MAX_PERIOD:
        raise EnumerationError(
            f"period {T} exceeds the supported maximum {MAX_PERIOD}; use a smaller T"
        )
    a, b, c, d = 1, 0, 0, 1
    for _ in range(T):
        a, b, c, d = (
            m.a * a + m.b * c,
            m.a * b + m.b * d,
            m.c * a + m.d * c,
            m.c * b + m.d * d,
        )
    return a, b, c, d


def periodic_point_count(T: int, m: CatMapSpec) -> int:
    """|det(M^T - I)| = |tr M^T - 2|."""
    a, _, _, d = map_power(m, T)
    return abs(a + d - 2)


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


def enumerate_lattice(T: int, m: CatMapSpec, max_points: int = 5_000_000):
    """All period-T points as integer numerator arrays over a common denominator."""
    pa, pb, pc, pd = map_power(m, T)
    A = [[pa - 1, pb], [pc, pd - 1]]
    count = abs(A[0][0] * A[1][1] - A[0][1] * A[1][0])
    if count == 0:
        raise EnumerationError("M^T - I is singular; map is not hyperbolic")
    if count > max_points:
        raise EnumerationError(
            f"{count} period-{T} points exceed the enumeration budget {max_points}"
        )
    d1, d2, W = _smith_2x2(A)
    scale = d2 // d1
    i = np.arange(d1, dtype=np.int64)[:, None]
    j = np.arange(d2, dtype=np.int64)[None, :]
    nq = ((W[0][0] * scale % d2) * i + (W[0][1] % d2) * j) % d2
    np_ = ((W[1][0] * scale % d2) * i + (W[1][1] % d2) * j) % d2
    nq, np_ = nq.ravel(), np_.ravel()
    if len(nq) != count:
        raise ConsistencyError("Smith enumeration produced wrong point count")
    return nq, np_, int(d2)


def enumerate_periodic_points(
    T: int, m: CatMapSpec, max_points: int = 5_000_000
) -> list[PeriodicPoint]:
    """All solutions of (M^T - I) x = 0 mod 1 as exact rationals."""
    nq, np_, den = enumerate_lattice(T, m, max_points)
    return [PeriodicPoint.from_lattice(int(a), int(b), den, T) for a, b in zip(nq, np_)]


def group_into_orbits(points: Sequence[PeriodicPoint], T: int, m: CatMapSpec = None) -> list[SubsystemOrbit]:
    """Partition a complete period-T point set into cycles under the map."""
    from .dynamics import DEFAULT_MAP

    m = m or DEFAULT_MAP
    if not points:
        return []
    den = 1
    for pt in points:
        den = den * pt.den // math.gcd(den, pt.den)
    index = {}
    for k, pt in enumerate(points):
        s = den // pt.den
        index[(pt.num_q * s, pt.num_p * s)] = k
    seen = [False] * len(points)
    orbits = []
    for k, pt in enumerate(points):
        if seen[k]:
            continue
        s = den // pt.den
        cur = (pt.num_q * s, pt.num_p * s)
        cycle = []
        while True:
            if cur not in index:
                raise ConsistencyError(
                    f"cycle through point {pt} leaves the provided set; input incomplete"
                )
            ci = index[cur]
            if seen[ci]:
                break
            seen[ci] = True
            cycle.append(cur)
            cur = ((m.a * cur[0] + m.b * cur[1]) % den, (m.c * cur[0] + m.d * cur[1]) % den)
        rep = min(cycle)
        prim = len(cycle)
        if T % prim != 0:
            raise ConsistencyError("cycle length does not divide the period")
        orbits.append(
            SubsystemOrbit(
                representative=PeriodicPoint.from_lattice(rep[0], rep[1], den, T),
                period=T,
                primitive_period=prim,
            )
        )
    return orbits


def subsystem_orbits(T: int, m: CatMapSpec, max_points: int = 5_000_000) -> list[SubsystemOrbit]:
    return group_into_orbits(enumerate_periodic_points(T, m, max_points), T, m)


def family_iterator(
    spec: SystemSpec, T: int, max_points: int = 5_000_000
) -> Iterator[OrbitFamily]:
    """Cartesian product of the subsystem orbit list across the L sites, lazily."""
    orbits = subsystem_orbits(T, spec.subsystem, max_points)
    for combo in itertools.product(orbits, repeat=spec.L):
        yield OrbitFamily(reps=combo)


def _as_shift(r, L: int, T: int) -> ShiftVector:
    if isinstance(r, ShiftVector):
        if r.modulus != T or len(r.components) != L:
            raise ValueError("shift vector has wrong modulus or length")
        return r
    return ShiftVector.of(r, T)


def shift_action_lattice(family: OrbitFamily, r, m: CatMapSpec):
    """Exact per-site action of phi_0^r on the family representatives."""
    T = family.period
    shift = _as_shift(r, family.L, T)
    out = []
    for orbit, steps in zip(family.reps, shift.components):
        nq, np_, den = orbit.representative.num_q, orbit.representative.num_p, orbit.representative.den
        for _ in range(steps):
            nq, np_ = (m.a * nq + m.b * np_) % den, (m.c * nq + m.d * np_) % den
        out.append((nq, np_, den))
    return out

def shift_action(family: OrbitFamily, r, m: CatMapSpec = None) -> list[TorusPoint]:
    """phi_0^r applied to the family's representatives; r = 0 returns them as-is."""
    from .dynamics import DEFAULT_MAP

    m = m or DEFAULT_MAP
    return [TorusPoint(nq / den, np_ / den) for nq, np_, den in shift_action_lattice(family, r, m)]


def stability_amplitude_sq(T: int, m: CatMapSpec) -> float:
    """A^2 = 1 / |tr M^T - 2|, uniform over all period-T points of a linear map."""
    return 1.0 / periodic_point_count(T, m)


def sum_rule_check(T: int, m: CatMapSpec, max_points: int = 5_000_000) -> float:
    """Sum of A^2 over all enumerated period-T points; equals 1 for a chaotic map.

    For a linear map this reduces to count * (1/count), so the real oracle is
    the exact count check of acceptance 03.
    """
    nq, _, _ = enumerate_lattice(T, m, max_points)
    amp2 = stability_amplitude_sq(T, m)
    return math.fsum(amp2 for _ in range(len(nq)))


def write_orbit_inventory(path, orbits: Sequence[SubsystemOrbit]) -> None:
    """CSV dump: one row per orbit representative."""
    with open(path, "w", newline="") as f:
        f.write("# schema: sfflab/orbit_inventory v1\n")
        w = csv.writer(f)
        w.writerow(["T", "num_q", "num_p", "den", "primitive_period"])
        for o in orbits:
            r = o.representative
            w.writerow([o.period, r.num_q, r.num_p, r.den, o.primitive_period])
