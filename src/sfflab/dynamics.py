"""Coupled cat-map dynamics on the L-fold 2-torus.

Concrete map family: a linear cat map per site, coupled by a position kick
through the pair potential v(q, q') = cos(2*pi*(q - q' + offset)).  The
first-order interaction observable is w(x, y) = cos(2*pi*(q_x - q_y)), a
mean-zero pair function whose correlation functions vanish identically for
any nonzero site-wise time shift (trigonometric observables of a hyperbolic
linear map never return to their own Fourier mode).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .util import mod1, philox

TWO_PI = 2.0 * math.pi

NEAREST_NEIGHBOUR = "nearest-neighbour-periodic"
ALL_TO_ALL = "all-to-all"
TOPOLOGIES = (NEAREST_NEIGHBOUR, ALL_TO_ALL)


class SpecError(ValueError):
    """Invalid system specification."""


@dataclass(frozen=True)
class CatMapSpec:
    """Integer unimodular matrix [[a, b], [c, d]]; hyperbolic: |a + d| > 2."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for v in (self.a, self.b, self.c, self.d):
            if not isinstance(v, int):
                raise SpecError("cat-map entries must be integers")
        if self.a * self.d - self.b * self.c != 1:
            raise SpecError("cat map must have determinant 1")
        if abs(self.a + self.d) <= 2:
            raise SpecError("cat map must be hyperbolic: |a + d| > 2")


DEFAULT_MAP = CatMapSpec(2, 1, 1, 1)


@dataclass(frozen=True)
class SystemSpec:
    """Coupled system: L homogeneous cat-map sites plus a pair interaction."""

    L: int
    subsystem: CatMapSpec = DEFAULT_MAP
    amplitude: float = 1.0
    topology: str = NEAREST_NEIGHBOUR
    epsilon: float = 0.0

    def __post_init__(self):
        if self.L < 1:
            raise SpecError("L must be >= 1")
        if self.topology not in TOPOLOGIES:
            raise SpecError(f"unknown topology {self.topology!r}")
        if self.topology == NEAREST_NEIGHBOUR and self.L < 2:
            raise SpecError("nearest-neighbour-periodic topology requires L >= 2")
        if self.epsilon < 0:
            raise SpecError("epsilon must be >= 0")


@dataclass(frozen=True)
class CorrelationEstimate:
    """Monte Carlo estimate of C_w(shift) with the mean subtracted."""

    shift: tuple[int, ...]
    value: float
    std_error: float
    samples: int
    seed: int

    def __post_init__(self):
        if self.std_error < 0:
            raise SpecError("std_error must be >= 0")


# ---------------------------------------------------------------------------
# elementary steps

# Generator.random() returns k / 2**53 with k an integer, so a uniform Monte
# Carlo start is exactly a lattice point over this denominator
DYADIC_DEN = 2**53


def step_arrays(q, p, m: CatMapSpec, den: int):
    """One exact map step of the lattice numerators q, p over den; returns the new (q, p).

    (a q + b p, c q + d p), each reduced by mod1; q and p are Python ints or
    int64 arrays.  The unreduced image must fit in int64 (check_lattice_map).
    """
    return mod1(m.a * q + m.b * p, den), mod1(m.c * q + m.d * p, den)


def check_lattice_map(m: CatMapSpec, den: int = DYADIC_DEN) -> None:
    """SpecError unless a k + b l, c k + d l and (a + d) k - l fit int64 for k, l below den.

    The rows are step_arrays and the first images, the trace is the position
    recurrence of _relative_frames.  On the Monte Carlo lattice (den = 2**53)
    that is |a| + |b| < 2**10 and |c| + |d| < 2**10, which imply |a + d| < 2**10.
    """
    for name, row in (("|a| + |b|", abs(m.a) + abs(m.b)), ("|c| + |d|", abs(m.c) + abs(m.d))):
        if row * den >= 2**63:
            raise SpecError(f"{name} = {row} overflows the int64 lattice step over "
                            f"den = {den}; need {name} < {-(-2**63 // den)}")
    trace = m.a + m.d
    lo, hi = min(trace, 0) * (den - 1) - (den - 1), max(trace, 0) * (den - 1)
    if lo < -(2**63) or hi >= 2**63:
        raise SpecError(f"|a + d| = {abs(trace)} overflows the int64 position recurrence over "
                        f"den = {den}: (a + d) k - l spans [{lo}, {hi}], beyond [-2**63, 2**63)")


def check_aliasing(m: CatMapSpec, steps: int, den: int = DYADIC_DEN) -> None:
    """SpecError if the carried position row e1^T M^k is +-e1^T mod den for some 1 <= k <= steps.

    A site's position after k steps is e1^T M^k x; such a return would make
    it equal +-its start on every lattice point, a correlation that the
    continuum map does not have.  Python ints throughout.
    """
    r0, r1 = 1, 0
    for k in range(1, steps + 1):
        r0, r1 = (r0 * m.a + r1 * m.c) % den, (r0 * m.b + r1 * m.d) % den
        if r1 == 0 and r0 in (1, den - 1):
            raise SpecError(f"the lattice over den = {den} aliases: e1^T M^{k} = "
                            f"{'-' if r0 != 1 else '+'}e1^T mod den, within {steps} steps")


def check_lattice_points(smith) -> None:
    """SpecError unless lattice_points on smith = (d1, d2, W) stays in int64.

    Its products stay below d2 (d1 + d2), so that bound must be below 2**63.
    For the default map it holds up to T = 43, for [[1, 1], [2, 3]] up to T = 32.
    """
    d1, d2, _ = smith
    if d2 * (d1 + d2) >= 2**63:
        raise SpecError(f"the Smith lattice d1 = {d1}, d2 = {d2} overflows the int64 index map: "
                        f"d2 (d1 + d2) = {d2 * (d1 + d2)} >= 2**63")


def lattice_points(smith, i, j):
    """The period-T points W (i/d1, j/d2) as numerators (nq, np_) over d2, exact.

    smith = (d1, d2, W) is the Smith form of M^T - I (orbits.smith_lattice);
    i in [0, d1) and j in [0, d2) are int64 arrays that broadcast together.
    Each output is reduced in place, so on the index grid of a column i and
    a row j (enumerate_lattice) it is the one array of the full point count.
    """
    check_lattice_points(smith)
    d1, d2, W = smith
    scale = d2 // d1
    nq = (W[0][0] * scale % d2) * i + (W[0][1] % d2) * j
    nq %= d2
    np_ = (W[1][0] * scale % d2) * i + (W[1][1] % d2) * j
    np_ %= d2
    return nq, np_


def bonds(spec: SystemSpec, L: int, offsets=None) -> list[tuple[int, int, float]]:
    """The pair observable as (i, j, offset) bonds, one cos(2*pi*(q_i - q_j + offset)) each.

    The ring has bonds (l, l+1 mod L, offsets[l]); offsets (length L)
    realize the translation family used by the quantum ensemble, None means
    all zero.  All-to-all has one bond per ordered pair i != j, without offsets.
    """
    if spec.topology == ALL_TO_ALL:
        if offsets is not None:
            raise SpecError("bond offsets are defined for nearest-neighbour topology only")
        return [(i, j, 0.0) for i in range(L) for j in range(L) if i != j]
    if offsets is None:
        offsets = np.zeros(L)
    return [(l, (l + 1) % L, offsets[l]) for l in range(L)]


# the lattice cosine reads cos and sin at 2**TABLE_BITS angles and corrects the rest by Taylor
TABLE_BITS = 12


@functools.lru_cache(maxsize=8)
def _cos_table(den: int):
    """(q, cos table, sin table) for den: entry h holds the angle 2 pi h q / den.

    q is the smallest power of two with den <= 4096 q (2**41 for den = 2**53),
    so h = d // q and d - h q are a shift and a mask.  Built once per den, in
    long double, each entry rounded once to float64.
    """
    q = 1 << max(0, (den - 1).bit_length() - TABLE_BITS)
    h = np.arange(1 << TABLE_BITS, dtype=np.int64) * q % den
    angle = np.arctan(np.longdouble(1)) * 8 * h.astype(np.longdouble) / den
    return q, np.cos(angle).astype(float), np.sin(angle).astype(float)


def lattice_pairs(spec: SystemSpec) -> tuple[list[tuple[int, int]], float]:
    """(pairs, scale) with W = scale * sum over pairs (i, j) of cos(2 pi (q_i - q_j)).

    W is amplitude times the offset-free bond sum of bonds(spec, L), with the
    mirror (j, i) of an earlier bond (i, j) merged into its pair, so each
    unordered pair is evaluated once.  The L = 2 ring and all-to-all mirror
    every bond, so their scale is 2 amplitude; all-to-all with L = 1 has no
    bonds, no pairs, and W = 0.
    """
    bond_list = bonds(spec, spec.L)
    pairs = []
    for i, j, _ in bond_list:
        if (j, i) not in pairs:
            pairs.append((i, j))
    return pairs, (2.0 if len(bond_list) == 2 * len(pairs) else 1.0) * spec.amplitude


def _lattice_bond_sum(d: np.ndarray, den: int, out: np.ndarray, work: np.ndarray):
    """sum over pairs of cos(2 pi d / den) for relative numerators d in [0, den), written into out.

    d has shape (pairs, copies, n) (_relative_frames); out is a float array
    of shape (copies, n).  The cosine is exact integer arithmetic up to the
    table: h = d // q picks cos and sin of the table angle, and the leftover
    angle delta = 2 pi (d - h q) / den, below 2 pi / 4096 when den is a power
    of two and below 4 pi / 4096 otherwise, corrects them by a degree-5
    Taylor step,
        cos = C - (C (1 - cos delta) + S sin delta).
    work is an int64 array of shape (3, copies, n), (4, ...) for more than
    one pair; its planes are reused as float views.
    """
    q, cos_t, sin_t = _cos_table(den)
    shift, scale = q.bit_length() - 1, TWO_PI / den
    a, b = work[:2]
    af, bf, sf = work[:3].view(float)
    if not len(d):
        out[:] = 0.0
    for r in range(len(d)):
        c = out if r == 0 else work[3].view(float)
        np.right_shift(d[r], shift, out=b)  # h
        np.bitwise_and(d[r], q - 1, out=a)  # the leftover numerator d - h q
        np.take(cos_t, b, out=c, mode="clip")
        np.take(sin_t, b, out=sf, mode="clip")
        np.multiply(a, scale, out=bf)  # delta
        np.multiply(bf, bf, out=af)  # u = delta^2
        sf *= bf  # S delta
        np.multiply(af, 1.0 / 120.0, out=bf)
        bf -= 1.0 / 6.0
        bf *= af
        bf *= sf
        sf += bf  # S sin(delta) = S delta (1 + u (-1/6 + u / 120))
        np.multiply(af, -1.0 / 24.0, out=bf)
        bf += 0.5
        bf *= af
        bf *= c  # C (1 - cos(delta)) = C u (1/2 - u / 24)
        bf += sf
        c -= bf
        if r:
            out += c
    return out


def pair_potential(q: np.ndarray, spec: SystemSpec, offsets=None) -> np.ndarray:
    """V(q) = amplitude * sum over bonds(spec, L, offsets); q has shape (..., L), returns (...).

    V is also the interaction derivative: d/d(eps) of the generating function at eps = 0.
    """
    q = np.asarray(q, dtype=float)
    out = np.zeros(q.shape[:-1])
    work = np.empty_like(out)
    for i, j, off in bonds(spec, q.shape[-1], offsets):
        np.subtract(q[..., i], q[..., j], out=work)
        work += off
        work *= TWO_PI
        np.cos(work, out=work)
        out += work
    return spec.amplitude * out


def pair_gradient(q: np.ndarray, spec: SystemSpec, offsets=None) -> np.ndarray:
    """dV/dq_l, shape (..., L)."""
    q = np.asarray(q, dtype=float)
    grad = np.zeros_like(q)
    for i, j, off in bonds(spec, q.shape[-1], offsets):
        s = np.sin(TWO_PI * (q[..., i] - q[..., j] + off))
        grad[..., i] -= TWO_PI * s
        grad[..., j] += TWO_PI * s
    return spec.amplitude * grad


def pair_hessian(q: np.ndarray, spec: SystemSpec, offsets=None) -> np.ndarray:
    """d^2 V / dq_i dq_j, shape (..., L, L)."""
    q = np.asarray(q, dtype=float)
    L = q.shape[-1]
    H = np.zeros(q.shape + (L,))
    for i, j, off in bonds(spec, L, offsets):
        c = -(TWO_PI**2) * np.cos(TWO_PI * (q[..., i] - q[..., j] + off))
        H[..., i, i] += c
        H[..., j, j] += c
        H[..., i, j] -= c
        H[..., j, i] -= c
    return spec.amplitude * H


# ---------------------------------------------------------------------------
# Monte Carlo correlation estimator


def _dyadic_starts(rng: np.random.Generator, n: int, L: int):
    """n uniform starts of L sites as int64 numerators over DYADIC_DEN: q, then p, from rng.

    Each draw k / 2**53 times 2**53 is exact, so these are the points the
    float draws stand for.
    """
    return tuple((rng.random((n, L)) * DYADIC_DEN).astype(np.int64) for _ in "qp")


def _relative_frames(q0: np.ndarray, p0: np.ndarray, den: int, m: CatMapSpec, pairs, shifts,
                     steps: int):
    """Relative numerators of shifted copies of lattice starts at t = 0..steps-1.

    q0, p0 are int64 numerator arrays of shape (n, L): Monte Carlo draws
    (_dyadic_starts) or Smith-indexed periodic points (lattice_points).
    Copy k has site l advanced shifts[k][l] map steps.  Only positions are
    stepped: det M = 1 gives M^2 = (a + d) M - I, so each position, and each
    difference of two orbits, follows q_{t+1} = (a + d) q_t - q_{t-1} mod den,
    and a start's momentum enters once, through its first image a q_0 + b p_0.
    Each (pair (i, j), copy) takes the lead site's |a - b| steps, subtracts
    the lag site and takes min(a, b) steps more, holding two consecutive
    positions in two int64 planes; each pair takes one step per frame, with
    one (len(shifts), n) scratch row.  Yields the differences (q_i - q_j) mod
    den, an int64 array of shape (len(pairs), len(shifts), n), stepped in
    place: a yielded frame is valid only until the next step.
    """
    check_lattice_map(m, den)
    x = [np.empty((len(pairs), len(shifts), q0.shape[0]), dtype=np.int64) for _ in "lh"]
    work = np.empty(x[0].shape[1:], dtype=np.int64)

    def advance(lo, hi, w):
        """(hi, lo) after lo <- (a + d) hi - lo mod den: the next two positions."""
        np.multiply(hi, m.a + m.d, out=w)
        np.subtract(w, lo, out=lo)
        return hi, mod1(lo, den, out=lo)

    def first_image(l, out):
        """q_1 = a q_0 + b p_0 mod den of site l, into out."""
        np.multiply(q0[:, l], m.a, out=out)
        out += p0[:, l] if m.b == 1 else m.b * p0[:, l]
        return mod1(out, den, out=out)

    for r, (i, j) in enumerate(pairs):
        for k, shift in enumerate(shifts):
            a, b = shift[i], shift[j]
            lead, lag = (i, j) if a >= b else (j, i)
            # each of the max(a, b) steps swaps the planes: t = 0 ends in the first
            lo, hi = x[max(a, b) % 2][r, k], x[1 - max(a, b) % 2][r, k]
            lo[:] = q0[:, lead]
            first_image(lead, hi)
            for _ in range(abs(a - b)):
                lo, hi = advance(lo, hi, work[k])
            for y, v in ((lo, q0[:, lag]), (hi, first_image(lag, work[k]))):
                np.subtract(*((y, v) if a >= b else (v, y)), out=y)
                mod1(y, den, out=y)
            for _ in range(min(a, b)):
                lo, hi = advance(lo, hi, work[k])
    del q0, p0  # the starts are not kept
    lo, hi = x
    for t in range(steps):
        if t:
            for r in range(len(pairs)):
                advance(lo[r], hi[r], work)
            lo, hi = hi, lo
        yield lo


def observable_frames(spec: SystemSpec, rng: np.random.Generator, n: int, shifts, steps: int,
                      lattice=None):
    """W = scale * lattice bond sum (lattice_pairs) of n shifted copies at t = 0..steps-1.

    The n starts come from rng: uniform points of the 2**53 lattice
    (_dyadic_starts, after the aliasing guard) when lattice is None, else
    uniform draws of L period-T points each from the Smith form lattice =
    (d1, d2, W): an index in [0, d1 d2) split as i = index // d2, j = index - i d2
    and mapped by lattice_points, over den = d2.  No point list is built.
    _relative_frames steps their pair differences; each frame is a float
    array of shape (len(shifts), n), valid only until the next frame.
    """
    m, L = spec.subsystem, spec.L
    pairs, scale = lattice_pairs(spec)
    if lattice is None:
        check_aliasing(m, steps + max(max(shift) for shift in shifts))
        den = DYADIC_DEN
        starts = _dyadic_starts(rng, n, L)
    else:
        check_lattice_points(lattice)  # before the draw: d1 d2 itself may pass int64
        d1, den, _ = lattice
        j = rng.integers(0, d1 * den, size=(n, L))
        i = j // den  # floor_divide by a scalar is faster than np.divmod
        j -= i * den
        starts = lattice_points(lattice, i, j)
    frames = _relative_frames(*starts, den, m, pairs, shifts, steps)
    del starts  # _relative_frames drops the starts once it has differenced them
    # the lattice cosine's planes
    work = np.empty((4 if len(pairs) > 1 else 3, len(shifts), n), np.int64)
    w = np.empty(work.shape[1:])
    for d in frames:
        _lattice_bond_sum(d, den, w, work)
        if scale != 1.0:
            w *= scale
        yield w


def frame_batches(spec: SystemSpec, seed: int, samples: int, batch: int, shifts, steps: int,
                  lattice=None):
    """(n, observable_frames of n starts) per batch of at most batch of the samples.

    The Monte Carlo estimators' one seeded batch loop: each batch draws its
    starts from one philox(seed) stream when its frames are first read.
    """
    rng = philox(seed)
    for start in range(0, samples, batch):
        n = min(batch, samples - start)
        yield n, observable_frames(spec, rng, n, shifts, steps, lattice)


def estimate_correlation(
    spec: SystemSpec,
    shift: Sequence[int],
    samples: int,
    seed: int,
    batch: int = 1 << 17,
) -> CorrelationEstimate:
    """C_w(shift) = <W(phi^shift x) W(x)> - <W>^2 for W the interaction derivative.

    Uniform (Lebesgue = SRB) initial conditions, drawn as points of the 2**53
    lattice and stepped exactly (frame_batches).  Negative shift components
    are handled by translating both factors with a synchronous offset, using
    the invariance of the measure.
    """
    shift = tuple(int(s) for s in shift)
    if len(shift) != spec.L:
        raise SpecError("shift must have one component per site")
    if samples <= 0:
        raise SpecError("samples must be positive")
    m_off = max(0, -min(shift))
    shifts = ((m_off,) * spec.L, tuple(m_off + s for s in shift))
    s_p = s_p2 = s_a = s_b = 0.0
    for _, frames in frame_batches(spec, seed, samples, batch, shifts, 1):
        a, b = next(frames)
        del frames  # frees the batch's planes before the products are formed
        prod = a * b
        s_p += prod.sum()
        s_p2 += (prod * prod).sum()
        s_a += a.sum()
        s_b += b.sum()

    mean_p = s_p / samples
    value = mean_p - (s_a / samples) * (s_b / samples)
    var_p = max(s_p2 / samples - mean_p**2, 0.0)
    return CorrelationEstimate(shift=shift, value=float(value),
                               std_error=float(math.sqrt(var_p / samples)),
                               samples=samples, seed=seed)
