"""The in-place lattice Monte Carlo kernel against the allocating formulation, bit for bit."""
import math
import re

import numpy as np
import pytest

from sfflab import dynamics, phases
from sfflab.dynamics import (ALL_TO_ALL, DEFAULT_MAP, DYADIC_DEN, NEAREST_NEIGHBOUR, CatMapSpec,
                             SpecError, SystemSpec, _cos_table, _dyadic_starts, _lattice_bond_sum,
                             _relative_frames, bonds, check_aliasing, check_lattice_map,
                             estimate_correlation, lattice_pairs, lattice_points,
                             observable_frames, pair_potential)
from sfflab.orbits import enumerate_lattice, smith_lattice
from sfflab.util import mod1, philox, spawn_seeds

from oracles import (peak_mib, poison_empty, reference_bond_sum, reference_correlation,
                     reference_lattice_cos, reference_pairs, reference_phase_samples,
                     reference_time_average_ladder)

MAP_1123 = CatMapSpec(1, 1, 2, 3)
INVERSE_MAP = CatMapSpec(1, -1, -1, 2)  # negative entries: unreduced images can be negative


class GuardStart:
    """Philox draws with site 0 of sample 0 of every batch moved to q = 2^-53, p = 2^-52.

    On the 2^53 lattice these are the numerators 1 and 2.  Under INVERSE_MAP
    that site's first image q - p = -1 is reduced by the mask to 2^53 - 1,
    the last lattice point, and its next images stay at the top of the
    lattice; a bond difference there reads the last table entry with the
    largest leftover angle.  The other sites stay generic.
    """

    def __init__(self, seed):
        self._rng = philox(seed)
        self._draws = 0

    def random(self, shape):
        x = self._rng.random(shape)
        x[0, 0] = 2.0**-53 if self._draws % 2 == 0 else 2.0**-52
        self._draws += 1
        return x

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)


# (map, L, amplitude, topology, start-point generator)
CASES = [
    pytest.param(DEFAULT_MAP, 2, 0.7, NEAREST_NEIGHBOUR, philox, id="default-L2-mirrored"),
    pytest.param(DEFAULT_MAP, 3, 0.7, NEAREST_NEIGHBOUR, philox, id="default-L3"),
    pytest.param(MAP_1123, 2, 0.7, NEAREST_NEIGHBOUR, philox, id="1123-L2-mirrored"),
    pytest.param(MAP_1123, 3, 0.7, NEAREST_NEIGHBOUR, philox, id="1123-L3"),
    pytest.param(MAP_1123, 2, 0.7, ALL_TO_ALL, philox, id="1123-L2-all-to-all"),
    pytest.param(MAP_1123, 3, 0.7, ALL_TO_ALL, philox, id="1123-L3-all-to-all"),
    pytest.param(INVERSE_MAP, 2, 0.7, NEAREST_NEIGHBOUR, GuardStart, id="inverse-L2-guard"),
    pytest.param(INVERSE_MAP, 3, 1.0, NEAREST_NEIGHBOUR, GuardStart, id="inverse-L3-guard"),
]


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def _setup(monkeypatch, m, L, amplitude, topology, start):
    # dynamics.frame_batches is the one place the Monte Carlo estimators seed their starts
    monkeypatch.setattr(dynamics, "philox", start)
    spec = SystemSpec(L=L, subsystem=m, amplitude=amplitude, topology=topology)
    return spec, bonds(spec, L)


def test_guard_start_lands_on_the_guard():
    k = np.array([INVERSE_MAP.a * 1 + INVERSE_MAP.b * 2])
    assert k[0] == -1
    assert mod1(k, DYADIC_DEN, out=k) is k and k[0] == DYADIC_DEN - 1 == -1 % DYADIC_DEN
    q = _cos_table(DYADIC_DEN)[0]
    assert divmod(DYADIC_DEN - 1, q) == (4095, q - 1)


@pytest.mark.parametrize("m, L, amplitude, topology, start", CASES)
def test_time_average_ladder_matches_allocating_kernel(monkeypatch, m, L, amplitude, topology,
                                                       start):
    spec, bl = _setup(monkeypatch, m, L, amplitude, topology, start)
    s = tuple(range(1, L + 1))
    got = phases.variance_time_average(spec, s, 16, 700, 3, batch=300).ladder
    want = reference_time_average_ladder(m, amplitude, bl, L, s, 16, 700, start(3), 300)
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("m, L, amplitude, topology, start", CASES)
def test_time_average_ladder_with_unshifted_sites(monkeypatch, m, L, amplitude, topology,
                                                   start):
    # shift components of 0 beside a nonzero one: (15, 0) is a per-bond table row, and
    # (0, 2, 0) gives the ring's pairs a rising, a falling and an equal pair of shifts
    spec, bl = _setup(monkeypatch, m, L, amplitude, topology, start)
    s = (15, 0) if L == 2 else (0, 2, 0)
    got = phases.variance_time_average(spec, s, 16, 700, 3, batch=300).ladder
    want = reference_time_average_ladder(m, amplitude, bl, L, s, 16, 700, start(3), 300)
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("m, L, amplitude, topology, start", CASES)
def test_correlation_matches_allocating_kernel(monkeypatch, m, L, amplitude, topology, start):
    spec, bl = _setup(monkeypatch, m, L, amplitude, topology, start)
    shift = (2, -1, 0)[:L]
    got = estimate_correlation(spec, shift, 700, 5, batch=300)
    want = reference_correlation(m, amplitude, bl, L, shift, 700, start(5), 300)
    assert np.array_equal(_bits((got.value, got.std_error)), _bits(want))


@pytest.mark.parametrize("mode", ["proxy", "exact"])
@pytest.mark.parametrize("m, L, amplitude, topology, start", CASES)
def test_phase_samples_match_allocating_kernel(monkeypatch, mode, m, L, amplitude, topology,
                                               start):
    spec, bl = _setup(monkeypatch, m, L, amplitude, topology, start)
    T, s = 6, tuple(range(L))
    got = phases.sample_phase_distribution(spec, T, s, 700, 7, mode=mode, batch=300)
    lattice = enumerate_lattice(T, m) if mode == "exact" else None
    want = reference_phase_samples(m, amplitude, bl, L, T, s, 700, start(7), 300, lattice)
    assert got.mode == mode
    assert np.array_equal(_bits(got.phi_tilde), _bits(want))


def test_per_bond_table_is_one_bond_of_the_oracle():
    # one bond (0, 1) at the full amplitude, estimated on the half-amplitude L = 2 ring
    spec = SystemSpec(L=2, subsystem=MAP_1123, amplitude=1.3)
    bond = [(0, 1, 0.0)]
    T, samples, horizon = 5, 700, 16
    table = phases.per_bond_variance_table(spec, T, samples=samples, seed=3, horizon=horizon)
    seeds = spawn_seeds(3, T)
    assert table.sigma2[0] == 0.0 and table.std_error[0] == 0.0
    for st in range(1, T):
        _, sigma2, err = reference_time_average_ladder(MAP_1123, 1.3, bond, 2, (st, 0), horizon,
                                                       samples, philox(seeds[st]), 1 << 15)[-1]
        assert np.array_equal(_bits((table.sigma2[st], table.std_error[st])),
                              _bits((sigma2, err)))

    # the series row s~ = 1: 2 sum_t [C(t, t) - C(t + 1, t)] over |t| <= t_max
    t_max = 2
    table = phases.per_bond_variance_table(spec, 2, estimator="series", samples=samples, seed=4,
                                           t_max=t_max)
    terms = spawn_seeds(spawn_seeds(4, 2)[1], 3 * t_max + 2)

    def corr(shift, sd):
        return reference_correlation(MAP_1123, 1.3, bond, 2, shift, samples, philox(sd), 1 << 17)

    sync = [corr((t, t), terms[t]) for t in range(t_max + 1)]
    shifted = [corr((t + 1, t), terms[2 * t_max + 1 + t]) for t in range(-t_max, t_max + 1)]
    total = sync[0][0] + 2.0 * sum(v for v, _ in sync[1:]) - sum(v for v, _ in shifted)
    var = sync[0][1] ** 2 + sum((2.0 * e) ** 2 for _, e in sync[1:])
    var += sum(e**2 for _, e in shifted)
    assert np.array_equal(_bits((table.sigma2[1], table.std_error[1])),
                          _bits((2.0 * total, 2.0 * math.sqrt(var))))


def test_system_without_pairs_has_zero_observable(monkeypatch):
    # all-to-all with L = 1 has no pairs: W is 0 everywhere; float np.empty
    # buffers start as NaN, so a value read before it is written shows
    poison_empty(monkeypatch)
    empty = SystemSpec(L=1, topology=ALL_TO_ALL)
    est = phases.variance_time_average(empty, (1,), 8, 1000, 1)
    assert est.ladder == ((2, 0.0, 0.0), (4, 0.0, 0.0), (8, 0.0, 0.0))
    corr = estimate_correlation(empty, (1,), 1000, 1)
    assert (corr.value, corr.std_error) == (0.0, 0.0)
    for mode in ("proxy", "exact"):
        sset = phases.sample_phase_distribution(empty, 4, (1,), 1000, 1, mode=mode)
        assert not sset.phi_tilde.any()
        assert phases.clt_diagnostics(sset).degenerate


@pytest.mark.parametrize("den", [45, 2205, 15125, 4097, DYADIC_DEN])
def test_lattice_cosine_against_long_double(den):
    q = _cos_table(den)[0]
    edges = np.array([0, 1, q - 1, q, den // 2, den - q, den - 1], dtype=np.int64) % den
    d = np.concatenate([philox(23).integers(0, den, 200_000), edges])
    got = _lattice_bond_sum(d[None, None], den, np.empty((1, len(d))),
                            np.empty((3, 1, len(d)), dtype=np.int64))[0]
    exact = np.cos(np.arctan(np.longdouble(1)) * 8 * d.astype(np.longdouble) / den)
    assert float(np.abs(got - exact).max()) < 1e-15
    assert np.array_equal(_bits(got), _bits(reference_lattice_cos(d, den)))


@pytest.mark.parametrize("T", [None, 8], ids=["dyadic", "smith-T8"])
@pytest.mark.parametrize("spec, shifts", [
    pytest.param(SystemSpec(L=2), ((0, 3), (3, 0)), id="ring-L2"),
    pytest.param(SystemSpec(L=3), ((0, 2, 0), (1, 0, 5), (3, 0, 1)), id="ring-L3"),
    # more pairs than sites, with each pair's shifts equal, rising and falling
    pytest.param(SystemSpec(L=4, topology=ALL_TO_ALL), ((2, 2, 2, 2), (0, 3, 2, 4)),
                 id="all-to-all-L4"),
])
@pytest.mark.parametrize("m", [DEFAULT_MAP, MAP_1123, INVERSE_MAP], ids=["default", "1123", "inverse"])
def test_relative_frames_are_exact_orbit_differences(m, spec, shifts, T):
    _assert_exact_orbit_differences(m, spec, shifts, T)


# one copy unshifted, and the other shifted on one site only
@pytest.mark.parametrize("shifts", [((0, 0), (3, 0)), ((0, 2, 0), (1, 0, 5))])
@pytest.mark.parametrize("m", [DEFAULT_MAP, INVERSE_MAP])
def test_monte_carlo_frames_are_exact_orbits(m, shifts):
    _assert_exact_orbit_differences(m, SystemSpec(L=len(shifts[0])), shifts, None)


def _assert_exact_orbit_differences(m, spec, shifts, T):
    """The relative frames of 8 starts over 128 steps against Python-int orbits.

    T None draws dyadic starts as the Monte Carlo does; T an int draws
    period-T points by their Smith indices.
    """
    n, steps, L = 8, 128, spec.L
    pairs, _ = lattice_pairs(spec)
    if T is None:
        den = DYADIC_DEN
        starts = _dyadic_starts(philox(24), n, L)
        rng = philox(24)
        # the start k / 2^53 that each float draw stands for, in Python ints
        qs, ps = ([[int(v * 2**53) for v in row] for row in rng.random((n, L))] for _ in "qp")
    else:
        smith = smith_lattice(T, m)
        d1, den, _ = smith
        index = philox(24).integers(0, d1 * den, (n, L))
        starts = lattice_points(smith, index // den, index % den)
        qs, ps = (x.tolist() for x in starts)
    frames = [f.copy() for f in _relative_frames(*starts, den, m, pairs, shifts, steps)]
    assert len(frames) == steps and frames[0].shape == (len(pairs), len(shifts), n)
    for i in range(n):
        orbits = []
        for q, p in zip(qs[i], ps[i]):
            orbit = []
            for _ in range(steps + max(map(max, shifts))):
                orbit.append(q)
                q, p = (m.a * q + m.b * p) % den, (m.c * q + m.d * p) % den
            orbits.append(orbit)
            if T is not None:
                assert orbit[T] == orbit[0]  # an exact period-T point
        for c, shift in enumerate(shifts):
            for r, (a, b) in enumerate(pairs):
                want = [(orbits[a][t + shift[a]] - orbits[b][t + shift[b]]) % den
                        for t in range(steps)]
                assert [int(f[r, c, i]) for f in frames] == want


def test_mirrored_pairs_are_evaluated_once_with_weight_two():
    table = [
        (SystemSpec(L=2, amplitude=0.7), [(0, 1)], 1.4),
        (SystemSpec(L=3, amplitude=0.7), [(0, 1), (1, 2), (2, 0)], 0.7),
        (SystemSpec(L=3, amplitude=0.7, topology=ALL_TO_ALL), [(0, 1), (0, 2), (1, 2)], 1.4),
        (SystemSpec(L=1, amplitude=0.7, topology=ALL_TO_ALL), [], 1.4),
    ]
    for spec, pairs, scale in table:
        assert lattice_pairs(spec) == (pairs, scale)
        # the oracle's weights: every pair counted once per bond that visits it
        want = reference_pairs(bonds(spec, spec.L))
        assert [(i, j) for i, j, _ in want] == pairs
        assert all(w * spec.amplitude == scale for _, _, w in want)


@pytest.mark.parametrize("m", [DEFAULT_MAP, MAP_1123, INVERSE_MAP])
def test_aliasing_guard_passes_on_the_dyadic_lattice(m):
    check_aliasing(m, 200_000)


def test_aliasing_guard_raises_on_a_short_dyadic_order():
    # mod 16 the default map has order 12: M^12 = I, so e1^T M^12 = e1^T
    check_aliasing(DEFAULT_MAP, 11, den=16)
    with pytest.raises(SpecError, match="aliases"):
        check_aliasing(DEFAULT_MAP, 12, den=16)
    with pytest.raises(SpecError, match="aliases"):
        check_aliasing(DEFAULT_MAP, 100, den=16)


def test_lattice_map_must_fit_int64():
    check_lattice_map(CatMapSpec(1022, 1, 1021, 1))  # |a| + |b| = 1023
    for m, name in ((CatMapSpec(1023, 1, 1022, 1), "|a| + |b|"),
                    (CatMapSpec(1, 1, 1022, 1023), "|c| + |d|")):
        with pytest.raises(SpecError, match=re.escape(name)):
            check_lattice_map(m)
        with pytest.raises(SpecError, match="overflows"):
            spec = SystemSpec(L=2, subsystem=m)
            next(observable_frames(spec, philox(1), 4, ((0, 0), (1, 0)), 2))
    check_lattice_map(CatMapSpec(1023, 1, 1022, 1), den=2**40)


def test_position_recurrence_must_fit_int64():
    # R = ceil(2**63 / den): rows |a| + |b| and |c| + |d| up to R - 1 pass the step's bound, and
    # the trace a + d = +-(R - 1) keeps (a + d) k - l in int64 for the positive sign only, where
    # over den = 3**25 the negative one reaches -R (den - 1) < -2**63
    den = 3**25
    R = -(-(2**63) // den)
    assert R * (den - 1) > 2**63
    check_lattice_map(CatMapSpec(R - 2, 1, R - 3, 1), den)
    wraps = CatMapSpec(-(R - 2), -1, -(R - 3), -1)
    starts = (np.zeros((4, 2), dtype=np.int64),) * 2
    for refused in (lambda: check_lattice_map(wraps, den),
                    lambda: next(_relative_frames(*starts, den, wraps, [(0, 1)], [(0, 1)], 2))):
        with pytest.raises(SpecError, match=re.escape(f"|a + d| = {R - 1} overflows the int64 "
                                                      "position recurrence")):
            refused()


def test_mod1_without_remainder_matches_np_remainder():
    # a den that is not a power of two is reduced as x - (x // den) den; that must
    # be np.remainder bit for bit on both signs, on the Smith denominators of
    # exact mode, and up to the largest unreduced image check_lattice_map allows
    dens = {enumerate_lattice(T, m)[2] for T in range(1, 9)
            for m in (DEFAULT_MAP, MAP_1123, INVERSE_MAP)}
    dens = sorted(d for d in dens if d & (d - 1))
    assert len(dens) >= 10
    rng = philox(16)
    for den in dens:
        row = (2**63 - 1) // den  # largest |a| + |b| with row * den < 2**63
        check_lattice_map(CatMapSpec(row - 1, 1, row - 2, 1), den)
        top = row * (den - 1)
        x = np.concatenate([rng.integers(-8 * den, 8 * den, 2000), rng.integers(-top, top, 2000),
                            [-top, top, -2**63 + 1, 2**63 - 1, -den, -1, 0, den - 1, den]])
        want = np.remainder(x, den)
        assert mod1(x, den, out=np.empty_like(x)).tolist() == want.tolist(), den
        assert mod1(x, den, out=x) is x and np.array_equal(x, want), den
        assert want.min() >= 0 and want.max() < den


def test_cos_is_even_bit_for_bit():
    special = [0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 5e-324, -5e-324]
    x = np.concatenate([philox(21).uniform(-2 * np.pi, 2 * np.pi, 1_000_000), special])
    assert np.array_equal(_bits(np.cos(-x)), _bits(np.cos(x)))
    for v in special:  # one element at a time takes numpy's short-array path
        assert _bits(np.cos(np.array([-v]))) == _bits(np.cos(np.array([v])))


@pytest.mark.parametrize("off", [0.0, 0.1, 0.25, 0.7])
def test_mirrored_bond_reuses_its_cosine_bitwise(off):
    # the float pair_potential (quantum coupling, continuation): the mirrored bond
    # (1, 0, -off) of the L = 2 ring adds the first bond's cosine again, bit for bit
    q = philox(22).random((2, 5000, 2))
    q[:, 0] = [0.5, 0.5]  # equal positions: differences +0 and -0
    offsets = np.array([off, -off])
    bl = bonds(SystemSpec(L=2), 2, offsets)
    assert bl == [(0, 1, off), (1, 0, -off)]
    got = pair_potential(q, SystemSpec(L=2), offsets)
    assert np.array_equal(_bits(got), _bits(reference_bond_sum(q, bl)))


def test_time_average_peak_memory():
    # the float kernel held 3.7 MiB here and the per-site lattice kernel 3.21 MiB; the
    # relative frames hold 3.06 MiB: the pair differences of position and momentum, the
    # step's one scratch row, the lattice cosine's three int64 planes, the bond sums and
    # the checkpoint copies
    spec = SystemSpec(L=2)
    assert peak_mib(lambda: phases.variance_time_average(spec, (0, 3), 64, 20000, 1)) < 3.21


def test_time_average_peak_memory_with_many_pairs():
    # all-to-all L = 8 has 28 pairs; when the step's scratch grew with them (two int64
    # planes per pair besides the differences) this peaked at 37.1 MiB, and it holds
    # 21.5 MiB with one scratch row stepped pair by pair
    spec = SystemSpec(L=8, topology=ALL_TO_ALL)
    s = (0, 1, 2, 3, 0, 1, 2, 3)
    assert peak_mib(lambda: phases.variance_time_average(spec, s, 8, 20000, 1)) < 24
