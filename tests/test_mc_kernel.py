"""The in-place Monte Carlo kernel against the allocating formulation, bit for bit."""
import tracemalloc

import numpy as np
import pytest

from sfflab import dynamics, phases
from sfflab.dynamics import (ALL_TO_ALL, DEFAULT_MAP, NEAREST_NEIGHBOUR, CatMapSpec, SystemSpec,
                             _bond_sum, _correlation, bonds)
from sfflab.orbits import enumerate_lattice
from sfflab.util import philox

from oracles import (reference_bond_sum, reference_correlation, reference_mod1,
                     reference_phase_samples, reference_time_average_ladder)

MAP_1123 = CatMapSpec(1, 1, 2, 3)
INVERSE_MAP = CatMapSpec(1, -1, -1, 2)  # negative entries: images can be tiny negatives


class GuardStart:
    """Philox draws with site 0 of sample 0 of every batch moved to q = 2^-60, p = 2^-59.

    Under INVERSE_MAP that site's first image q - p = -2^-60 has
    x - floor(x) = 1 - 2^-60, which rounds to 1.0, so mod1's guard maps it to
    0.0; its next few images land on the guard too.  The other sites stay
    generic, so a position of 1.0 instead of 0.0 would change the bond cosines.
    """

    def __init__(self, seed):
        self._rng = philox(seed)
        self._draws = 0

    def random(self, shape):
        x = self._rng.random(shape)
        x[0, 0] = 2.0**-60 if self._draws % 2 == 0 else 2.0**-59
        self._draws += 1
        return x

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)


# (map, L, amplitude, topology, offsets, start-point generator)
CASES = [
    pytest.param(DEFAULT_MAP, 2, 0.7, NEAREST_NEIGHBOUR, None, philox, id="default-L2-mirrored"),
    pytest.param(DEFAULT_MAP, 3, 0.7, NEAREST_NEIGHBOUR, (0.1, 0.35, 0.8), philox,
                 id="default-L3-offsets"),
    pytest.param(MAP_1123, 2, 0.7, NEAREST_NEIGHBOUR, (0.25, -0.25), philox,
                 id="1123-L2-mirrored-offsets"),
    pytest.param(MAP_1123, 3, 0.7, NEAREST_NEIGHBOUR, None, philox, id="1123-L3"),
    pytest.param(MAP_1123, 2, 0.7, ALL_TO_ALL, None, philox, id="1123-L2-all-to-all"),
    pytest.param(MAP_1123, 3, 0.7, ALL_TO_ALL, None, philox, id="1123-L3-all-to-all"),
    pytest.param(INVERSE_MAP, 2, 0.7, NEAREST_NEIGHBOUR, None, GuardStart, id="inverse-L2-guard"),
    pytest.param(INVERSE_MAP, 3, 1.0, NEAREST_NEIGHBOUR, None, GuardStart, id="inverse-L3-guard"),
]


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def _setup(monkeypatch, m, L, amplitude, topology, offsets, start):
    monkeypatch.setattr(phases, "philox", start)
    monkeypatch.setattr(dynamics, "philox", start)
    spec = SystemSpec(L=L, subsystem=m, amplitude=amplitude, topology=topology)
    return spec, bonds(spec, L, None if offsets is None else np.array(offsets))


def test_guard_start_lands_on_the_guard():
    x = INVERSE_MAP.a * 2.0**-60 + INVERSE_MAP.b * 2.0**-59
    assert x - np.floor(x) == 1.0
    assert reference_mod1(np.array([x]))[0] == 0.0


@pytest.mark.parametrize("m, L, amplitude, topology, offsets, start", CASES)
def test_time_average_ladder_matches_allocating_kernel(monkeypatch, m, L, amplitude, topology,
                                                       offsets, start):
    _, bl = _setup(monkeypatch, m, L, amplitude, topology, offsets, start)
    s = tuple(range(1, L + 1))
    got = phases._time_average_ladder(m, amplitude, bl, L, s, 16, 700, 3, batch=300)
    want = reference_time_average_ladder(m, amplitude, bl, L, s, 16, 700, start(3), 300)
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("m, L, amplitude, topology, offsets, start", CASES)
def test_time_average_ladder_with_shared_sites(monkeypatch, m, L, amplitude, topology, offsets,
                                               start):
    # a site with shift 0 is stepped once for both copies; (15, 0) is a per-bond
    # table row, (0, 2, 0) shares the sites on both sides of the shifted one
    _, bl = _setup(monkeypatch, m, L, amplitude, topology, offsets, start)
    s = (15, 0) if L == 2 else (0, 2, 0)
    got = phases._time_average_ladder(m, amplitude, bl, L, s, 16, 700, 3, batch=300)
    want = reference_time_average_ladder(m, amplitude, bl, L, s, 16, 700, start(3), 300)
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("m, L, amplitude, topology, offsets, start", CASES)
def test_correlation_matches_allocating_kernel(monkeypatch, m, L, amplitude, topology, offsets,
                                               start):
    _, bl = _setup(monkeypatch, m, L, amplitude, topology, offsets, start)
    shift = (2, -1, 0)[:L]
    got = _correlation(m, amplitude, bl, L, shift, 700, 5, batch=300)
    want = reference_correlation(m, amplitude, bl, L, shift, 700, start(5), 300)
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("mode", ["proxy", "exact"])
@pytest.mark.parametrize("m, L, amplitude, topology, offsets, start",
                         [c for c in CASES if c.values[4] is None])
def test_phase_samples_match_allocating_kernel(monkeypatch, mode, m, L, amplitude, topology,
                                               offsets, start):
    spec, bl = _setup(monkeypatch, m, L, amplitude, topology, offsets, start)
    T, s = 6, tuple(range(L))
    got = phases.sample_phase_distribution(spec, T, s, 700, 7, mode=mode, batch=300)
    lattice = enumerate_lattice(T, m) if mode == "exact" else None
    want = reference_phase_samples(m, amplitude, bl, L, T, s, 700, start(7), 300, lattice)
    assert got.mode == mode
    assert np.array_equal(_bits(got.phi_tilde), _bits(want))


def test_cos_is_even_bit_for_bit():
    special = [0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 5e-324, -5e-324]
    x = np.concatenate([philox(21).uniform(-2 * np.pi, 2 * np.pi, 1_000_000), special])
    assert np.array_equal(_bits(np.cos(-x)), _bits(np.cos(x)))
    for v in special:  # one element at a time takes numpy's short-array path
        assert _bits(np.cos(np.array([-v]))) == _bits(np.cos(np.array([v])))


@pytest.mark.parametrize("off", [0.0, 0.1, 0.25, 0.7])
def test_mirrored_bond_reuses_its_cosine_bitwise(monkeypatch, off):
    q = philox(22).random((2, 5000, 2))
    q[:, 0] = [0.5, 0.5]  # equal positions: differences +0 and -0
    bl = [(0, 1, off), (1, 0, -off)]
    want = reference_bond_sum(q, bl)
    calls = []
    cos = np.cos

    def counting_cos(x, out=None):
        calls.append(1)
        return cos(x, out=out)

    monkeypatch.setattr(np, "cos", counting_cos)
    got = _bond_sum(q, bl)
    assert len(calls) == 1
    assert np.array_equal(_bits(got), _bits(want))


def test_time_average_peak_memory():
    # the per-step temporaries of the allocating kernel peaked at 4.5 MiB here;
    # the in-place kernel holds 3.7 MiB (positions, momenta, a two-plane scratch,
    # the bond sums and the checkpoint copies)
    spec = SystemSpec(L=2)
    phases.variance_time_average(spec, (0, 3), 64, 200, 1)
    tracemalloc.start()
    try:
        phases.variance_time_average(spec, (0, 3), 64, 20000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.0 * 2**20
