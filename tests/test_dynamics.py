import math

import numpy as np
import pytest

from sfflab.dynamics import (
    ALL_TO_ALL,
    CatMapSpec,
    DEFAULT_MAP,
    DYADIC_DEN,
    SpecError,
    SystemSpec,
    _relative_frames,
    estimate_correlation,
    lattice_pairs,
    pair_gradient,
    pair_hessian,
    pair_potential,
    step_arrays,
)
from sfflab.util import mod1, philox

from oracles import coupled_step_unreduced, float_mod1, scalar_cat_step, straight_line_coupled_step


def test_cat_map_validation():
    with pytest.raises(SpecError):
        CatMapSpec(2, 1, 1, 2)  # det 3
    with pytest.raises(SpecError):
        CatMapSpec(1, 1, 0, 1)  # parabolic
    CatMapSpec(2, 1, 1, 1)


def test_subsystem_step_fixed_point():
    q, p = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    image = step_arrays(q, p, DEFAULT_MAP, DYADIC_DEN)
    assert image[0] is not q and image[1] is not p  # a new image
    assert image[0][0] == 0 and image[1][0] == 0


def test_subsystem_step_direct_substitution():
    # (1/2, 1/2) -> (3/2, 1) = (1/2, 0) mod 1, as Python ints and as arrays
    assert step_arrays(1, 1, DEFAULT_MAP, 2) == (1, 0)
    q, p = step_arrays(np.array([DYADIC_DEN // 2]), np.array([DYADIC_DEN // 2]), DEFAULT_MAP,
                       DYADIC_DEN)
    assert q[0] == DYADIC_DEN // 2 and p[0] == 0


def test_subsystem_step_inverse_roundtrip():
    inv = CatMapSpec(1, -1, -1, 2)  # inverse of the default map
    rng = philox(1)
    q0, p0 = (rng.integers(0, DYADIC_DEN, 50) for _ in "qp")
    q, p = step_arrays(*step_arrays(q0, p0, DEFAULT_MAP, DYADIC_DEN), inv, DYADIC_DEN)
    assert np.array_equal(q, q0) and np.array_equal(p, p0)  # exact on the lattice


def test_mod1_half_open_edge():
    # numerators reduced into [0, den), the mask for a power of two, np.remainder else
    for den in (DYADIC_DEN, 16, 45):
        x = np.concatenate([philox(9).integers(-8 * den, 8 * den, 100_000),
                            [-den - 1, -den, -1, 0, den - 1, den, 3 * den]])
        want = [int(v) % den for v in x]
        assert mod1(x, den).tolist() == want
        assert all(0 <= v < den for v in want)
        assert mod1(x, den, out=x) is x and x.tolist() == want
    assert mod1(-1, 45) == 44 and type(mod1(-1, 45)) is int


def _stepped_directly(q0, p0, shift, t):
    """Positions after shift[l] + t single-site steps of each sample's site l, in Python ints."""
    out = np.empty_like(q0)
    for i in range(q0.shape[0]):
        for l in range(q0.shape[1]):
            q, p = int(q0[i, l]), int(p0[i, l])
            for _ in range(shift[l] + t):
                q, p = ((DEFAULT_MAP.a * q + DEFAULT_MAP.b * p) % DYADIC_DEN,
                        (DEFAULT_MAP.c * q + DEFAULT_MAP.d * p) % DYADIC_DEN)
            out[i, l] = q
    return out


@pytest.mark.parametrize("shifts", [
    ((0, 0, 0), (0, 2, 0), (3, 0, 1)),
    # estimate_correlation's copies for shift (-2, 1, 0): both offset by 2 steps
    ((2, 2, 2), (0, 3, 2)),
])
def test_trajectory_matches_direct_stepping(shifts):
    # the Monte Carlo frames of the L = 3 ring are differences of directly stepped sites
    rng = philox(10)
    q0, p0 = (rng.integers(0, DYADIC_DEN, (16, 3)) for _ in "qp")
    pairs, _ = lattice_pairs(SystemSpec(L=3))
    steps = 4
    # a frame is valid only until the next step, so keep a copy of each
    frames = [frame.copy() for frame in
              _relative_frames(q0, p0, DYADIC_DEN, DEFAULT_MAP, pairs, shifts, steps)]
    assert len(frames) == steps
    for t, frame in enumerate(frames):
        assert frame.shape == (len(pairs), len(shifts), 16)
        for k, shift in enumerate(shifts):
            q = _stepped_directly(q0, p0, shift, t)
            for r, (a, b) in enumerate(pairs):
                assert np.array_equal(frame[r, k], (q[:, a] - q[:, b]) % DYADIC_DEN)


# each entry of [[a, b], [c, d]] is 1, -1, 2 and 3 in one of these maps, and their traces a + d
# take both signs: the first image a q + b p and the recurrence (a + d) q_t - q_{t-1} then have
# negative unreduced values to reduce
BRANCH_MAPS = [CatMapSpec(*e) for e in ((2, 1, 1, 1), (1, 1, 2, 3), (1, -1, -1, 2), (-3, 2, 1, -1),
                                        (-2, 1, 3, -2), (-2, 3, 1, -2), (-1, -2, -1, -3),
                                        (3, -2, -1, 1))]


@pytest.mark.parametrize("den", [DYADIC_DEN, 105], ids=["dyadic", "den105"])
def test_step_arrays_coefficient_branches_match_python_ints(den):
    entries = [(m.a, m.b, m.c, m.d) for m in BRANCH_MAPS]
    assert all({e[slot] for e in entries} >= {1, -1, 2, 3} for slot in range(4))
    assert {m.a + m.d > 0 for m in BRANCH_MAPS} == {True, False}
    rng = philox(12)
    # the lattice edges beside generic numerators
    q0, p0 = (rng.integers(0, den, (3, 2, 32)) for _ in "qp")
    q0[0, 0, :4], p0[0, 0, :4] = [0, den - 1, 0, den - 1], [0, 0, den - 1, den - 1]
    pairs = list(zip(q0.ravel().tolist(), p0.ravel().tolist()))
    # the position recurrence of the Monte Carlo frames: site 1 starts at the fixed point 0, so
    # the frames of the pair (0, 1) are the positions of site 0, with the lead site advanced on
    # either side of the pair
    starts = [np.stack([x[0, 0], np.zeros_like(x[0, 0])], axis=1) for x in (q0, p0)]
    shifts, steps = ((0, 0), (3, 0), (0, 3)), 9
    for m, e in zip(BRANCH_MAPS, entries):
        q, p = step_arrays(q0, p0, m, den)
        unreduced = [(m.a * x + m.b * y, m.c * x + m.d * y) for x, y in pairs]
        assert list(zip(q.ravel().tolist(), p.ravel().tolist())) == [
            (u % den, v % den) for u, v in unreduced]
        if min(e) < 0:
            assert min(min(u, v) for u, v in unreduced) < 0  # negative images were reduced

        frames = [f.copy() for f in _relative_frames(*starts, den, m, [(0, 1)], shifts, steps)]
        for i, (x, y) in enumerate(pairs[:32]):
            orbit = []
            for _ in range(steps + 3):
                orbit.append(x)
                x, y = (m.a * x + m.b * y) % den, (m.c * x + m.d * y) % den
            for c, (a, _) in enumerate(shifts):
                assert [int(f[0, c, i]) for f in frames] == orbit[a:a + steps], (m, i, c)


@pytest.mark.parametrize("spec, offsets", [
    (SystemSpec(L=4, amplitude=1.3), np.array([0.1, 0.35, 0.8, 0.55])),
    (SystemSpec(L=3, topology=ALL_TO_ALL, amplitude=0.7), None),
])
def test_pair_derivatives_match_central_differences(spec, offsets):
    L = spec.L
    eye = np.eye(L)
    for q in philox(11).random((5, L)):
        h = 1e-6
        fd_grad = (pair_potential(q + h * eye, spec, offsets)
                   - pair_potential(q - h * eye, spec, offsets)) / (2 * h)
        assert np.abs(pair_gradient(q, spec, offsets) - fd_grad).max() < 1e-6
        h = 1e-4
        fd_hess = np.empty((L, L))
        for i in range(L):
            pp, mp, pm, mm = (pair_potential(q + si * h * eye[i] + sj * h * eye, spec, offsets)
                              for si, sj in ((1, 1), (-1, 1), (1, -1), (-1, -1)))
            fd_hess[i] = (pp - mp - pm + mm) / (4 * h * h)
        assert np.abs(pair_hessian(q, spec, offsets) - fd_hess).max() < 1e-4


def test_coupled_step_decouples_bitwise_at_eps0():
    spec = SystemSpec(L=3, epsilon=0.0)
    rng = philox(2)
    for _ in range(20):
        q, p = rng.random(3), rng.random(3)
        qn, pn = (float_mod1(x) for x in coupled_step_unreduced(q, p, spec))
        for l in range(3):
            ref = scalar_cat_step(float(q[l]), float(p[l]), DEFAULT_MAP)
            assert (qn[l].hex(), pn[l].hex()) == (ref[0].hex(), ref[1].hex())


def test_coupled_step_against_straight_line_oracle():
    spec = SystemSpec(L=2, epsilon=1e-3)
    q0, p0 = np.array([0.3, 0.1]), np.array([0.7, 0.2])
    q, p = (float_mod1(x) for x in coupled_step_unreduced(q0, p0, spec))
    q1, p1, q2, p2 = straight_line_coupled_step(0.3, 0.7, 0.1, 0.2, 1e-3)
    assert abs(q[0] - q1) < 1e-14
    assert abs(p[0] - p1) < 1e-14
    assert abs(q[1] - q2) < 1e-14
    assert abs(p[1] - p2) < 1e-14


def test_coupled_step_jacobian_is_symplectic():
    spec = SystemSpec(L=2, epsilon=0.1)
    rng = philox(3)
    h = 1e-6
    for _ in range(100):
        q = rng.random(2)
        p = rng.random(2)
        J = np.zeros((4, 4))
        base = np.concatenate(coupled_step_unreduced(q, p, spec))
        for i in range(4):
            dq, dp = q.copy(), p.copy()
            if i < 2:
                dq[i] += h
            else:
                dp[i - 2] += h
            plus = np.concatenate(coupled_step_unreduced(dq, dp, spec))
            if i < 2:
                dq[i] -= 2 * h
            else:
                dp[i - 2] -= 2 * h
            minus = np.concatenate(coupled_step_unreduced(dq, dp, spec))
            J[:, i] = (plus - minus) / (2 * h)
            _ = base
        assert abs(np.linalg.det(J) - 1.0) < 1e-8


# the interaction derivative (d/d eps of the generating function at eps = 0)
# is the pair potential V(q)


def test_interaction_derivative_two_bonds_at_equal_positions():
    spec = SystemSpec(L=2)
    assert pair_potential(np.array([0.25, 0.25]), spec) == pytest.approx(2.0, abs=1e-14)


def test_interaction_derivative_three_site_ring():
    spec = SystemSpec(L=3)
    q = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0])
    assert pair_potential(q, spec) == pytest.approx(-1.5, abs=1e-12)


def test_interaction_derivative_all_to_all_ordered_pairs():
    spec = SystemSpec(L=3, topology=ALL_TO_ALL)
    # six ordered pairs, all at zero separation
    assert pair_potential(np.array([0.4, 0.4, 0.4]), spec) == pytest.approx(6.0, abs=1e-12)


def test_interaction_derivative_mean_zero():
    spec = SystemSpec(L=2)
    rng = philox(4)
    n = 1_000_000
    vals = pair_potential(rng.random((n, 2)), spec)
    se = vals.std() / math.sqrt(n)
    assert abs(vals.mean()) < 4.0 * se


def test_correlation_zero_shift_positive():
    spec = SystemSpec(L=2)
    est = estimate_correlation(spec, (0, 0), samples=200_000, seed=5)
    assert est.value > 5.0 * est.std_error
    assert est.value == pytest.approx(2.0, abs=5 * est.std_error)


def test_correlation_mixing_long_run():
    # long-run Monte Carlo oracle: correlations at t=20 indistinguishable from 0
    spec = SystemSpec(L=2)
    est = estimate_correlation(spec, (20, 20), samples=10_000_000, seed=6)
    assert abs(est.value) < 5.0 * est.std_error


def test_correlation_reflection_symmetry():
    spec = SystemSpec(L=2)
    a = estimate_correlation(spec, (1, 2), samples=400_000, seed=7)
    b = estimate_correlation(spec, (-1, -2), samples=400_000, seed=8)
    comb = math.hypot(a.std_error, b.std_error)
    assert abs(a.value - b.value) <= 3.0 * comb


def test_correlation_rejects_zero_samples():
    with pytest.raises(SpecError):
        estimate_correlation(SystemSpec(L=2), (0, 0), samples=0, seed=1)


def test_correlation_provenance():
    est = estimate_correlation(SystemSpec(L=2), (1, 0), samples=1000, seed=42)
    assert est.seed == 42 and est.samples == 1000


def test_system_spec_validation():
    with pytest.raises(SpecError):
        SystemSpec(L=1)  # periodic chain needs two sites
    with pytest.raises(SpecError):
        SystemSpec(L=2, epsilon=-0.1)
    with pytest.raises(SpecError):
        SystemSpec(L=2, topology="ring-of-fire")
    SystemSpec(L=1, topology=ALL_TO_ALL)
