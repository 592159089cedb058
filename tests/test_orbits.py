import csv
import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from sfflab import harness
from sfflab.dynamics import DEFAULT_MAP, CatMapSpec, lattice_points
from sfflab.harness import _run_orbits, run_experiment, validate_config
from sfflab.orbits import (
    ConsistencyError,
    EnumerationError,
    OrbitFamily,
    _group_lattice,
    enumerate_lattice,
    family_iterator,
    lattice_fixed_count,
    map_power,
    periodic_point_count,
    smith_lattice,
    stability_amplitude_sq,
    subsystem_orbits,
    sum_rule_check,
)
from sfflab.dynamics import SystemSpec
from sfflab.util import philox

from oracles import brute_force_cycles, brute_force_periodic_points, peak_mib, shift_action_lattice


OTHER_MAP = CatMapSpec(1, 1, 2, 3)


def _fractions(T, m):
    """The enumerated period-T points as exact (q, p) Fractions, in enumeration order."""
    nq, np_, den = enumerate_lattice(T, m)
    return [(Fraction(a, den), Fraction(b, den)) for a, b in zip(nq.tolist(), np_.tolist())]


def test_point_counts_small_periods():
    for T, expected in ((1, 1), (2, 5), (3, 16)):
        nq, _, _ = enumerate_lattice(T, DEFAULT_MAP)
        assert len(nq) == expected == periodic_point_count(T, DEFAULT_MAP)
    assert _fractions(1, DEFAULT_MAP) == [(Fraction(0), Fraction(0))]


def test_enumeration_matches_brute_force_oracle():
    for T in range(1, 7):
        pts = _fractions(T, DEFAULT_MAP)
        oracle, det = brute_force_periodic_points(T, 2, 1, 1, 1)
        want = {(Fraction(a, det), Fraction(b, det)) for a, b in oracle}
        assert len(pts) == len(want) and set(pts) == want


def test_enumerated_points_are_exactly_periodic():
    for T in (1, 2, 3, 4, 5):
        for pt in _fractions(T, DEFAULT_MAP):
            q, p = pt
            for _ in range(T):
                q, p = (2 * q + p) % 1, (q + p) % 1
            assert (q, p) == pt


def test_group_into_orbits_T1():
    orbits = subsystem_orbits(1, DEFAULT_MAP)
    assert len(orbits) == 1 and orbits[0].primitive_period == 1


def test_group_into_orbits_T2_structure():
    orbits = subsystem_orbits(2, DEFAULT_MAP)
    assert sorted(o.primitive_period for o in orbits) == [1, 2, 2]
    cycles, det = brute_force_cycles(2, 2, 1, 1, 1)
    assert sorted(len(c) for c in cycles) == [1, 2, 2]


def test_group_partition_property():
    for m, T in itertools.product((DEFAULT_MAP, OTHER_MAP), (2, 3, 4, 6)):
        pts = _fractions(T, m)
        orbits = subsystem_orbits(T, m)
        assert sum(o.primitive_period for o in orbits) == len(pts)
        # union of cycles reproduces the input set exactly
        seen = set()
        for o in orbits:
            qs, ps, den = o.cycle_lattice(m)
            for nq, np_ in zip(qs[: o.primitive_period], ps[: o.primitive_period]):
                seen.add((Fraction(nq, den), Fraction(np_, den)))
        assert seen == set(pts)


def test_grouping_matches_brute_force_cycles():
    for m, T in itertools.product((DEFAULT_MAP, OTHER_MAP), range(1, 7)):
        orbits = subsystem_orbits(T, m)
        cycles, det = brute_force_cycles(T, m.a, m.b, m.c, m.d)
        want = sorted((Fraction(min(c)[0], det), Fraction(min(c)[1], det), len(c)) for c in cycles)
        got = sorted((Fraction(nq, den), Fraction(np_, den), o.primitive_period)
                     for o in orbits for nq, np_, den in [o.representative])
        assert got == want
        # one orbit per cycle, in the order its first point is enumerated
        index = {pt: k for k, pt in enumerate(_fractions(T, m))}
        firsts = []
        for o in orbits:
            qs, ps, den = o.cycle_lattice(m)
            firsts.append(min(index[(Fraction(a, den), Fraction(b, den))] for a, b in zip(qs, ps)))
        assert firsts == sorted(firsts) and firsts[0] == 0


def test_group_representative_is_lexicographic_min():
    for o in subsystem_orbits(3, DEFAULT_MAP):
        qs, ps, den = o.cycle_lattice(DEFAULT_MAP)
        cyc = sorted(zip(qs, ps))
        nq, np_, rep_den = o.representative
        assert (Fraction(nq, rep_den), Fraction(np_, rep_den)) == \
            (Fraction(cyc[0][0], den), Fraction(cyc[0][1], den))


def test_group_detects_incomplete_set():
    nq, np_, den = enumerate_lattice(2, DEFAULT_MAP)
    with pytest.raises(ConsistencyError):
        _group_lattice(nq[:-1], np_[:-1], den, 2, DEFAULT_MAP)
    with pytest.raises(ConsistencyError, match="divide"):
        _group_lattice(nq, np_, den, 1, DEFAULT_MAP)  # 2-cycles are not period-1 orbits


def test_family_iterator_counts():
    spec = SystemSpec(L=2)
    assert len(list(family_iterator(spec, 1))) == 1
    assert len(list(family_iterator(spec, 2))) == 9


def test_family_multiplicity_identity():
    spec = SystemSpec(L=2)
    for T in (2, 3, 4):
        total = sum(
            math.prod(o.primitive_period for o in fam.reps)
            for fam in family_iterator(spec, T)
        )
        assert total == periodic_point_count(T, DEFAULT_MAP) ** spec.L


def test_shift_action_identity_and_periodicity():
    spec = SystemSpec(L=2)
    fam = list(family_iterator(spec, 2))[4]
    reps = [o.representative for o in fam.reps]
    assert shift_action_lattice(fam, (0, 0), DEFAULT_MAP) == reps
    assert shift_action_lattice(fam, (2, 2), DEFAULT_MAP) == reps  # T*(1,1) = identity


def test_shift_action_single_site():
    spec = SystemSpec(L=2)
    fam = list(family_iterator(spec, 2))[4]
    moved = shift_action_lattice(fam, (1, 0), DEFAULT_MAP)
    nq, np_, den = fam.reps[0].representative
    assert moved[0] == ((2 * nq + np_) % den, (nq + np_) % den, den)
    assert moved[0] != fam.reps[0].representative  # a 2-cycle: the step moves the point
    assert moved[1] == fam.reps[1].representative


def test_shift_group_closure_exact():
    spec = SystemSpec(L=2)
    T = 4
    fam = list(family_iterator(spec, T))[7]
    r = (1, 3)
    r2 = (2, 3)
    combined = shift_action_lattice(fam, (r[0] + r2[0], r[1] + r2[1]), DEFAULT_MAP)
    # step the r-result a further r2 by hand
    manual = []
    for (nq, np_, den), extra in zip(shift_action_lattice(fam, r, DEFAULT_MAP), r2):
        for _ in range(extra):
            nq, np_ = (2 * nq + np_) % den, (nq + np_) % den
        manual.append((nq, np_, den))
    assert combined == manual


def test_stability_amplitude_values():
    assert stability_amplitude_sq(1, DEFAULT_MAP) == 1.0
    assert stability_amplitude_sq(2, DEFAULT_MAP) == pytest.approx(0.2, abs=1e-15)
    for T in (1, 2, 3, 5):
        prod = stability_amplitude_sq(T, DEFAULT_MAP) * periodic_point_count(T, DEFAULT_MAP)
        assert prod == pytest.approx(1.0, abs=1e-14)


def test_sum_rule():
    assert sum_rule_check(1, DEFAULT_MAP) == pytest.approx(1.0, abs=1e-15)
    assert sum_rule_check(2, DEFAULT_MAP) == pytest.approx(1.0, abs=1e-15)
    assert sum_rule_check(10, DEFAULT_MAP) == pytest.approx(1.0, abs=1e-12)
    assert sum_rule_check(14, DEFAULT_MAP) == pytest.approx(1.0, abs=1e-12)


def test_count_identity_up_to_T14():
    for m, T in itertools.product((DEFAULT_MAP, OTHER_MAP), range(1, 15)):
        count = periodic_point_count(T, m)
        # no point is built, so the count needs no enumeration budget
        d1, d2, _ = smith_lattice(T, m)
        a, b, c, d = map_power(m, T)
        assert d1 * d2 == count
        assert d1 == math.gcd(a - 1, b, c, d - 1) and d2 % d1 == 0
        if count <= 2_000_000:  # OTHER_MAP passes 10^8 points by T = 14
            assert len(enumerate_lattice(T, m)[0]) == count


def _fixed_points_mod(t, m, N):
    """Brute-force count of x in (Z/N)^2 with (M^t - I) x = 0 mod N, M^t taken mod N."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(t):
        a, b, c, d = ((m.a * a + m.b * c) % N, (m.a * b + m.b * d) % N,
                      (m.c * a + m.d * c) % N, (m.c * b + m.d * d) % N)
    return sum(((a - 1) * x + b * y) % N == 0 and (c * x + (d - 1) * y) % N == 0
               for x in range(N) for y in range(N))


def test_lattice_fixed_count_against_brute_force():
    for m, N in itertools.product((DEFAULT_MAP, OTHER_MAP), (2, 3, 4, 6, 9, 10, 16)):
        for t in range(1, 3 * N + 1):
            assert lattice_fixed_count(t, m, N) == _fixed_points_mod(t, m, N), (m, N, t)
    # no MAX_PERIOD cap: the entries of M^1280 have about 530 digits
    for t, N in ((65, 16), (320, 16), (1280, 32), (1250, 10)):
        assert lattice_fixed_count(t, DEFAULT_MAP, N) == _fixed_points_mod(t, DEFAULT_MAP, N)
    with pytest.raises(EnumerationError):
        lattice_fixed_count(0, DEFAULT_MAP, 8)


def test_enumeration_guards():
    with pytest.raises(EnumerationError):
        map_power(DEFAULT_MAP, 100)
    # only a listing has a budget; counting has none
    budget = "12752041 period-17 points exceed the enumeration budget 5000000"
    assert periodic_point_count(17, DEFAULT_MAP) == 12752041
    with pytest.raises(EnumerationError, match=budget):
        enumerate_lattice(17, DEFAULT_MAP)
    # a parabolic shear slips past CatMapSpec's hyperbolicity check only by duck typing
    shear = SimpleNamespace(a=1, b=1, c=0, d=1)
    for count_points in (smith_lattice, enumerate_lattice, sum_rule_check):
        with pytest.raises(EnumerationError, match="M\\^T - I is singular; map is not hyperbolic"):
            count_points(3, shear)


def test_orbits_beyond_inventory_lists_no_point(tmp_path):
    # T = 16 has 4,870,845 points; listing them took 74 MiB.  The pipeline is
    # traced alone: run_experiment hashes its artifacts in 1 MiB reads.
    cfg = validate_config({"kind": "orbits", "seed": 1, "outdir": str(tmp_path),
                           "orbits": {"T_list": [16], "inventory_max_T": 8}})
    peak = peak_mib(lambda: _run_orbits(cfg, DEFAULT_MAP, tmp_path))
    with open(tmp_path / "orbit_summary.csv") as f:
        f.readline()
        (row,) = csv.DictReader(f)
    assert row["count"] == row["expected_count"] == "4870845"
    assert peak < 1


@pytest.mark.parametrize("m, T", [(DEFAULT_MAP, 17), (DEFAULT_MAP, 30), (DEFAULT_MAP, 43),
                                  (OTHER_MAP, 32)])
def test_smith_indexed_points_are_periodic(m, T):
    # exact sampling's draw: an index in [0, d1 d2) split as divmod(index, d2);
    # each point is checked in Python ints against (M^T - I) x = 0 mod d2
    d1, d2, _ = smith = smith_lattice(T, m)
    i, j = divmod(philox(T).integers(0, d1 * d2, size=2000), d2)
    nq, np_ = lattice_points(smith, i, j)
    a, b, c, d = map_power(m, T)
    for x, y in zip(nq.tolist(), np_.tolist()):
        assert 0 <= x < d2 and 0 <= y < d2
        assert ((a - 1) * x + b * y) % d2 == 0 and (c * x + (d - 1) * y) % d2 == 0
    # distinct indices give distinct points
    assert len(set(zip(nq.tolist(), np_.tolist()))) == len(set(zip(i.tolist(), j.tolist())))


def test_periodic_point_reduction():
    # every representative is a plain-int fraction in lowest terms, inside [0, 1)^2
    assert [o.representative for o in subsystem_orbits(1, DEFAULT_MAP)] == [(0, 0, 1)]
    for m, T in itertools.product((DEFAULT_MAP, OTHER_MAP), range(1, 9)):
        for o in subsystem_orbits(T, m):
            nq, np_, den = o.representative
            assert all(type(v) is int for v in o.representative)
            assert math.gcd(nq, np_, den) == 1
            assert 0 <= nq < den and 0 <= np_ < den


def test_family_requires_common_period():
    o2 = subsystem_orbits(2, DEFAULT_MAP)
    o1 = subsystem_orbits(1, DEFAULT_MAP)
    with pytest.raises(ValueError):
        OrbitFamily(reps=(o2[0], o1[0]))


def test_orbit_inventory_csv(tmp_path):
    cfg = validate_config({"kind": "orbits", "seed": 1, "outdir": str(tmp_path / "o"),
                           "orbits": {"T_list": [1, 2, 3, 4, 5, 6], "inventory_max_T": 4}})
    run_experiment(cfg)
    raw = (tmp_path / "o/orbit_inventory.csv").read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().split("\n")
    assert lines[0] == "# schema: sfflab/orbit_inventory v1"
    assert lines[1] == "T,num_q,num_p,den,primitive_period"
    assert lines[-1] == ""
    covered = {}
    for row in lines[2:-1]:
        T, _, _, _, prim = (int(v) for v in row.split(","))
        covered[T] = covered.get(T, 0) + prim
    assert covered == {T: periodic_point_count(T, DEFAULT_MAP) for T in (1, 2, 3, 4)}
    with open(tmp_path / "o/orbit_summary.csv") as f:
        f.readline()
        summary = list(csv.DictReader(f))
    assert [int(r["T"]) for r in summary] == [1, 2, 3, 4, 5, 6]
    for r in summary:
        assert r["count"] == r["expected_count"]
        assert float(r["sum_rule"]) == pytest.approx(1.0, abs=1e-12)


def test_orbit_count_check_rejects_a_dropped_orbit(tmp_path, monkeypatch):
    # negative control: with one orbit missing from each listing, count falls
    # short of |tr M^T - 2| by that orbit's period
    dropped = {}

    def all_but_the_last(T, m):
        orbits = subsystem_orbits(T, m)
        dropped[T] = orbits[-1].primitive_period
        return orbits[:-1]

    monkeypatch.setattr(harness, "subsystem_orbits", all_but_the_last)
    cfg = validate_config({"kind": "orbits", "seed": 1, "outdir": str(tmp_path / "o"),
                           "orbits": {"T_list": [1, 2, 3, 4, 5, 6], "inventory_max_T": 6}})
    run_experiment(cfg)
    with open(tmp_path / "o/orbit_summary.csv") as f:
        f.readline()
        summary = list(csv.DictReader(f))
    margins = {int(r["T"]): int(r["expected_count"]) - int(r["count"]) for r in summary}
    print(f"\nCONTROL orbit count with one orbit dropped: shortfall per T {margins}")
    assert margins == dropped
    assert all(m > 0 for m in margins.values())


def test_enumerate_lattice_peak_memory():
    # the two int64 output arrays take 16 bytes per point; one more full-size
    # temporary (an allocating % d2) would put the peak at 1.5 times that
    points = periodic_point_count(14, DEFAULT_MAP)
    assert len(enumerate_lattice(14, DEFAULT_MAP)[0]) == points
    assert peak_mib(lambda: enumerate_lattice(14, DEFAULT_MAP)) < 1.25 * 16 * points / 2**20
