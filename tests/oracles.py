"""Independent oracles: deliberately plain, straight-line implementations.

These never share code paths with the package internals they check, except
the test-only conveniences at the end: thin wrappers over package
internals, which the package itself has no use for.
"""
import cmath
import csv
import math
import tracemalloc

import numpy as np

from sfflab.dynamics import pair_gradient, pair_potential
from sfflab.harness import read_config, validate_config
from sfflab.orbits import as_shift
from sfflab.phases import _shifted_lifts


def brute_force_periodic_points(T, a, b, c, d):
    """Period-T points of [[a,b],[c,d]] by scanning the full 1/det grid."""
    pa, pb, pc, pd = 1, 0, 0, 1
    for _ in range(T):
        pa, pb, pc, pd = a * pa + b * pc, a * pb + b * pd, c * pa + d * pc, c * pb + d * pd
    A0, A1, A2, A3 = pa - 1, pb, pc, pd - 1
    det = abs(A0 * A3 - A1 * A2)
    i = np.arange(det, dtype=np.int64)
    qn, pn = np.meshgrid(i, i, indexing="ij")
    ok = ((A0 * qn + A1 * pn) % det == 0) & ((A2 * qn + A3 * pn) % det == 0)
    pts = sorted(zip(qn[ok].tolist(), pn[ok].tolist()))
    return pts, det


def brute_force_cycles(T, a, b, c, d):
    """Cycle decomposition of the period-T set on the brute-force grid."""
    pts, det = brute_force_periodic_points(T, a, b, c, d)
    pset = set(pts)
    seen = set()
    cycles = []
    for p in pts:
        if p in seen:
            continue
        cyc = []
        cur = p
        while cur not in seen:
            seen.add(cur)
            cyc.append(cur)
            cur = ((a * cur[0] + b * cur[1]) % det, (c * cur[0] + d * cur[1]) % det)
            assert cur in pset
        cycles.append(cyc)
    return cycles, det


def straight_line_coupled_step(q1, p1, q2, p2, eps):
    """Two-site coupled step for the default map, written out longhand."""
    dv1 = -2.0 * math.pi * math.sin(2.0 * math.pi * (q1 - q2)) * 2.0
    dv2 = +2.0 * math.pi * math.sin(2.0 * math.pi * (q1 - q2)) * 2.0
    p1k = (p1 + eps * dv1) % 1.0
    p2k = (p2 + eps * dv2) % 1.0
    return (
        (2.0 * q1 + p1k) % 1.0,
        (q1 + p1k) % 1.0,
        (2.0 * q2 + p2k) % 1.0,
        (q2 + p2k) % 1.0,
    )


def scalar_cat_step(q, p, m):
    """One map step of a single site in Python floats: (a q + b p) % 1.0, with 1.0 read as 0.0."""
    def reduce(x):
        r = x % 1.0
        return 0.0 if r >= 1.0 else r

    return reduce(m.a * q + m.b * p), reduce(m.c * q + m.d * p)


def float_position_cycle(representative, T, m):
    """Positions q_t, t < T, of the orbit through (num_q, num_p, den), by numpy float division."""
    nq, np_, den = representative
    qs = []
    for _ in range(T):
        qs.append(nq)
        nq, np_ = (m.a * nq + m.b * np_) % den, (m.c * nq + m.d * np_) % den
    return np.array(qs, dtype=float) / den


def rolled_position_matrix(family, shift, m):
    """Q[t, l] = position of site l at time t + shift[l]: each float cycle rolled by its shift."""
    return np.column_stack([np.roll(float_position_cycle(o.representative, family.period, m), -off)
                            for o, off in zip(family.reps, shift)])


def phase_difference_direct(cycles_q, r, s, T):
    """Phi via plain loops: cycles_q[l][t] is site l's position at time t."""
    L = len(cycles_q)

    def V_at(shift, t):
        tot = 0.0
        for l in range(L):
            qa = cycles_q[l][(t + shift[l]) % T]
            qb = cycles_q[(l + 1) % L][(t + shift[(l + 1) % L]) % T]
            tot += math.cos(2.0 * math.pi * (qa - qb))
        return tot

    return sum(V_at(r, t) for t in range(T)) - sum(V_at(s, t) for t in range(T))


def dense_kernel_circuit(N, eps, a=2, b=1, c=1, d=1):
    """Two-site circuit built entry by entry from the kernel formulas."""
    dim = N * N
    U = np.zeros((dim, dim), dtype=complex)
    pref = 1.0 / cmath.sqrt(1j * b * N)
    for k1p in range(N):
        for k2p in range(N):
            for k1 in range(N):
                for k2 in range(N):
                    w1 = (a * k1 * k1 - 2 * k1p * k1 + d * k1p * k1p) / (b * N)
                    w2 = (a * k2 * k2 - 2 * k2p * k2 + d * k2p * k2p) / (b * N)
                    v = 2.0 * math.cos(2.0 * math.pi * (k1 - k2) / N)
                    phase = cmath.exp(1j * math.pi * (w1 + w2) + 2j * math.pi * N * eps * v)
                    U[k1p * N + k2p, k1 * N + k2] = pref * pref * phase
    return U


def circulant_trace_power(row, L):
    """tr(Omega^L) for the circulant matrix with first row symbol row[(j-k) % T]."""
    T = len(row)
    idx = (np.arange(T)[:, None] - np.arange(T)[None, :]) % T
    M = np.asarray(row)[idx]
    P = np.linalg.matrix_power(M, L)
    return np.trace(P)


def geometric_series_variance(eta):
    """sigma^2 = 2 sum_t eta^|t| = 2 (1 + eta) / (1 - eta)."""
    return 2.0 * (1.0 + eta) / (1.0 - eta)


# ---------------------------------------------------------------------------
# allocating lattice Monte Carlo kernel: fresh arrays at every step and for every bond

DYADIC = 2**53


def float_mod1(x):
    """x - floor(x) with the guard that maps a result rounded up to 1.0 to 0.0."""
    r = x - np.floor(x)
    return np.where(r >= 1.0, 0.0, r)


def reference_starts(rng, n, L):
    """q, then p: uniform draws of shape (n, L) as numerators over 2**53 (k / 2**53 -> k)."""
    return [np.ldexp(rng.random((n, L)), 53).astype(np.int64) for _ in range(2)]


def reference_trajectory(q0, p0, den, m, shifts, steps):
    """Numerator frames (copies, n, L) at t = 0..steps-1; copy k starts with site l stepped shifts[k][l] times."""
    qs, ps = [], []
    for shift in shifts:
        q, p = q0.copy(), p0.copy()
        for l, s in enumerate(shift):
            for _ in range(s):
                a, b = q[:, l], p[:, l]
                q[:, l], p[:, l] = (m.a * a + m.b * b) % den, (m.c * a + m.d * b) % den
        qs.append(q)
        ps.append(p)
    for t in range(steps):
        if t:
            stepped = [((m.a * q + m.b * p) % den, (m.c * q + m.d * p) % den) for q, p in zip(qs, ps)]
            qs, ps = [q for q, _ in stepped], [p for _, p in stepped]
        yield np.stack(qs)


def reference_lattice_cos(d, den):
    """cos(2 pi d / den) for integer d in [0, den): 4096-entry table angle plus a degree-5 Taylor step.

    Each element's table angle 2 pi h q / den, q the smallest power of two
    with den <= 4096 q, h = d // q, is evaluated on its own in long double;
    the leftover angle delta = 2 pi (d - h q) / den corrects it:
    cos = C - (C (1 - cos delta) + S sin delta).
    """
    q = 1
    while 4096 * q < den:
        q *= 2
    h = d // q
    angle = np.arctan(np.longdouble(1)) * 8 * ((h * q) % den).astype(np.longdouble) / den
    c, s = np.cos(angle).astype(float), np.sin(angle).astype(float)
    delta = (d - h * q) * (2.0 * math.pi / den)
    u = delta * delta
    s_delta = s * delta
    sin_term = s_delta + (u * (1.0 / 120.0) - 1.0 / 6.0) * u * s_delta
    return c - ((u * (-1.0 / 24.0) + 0.5) * u * c + sin_term)


def reference_pairs(bond_list):
    """(i, j, weight) with each unordered pair once, in order of first appearance."""
    pairs = []
    for i, j, off in bond_list:
        assert off == 0.0
        for n, (a, b, w) in enumerate(pairs):
            if {a, b} == {i, j}:
                pairs[n] = (a, b, w + 1)
                break
        else:
            pairs.append((i, j, 1))
    return pairs


def reference_lattice_bond_sum(k, bond_list, den):
    """sum over pairs (i, j, w) of w cos(2 pi ((k_i - k_j) mod den) / den), k of shape (..., L)."""
    tot = None
    for i, j, w in reference_pairs(bond_list):
        term = w * reference_lattice_cos((k[..., i] - k[..., j]) % den, den)
        tot = term if tot is None else tot + term
    return tot


def reference_bond_sum(q, bond_list):
    """sum over (i, j, offset) bonds of cos(2 pi (q_i - q_j + offset)), one cosine array per bond."""
    tot = np.zeros(q.shape[:-1])
    for i, j, off in bond_list:
        tot += np.cos(2.0 * math.pi * (q[..., i] - q[..., j] + off))
    return tot


def reference_phase_sums(frames, amplitude, bond_list, den, checkpoints):
    """{t: sum over t' < t of V(q_t') - V(q^s_t')} from (2, n, L) numerator frames."""
    acc = 0.0
    out = {}
    for t, k in enumerate(frames, start=1):
        v, v_s = amplitude * reference_lattice_bond_sum(k, bond_list, den)
        acc = acc + (v - v_s)
        if t in checkpoints:
            out[t] = acc
    return out


def reference_time_average_ladder(m, amplitude, bond_list, L, s, horizon, samples, rng, batch):
    """((t, sigma2, err), ...) of (1/t) <Phi_t^2> at t = horizon/4, horizon/2, horizon."""
    checkpoints = sorted({max(1, horizon // 4), max(1, horizon // 2), horizon})
    sums = {c: 0.0 for c in checkpoints}
    sums2 = {c: 0.0 for c in checkpoints}
    done = 0
    while done < samples:
        n = min(batch, samples - done)
        frames = reference_trajectory(*reference_starts(rng, n, L), DYADIC, m, ((0,) * L, s),
                                      horizon)
        for t, acc in reference_phase_sums(frames, amplitude, bond_list, DYADIC,
                                           checkpoints).items():
            vals = acc * acc / t
            sums[t] += vals.sum()
            sums2[t] += (vals * vals).sum()
        done += n
    ladder = []
    for c in checkpoints:
        mean = sums[c] / samples
        var = max(sums2[c] / samples - mean * mean, 0.0)
        ladder.append((c, float(mean), float(math.sqrt(var / samples))))
    return tuple(ladder)


def reference_correlation(m, amplitude, bond_list, L, shift, samples, rng, batch):
    """(C(shift), std_error) of W = amplitude * lattice bond sum under uniform initial conditions."""
    m_off = max(0, -min(shift))
    shifts = ((m_off,) * L, tuple(m_off + s for s in shift))
    done = 0
    s_p = s_p2 = s_a = s_b = 0.0
    while done < samples:
        n = min(batch, samples - done)
        (k,) = reference_trajectory(*reference_starts(rng, n, L), DYADIC, m, shifts, 1)
        a, b = amplitude * reference_lattice_bond_sum(k, bond_list, DYADIC)
        prod = a * b
        s_p += prod.sum()
        s_p2 += (prod * prod).sum()
        s_a += a.sum()
        s_b += b.sum()
        done += n
    mean_p = s_p / samples
    var_p = max(s_p2 / samples - mean_p**2, 0.0)
    return float(mean_p - (s_a / samples) * (s_b / samples)), float(math.sqrt(var_p / samples))


def reference_phase_samples(m, amplitude, bond_list, L, T, s, budget, rng, batch, lattice=None):
    """Phi_s / sqrt(T): proxy mode from uniform lattice draws, exact mode from lattice = (nq, np_, den)."""
    out = []
    for done in range(0, budget, batch):
        n = min(batch, budget - done)
        if lattice is None:
            q0, p0, den = *reference_starts(rng, n, L), DYADIC
        else:
            nq, np_, den = lattice
            idx = rng.integers(0, len(nq), size=(n, L))
            q0, p0 = nq[idx], np_[idx]
        frames = reference_trajectory(q0, p0, den, m, ((0,) * L, s), T)
        out.append(reference_phase_sums(frames, amplitude, bond_list, den, (T,))[T])
    return np.concatenate(out) / math.sqrt(T)


def block_periodicity_jacobian(q, spec, eps, pair_hessian):
    """Newton Jacobian of the position-form periodicity residual, one block row per time slot.

    Row t holds -(a + d) I - b eps V''(q_t) at slot t and I at slots t + 1
    and t - 1 (mod T), added in turn so that coinciding neighbours sum.
    """
    T, L = q.shape
    m = spec.subsystem
    J = np.zeros((T * L, T * L))
    eye = np.eye(L)
    for t in range(T):
        r0 = t * L
        J[r0:r0 + L, r0:r0 + L] = -(m.a + m.d) * eye - m.b * (eps * pair_hessian(q[t], spec))
        for u in (t + 1, t - 1):
            c0 = (u % T) * L
            J[r0:r0 + L, c0:c0 + L] += eye
    return J


def winding_lift(family, shift, m):
    """The q-p lift of a shifted family: positions q0 (T, L) and integer offsets n_off (T, 2L).

    Per time n_off is laid out [n^q_0..n^q_{L-1}, n^p_0..n^p_{L-1}], with the
    unreduced map step of x_t plus n_t equal to x_{t+1} exactly.
    """
    T, L = family.period, family.L
    q0 = np.empty((T, L))
    n_off = np.zeros((T, 2 * L))
    for l, (orbit, off) in enumerate(zip(family.reps, shift)):
        qs, ps, den = orbit.cycle_lattice(m)
        qs = qs[off:] + qs[:off]
        ps = ps[off:] + ps[:off]
        for t in range(T):
            q0[t, l] = qs[t] / den
            qi = m.a * qs[t] + m.b * ps[t]
            pi = m.c * qs[t] + m.d * ps[t]
            tn = (t + 1) % T
            assert (qs[tn] - qi) % den == 0 and (ps[tn] - pi) % den == 0
            n_off[t, l] = (qs[tn] - qi) // den
            n_off[t, L + l] = (ps[tn] - pi) // den
    return q0, n_off


def winding_linear_code(n_off, m):
    """w_t = n^q_t - d n^q_{t-1} + b n^p_{t-1}: the q-p offsets with the momenta eliminated."""
    L = n_off.shape[1] // 2
    return n_off[:, :L] - np.roll(m.d * n_off[:, :L] - m.b * n_off[:, L:], 1, axis=0)


def winding_action(q, n_off, spec, eps):
    """Action of a continued orbit in its q-p lift, winding-corrected.

    The cat map's generating function with the step's first argument
    rebuilt from the next position and the fixed offsets, plus
    sum_t n^p_t q_{t+1}, which makes the sum critical on the torus.
    """
    L = q.shape[1]
    m = spec.subsystem
    q_next = np.roll(q, -1, axis=0)
    q_img = q_next - n_off[:, :L]
    w0 = (m.d * q_img**2 - 2.0 * q_img * q + m.a * q**2) / (2.0 * m.b)
    v = eps * pair_potential(q, spec)
    wind = n_off[:, L:] * q_next
    return math.fsum(w0.ravel().tolist() + v.tolist() + wind.ravel().tolist())


def poison_empty(monkeypatch):
    """Make np.empty fill every float buffer with NaN, so that a value read before it is written shows."""
    empty = np.empty

    def poisoned(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", poisoned)


def peak_mib(fn):
    """Traced peak of fn() in MiB, after one untraced call that warms imports and caches up."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def write_csv_rows(path, schema, header, rows):
    """The row-wise artifact writer: each float cell formatted on its own as repr(float(v))."""
    with open(path, "w", newline="") as f:
        f.write(f"# schema: sfflab/{schema} v1\n")
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


# ---------------------------------------------------------------------------
# test-only conveniences over the package: the package itself never calls these


def shift_action_lattice(family, r, m):
    """Exact per-site action of phi_0^r on the family representatives: (q, p, den) per site."""
    shift = as_shift(r, family.L, family.period)
    out = []
    for orbit, steps in zip(family.reps, shift):
        qs, ps, den = orbit.cycle_lattice(m)
        out.append((qs[steps], ps[steps], den))
    return out


def phase_difference(family, r, s, spec):
    """Phi between the orbits phi_0^r Gamma_0 and phi_0^s Gamma_0 (phases._shifted_lifts)."""
    return _shifted_lifts(family, r, s, spec)[-1]


def load_config(path):
    """The validated ExperimentConfig of a YAML config file."""
    return validate_config(read_config(path))


def coupled_step_unreduced(q, p, spec, eps, offsets=None):
    """Kick-then-rotate coupled map without modular reduction, in floats.

    p is kicked by eps dV/dq (pair_gradient) and the cat map rotates (q, p):
    the map whose orbits the position-form continuation solves for.
    """
    m = spec.subsystem
    pk = p + eps * pair_gradient(q, spec, offsets)
    return m.a * q + m.b * pk, m.c * q + m.d * pk
