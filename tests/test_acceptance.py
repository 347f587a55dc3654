"""Acceptance gate: one criterion per test, one printed verdict line per
criterion, at the stated tolerances."""

import cmath
import random
import time
from fractions import Fraction as F

import numpy as np

from elliptic_baxter import yangian
from elliptic_baxter.bethe import (
    elliptic_bethe_residual,
    elliptic_bethe_solve,
    yangian_bethe_solve,
)
from elliptic_baxter.modules import (
    build_asymptotic,
    dynamical_tensor,
    gauss_reconstruction_residual,
    gauss_scalar_law_residual,
    qdybe_residual,
    r_matrices,
    rll_residual,
)
from elliptic_baxter.qchar import (
    element_deviation,
    generalized_baxter,
    interchange_check,
    mul,
    qchar_of_module,
)
from elliptic_baxter.theta import (
    EllipticParams,
    SamplePlan,
    lattice_distance,
    theta_eval,
)
from elliptic_baxter.transfer import (
    QuantumSpace,
    commutativity_residual,
    interchange_transfer_residual,
    periodicity_residual,
    product_residual,
    q_operator,
    qq_relation_residual,
    tq_residual,
    transfer_matrix,
)

P = EllipticParams(tau=1j, hbar=0.31)
H = P.hbar
A1, A2 = 0.41 + 0.12j, 0.27 - 0.23j


def _verdict(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} {detail}"
    print(line, flush=True)
    assert ok, line


def _triples(seed, count, margin=5e-2):
    zs = SamplePlan(seed, count, margin).points(P)
    ws = SamplePlan(seed + 1, count, margin).points(P)
    xs = SamplePlan(seed + 2, count, margin).points(
        P, guard=lambda x: [x + k * H for k in range(-2, 3)])
    return list(zip(zs, ws, xs))


def test_criterion_1_theta_properties():
    t0 = time.perf_counter()
    zs = SamplePlan(seed=11, count=100, pole_margin=1e-2).points(P)
    worst = 0.0
    for z in zs:
        v = theta_eval(z, P)
        scale = max(1.0, abs(v))
        worst = max(worst, abs(theta_eval(z + 1, P) + v) / scale)
        mult = -cmath.exp(-1j * cmath.pi * P.tau - 2j * cmath.pi * z)
        worst = max(worst,
                    abs(theta_eval(z + P.tau, P) - mult * v)
                    / max(1.0, abs(mult * v)))
        worst = max(worst, abs(theta_eval(-z, P) + v) / scale)
    dt = time.perf_counter() - t0
    _verdict(1, "theta quasi-periodicity and oddness",
             worst < 1e-10 and dt < 1.0,
             f"residual={worst:.2e} time={dt:.2f}s")


def _dyn_embed(rfunc, slots):
    """Embed a dynamically shifted two-slot R factor into three slots;
    the free slot's component sets the shift weight."""
    m = np.zeros((8, 8), dtype=complex)
    idx = lambda a, b, c: 4 * a + 2 * b + c
    for a, b, ap, bp in np.ndindex(2, 2, 2, 2):
        for c in range(2):
            wt = 1 if c == 0 else -1
            r = rfunc(wt)
            t, s = [0, 0, 0], [0, 0, 0]
            t[slots[0]], t[slots[1]] = a, b
            s[slots[0]], s[slots[1]] = ap, bp
            free = ({0, 1, 2} - set(slots)).pop()
            t[free] = s[free] = c
            m[idx(*t), idx(*s)] = r[2 * a + b, 2 * ap + bp]
    return m


def test_criterion_2_dynamical_yang_baxter():
    worst = 0.0
    for z, w, x in _triples(23, 50):
        worst = max(worst, qdybe_residual(z, w, x, P))
    # negative control: one dynamical shift perturbed by a lattice period
    z, w, x = _triples(29, 1)[0]
    r12 = _dyn_embed(lambda wt: r_matrices([z - w], [x + H * wt], P)[0], (0, 1))
    r13 = _dyn_embed(lambda wt: r_matrices([z], [x], P)[0], (0, 2))
    r23 = _dyn_embed(lambda wt: r_matrices([w], [x + H * wt], P)[0], (1, 2))
    r23p = _dyn_embed(lambda wt: r_matrices([w], [x], P)[0], (1, 2))
    r13s = _dyn_embed(lambda wt: r_matrices([z], [x + H * wt], P)[0], (0, 2))
    r12p = _dyn_embed(lambda wt: r_matrices([z - w], [x], P)[0], (0, 1))
    lhs, rhs = r12 @ r13 @ r23, r23p @ r13s @ r12p
    sane = np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(lhs))
    r13bad = _dyn_embed(lambda wt: r_matrices([z], [x + P.tau], P)[0], (0, 2))
    bad = np.linalg.norm(r12 @ r13bad @ r23 - rhs) / max(
        1.0, np.linalg.norm(lhs))
    _verdict(2, "dynamical Yang-Baxter",
             worst < 1e-9 and sane < 1e-9 and bad > 1e-2,
             f"residual={worst:.2e} control={bad:.2e}")


def test_criterion_3_exchange_relation_ladder():
    rng = np.random.default_rng(31)
    worst = 0.0
    pts = _triples(37, 20)
    for i, (z, w, x) in enumerate(pts):
        spin = complex(0.3 + 1.4 * rng.random(), 0.1 + 0.7 * rng.random())
        X = build_asymptotic(spin, 0.0, 12, P)
        level = (0, 5, 10)[i % 3]
        worst = max(worst, rll_residual(X, z, w, x, level))
    _verdict(3, "exchange relation on the ladder family", worst < 1e-8,
             f"residual={worst:.2e}")


def test_criterion_4_gauss_identities():
    spin = 1.7 + 0.3j
    X = build_asymptotic(spin, 0.0, 8, P)
    pts = SamplePlan(seed=43, count=6, pole_margin=5e-2).pairs(
        P, guard=lambda z, x: [x + k * H for k in range(-8, 9)])
    rec = gauss_reconstruction_residual(X, pts)
    scal = gauss_scalar_law_residual(X, pts)
    _verdict(4, "Gauss decomposition identities",
             rec < 1e-9 and scal < 1e-9,
             f"reconstruction={rec:.2e} scalar-law={scal:.2e}")


def test_criterion_5_qchar_suite():
    X = build_asymptotic(1.1 + 0.2j, 0.0, 8, P)
    Y = build_asymptotic(0.7 - 0.4j, 0.3, 8, P)
    T = dynamical_tensor(X, Y, max_level=8)
    qT = qchar_of_module(T)
    multi = element_deviation(
        qT, mul(qchar_of_module(X), qchar_of_module(Y), qT.depth))
    inter = interchange_check(1.3 + 0.2j, 0.57, 8, P)
    bax = max(generalized_baxter(l, 6, P) for l in range(4))
    _verdict(5, "q-character suite",
             multi < 1e-9 and inter < 1e-9 and bax < 1e-9,
             f"multiplicativity={multi:.2e} interchange={inter:.2e} "
             f"baxter={bax:.2e}")


def test_criterion_6_transfer_suite():
    space = QuantumSpace((A1, A2), P)
    order = 6
    pts = SamplePlan(seed=61, count=3, pole_margin=5e-2).pairs(
        P, guard=lambda z, x: [x + k * H for k in range(-6, 7)])
    xs = [x for _, x in pts]
    K = order + 3
    X = build_asymptotic(1.3 + 0.2j, 0.0, K, P)
    Y = build_asymptotic(0.7 - 0.3j, 0.0, K, P)
    prod = product_residual(X, Y, dynamical_tensor(X, Y, max_level=K),
                            space, order, pts)
    inter = interchange_transfer_residual(1.3 + 0.2j, 0.57, space, order, pts)
    comm = commutativity_residual(X, Y, space, order,
                                  0.37 + 0.21j, -0.12 + 0.43j,
                                  [(0.0, x) for x in xs])
    qq = qq_relation_residual(1.3 + 0.2j, space, order, [0.37 + 0.21j], xs)
    tq = tq_residual(1, space, order, [0.37 + 0.21j, -0.12 + 0.43j], xs)
    hom = QuantumSpace((A1, A1), P)
    per = periodicity_residual(hom, order, [0.37 + 0.21j], xs)
    t0 = transfer_matrix(build_asymptotic(0.0, 0.0, 8, P), space, 0)
    ref = theta_eval(A1, P) * theta_eval(A2, P)
    lead = max(
        np.abs(t0.terms[0].eval(0.0, x) - ref * np.eye(2)).max() /
        max(1.0, abs(ref))
        for x in xs
    )
    qtilde = _normalized_q_entry_residual(order, xs)
    ok = (prod < 1e-8 and inter < 1e-8 and comm < 1e-8 and qq < 1e-8
          and tq < 1e-8 and per < 1e-7 and lead < 1e-10 and qtilde < 1e-9)
    _verdict(6, "transfer-matrix suite (two sites)", ok,
             f"product={prod:.2e} interchange={inter:.2e} comm={comm:.2e} "
             f"qq={qq:.2e} tq={tq:.2e} periodicity={per:.2e} "
             f"leading={lead:.2e} entries={qtilde:.2e}")


def _normalized_q_entry_residual(order, xs):
    """Frozen closed forms of the four normalized-Q entry series on the
    two-string basis."""
    zq = 0.37 + 0.21j
    q = q_operator(QuantumSpace((A1, A2), P), zq, order)

    def th(c):
        return theta_eval(c, P)

    def entry(j, x):
        a = (th(zq + A1 - j * H) * th(zq + x + (1 - j) * H) * th(x - j * H)
             * th(A2 + j * H) / (th(x) * th(zq + x + (1 - 2 * j) * H)))
        b = 0.0 if j == 0 else -(
            th(zq + A1 + x - j * H) * th(zq - (j - 1) * H)
            * th(A2 - x + j * H) * th(j * H)
            / (th(zq + x + (1 - 2 * j) * H) * th(x - H)))
        c = -(th(A1 - x + j * H) * th((j + 1) * H) * th(zq + A2 + x - j * H)
              * th(zq - j * H) / (th(x) * th(zq + x - 2 * j * H)))
        d = (th(A1 + j * H) * th(zq + A2 - j * H) * th(zq + x - j * H)
             * th(x - (j + 1) * H) / (th(x - H) * th(zq + x - 2 * j * H)))
        return np.array([[a, b], [c, d]])

    worst = 0.0
    for k in range(order + 1):
        for x in xs:
            ref = entry(k, x)
            got = q.terms[k].eval(0.0, x)
            worst = max(worst,
                        np.abs(got - ref).max() / max(1.0, np.abs(ref).max()))
    return worst


def test_criterion_7_yangian_suite_exact():
    rtt = max(
        max(yangian.rtt_residual(yangian.build_module("finite", spin=m))
            for m in (1, 2, 3)),
        yangian.rtt_residual(
            yangian.build_module("ladder", spin=F(5, 3), levels=6)),
        yangian.rtt_residual(yangian.build_module("oscillator", levels=6)),
    )
    rng = random.Random(2024)
    degree_ok = True
    for trial in range(50):
        L = trial % 4 + 1
        sites = tuple(
            F(rng.choice([n for n in range(-9, 10) if n]), rng.randint(1, 9))
            for _ in range(L)
        )
        for d in yangian.q_degree_report(sites, order=1):
            if not (d.degree_matches and d.leading_nonzero
                    and d.p0_upper_triangular and d.p0_diagonal_matches):
                degree_ok = False
    tq = max(
        yangian.tq_residual((F(3, 4),), 10),
        yangian.tq_residual((F(2, 3), F(-5, 7)), 10),
        yangian.tq_residual((F(2, 3), F(-5, 7), F(9, 4)), 10),
    )
    a21 = float(yangian.two_site_leading_residual(F(2, 3), F(-5, 7), 12))
    eig = max(
        yangian.eigen_example_residual(F(2, 3), F(9, 5), F(1, 3)),
        yangian.eigen_example_residual(F(1, 2), F(7, 4), F(2, 5)),
    )
    twoq = max(
        yangian.oscillator_comparison((F(2, 3), F(-5, 7)), 10),
        yangian.oscillator_comparison((F(2, 3), F(-5, 7), F(9, 4)), 10),
    )
    qch_ok = True
    for i, pair in enumerate(yangian.yangian_qchar(
            yangian.build_module("finite", spin=3))):
        qch_ok &= pair == yangian.qchar_finite_term(3, i)
    for i, pair in enumerate(yangian.yangian_qchar(
            yangian.build_module("ladder", spin=F(5, 3), levels=6))):
        qch_ok &= pair == yangian.qchar_ladder_term(F(5, 3), F(0), i)
    for i, pair in enumerate(yangian.yangian_qchar(
            yangian.build_module("oscillator", levels=6))):
        qch_ok &= pair == yangian.qchar_oscillator_term(i)
    ok = (rtt == 0.0 and degree_ok and tq == 0.0 and a21 == 0.0
          and eig == 0.0 and twoq == 0.0 and qch_ok)
    _verdict(7, "rational suite, exact arithmetic", ok,
             f"rtt={rtt} degree={degree_ok} tq={tq} a21={a21} eigen={eig} "
             f"two-q={twoq} qchar={qch_ok}")


def _grid_scan_roots(a, p, grid=80):
    out = []
    for sgn in (1.0, -1.0):
        def g(z):
            return (theta_eval(z + a, P)
                    - sgn * (1 / p) * theta_eval(z + a + H, P))

        cells = sorted(
            ((abs(g(i / grid + (j / grid) * 1j)), i / grid + (j / grid) * 1j)
             for i in range(grid) for j in range(grid)),
            key=lambda t: t[0],
        )
        for _, z in cells[:25]:
            for _ in range(60):
                gv = g(z)
                z = z - gv / ((g(z + 1e-7) - gv) / 1e-7)
            if abs(g(z)) < 1e-10 and all(
                    lattice_distance(z - w, P) > 1e-6 for w in out):
                out.append(z)
    return out


def test_criterion_8_bethe_suite():
    a, p = A1, cmath.exp(0.4j)
    rep = elliptic_bethe_solve(1, a, p, P, seed_count=25)
    found = [c.roots[0] for c in rep.solutions]
    oracle = _grid_scan_roots(a, p)
    match = bool(oracle) and max(
        min(lattice_distance(z - w, P) for w in found) for z in oracle
    ) < 1e-8
    res = max(
        float(np.abs(elliptic_bethe_residual(c, P)).max())
        for c in rep.solutions
    )
    # rational-level quadratic roots feed the eigenpair of criterion 7
    a1, a2, pq = 0.7, 1.9, 0.3
    roots = yangian_bethe_solve(a1, a2, pq).roots
    Amat = np.array([
        [a1 + pq / (1 - pq), 1 / (1 - pq)],
        [pq / (1 - pq), a2 + pq / (1 - pq)],
    ]) / (1 - pq)
    eig_ok = True
    for z1 in roots:
        v = np.array([z1 + a1 + 1, z1 + a2])
        lam = (a1 / (1 - pq) + pq / (1 - pq) ** 2
               + (z1 + a2) / ((z1 + a1 + 1) * (1 - pq) ** 2))
        eig_ok &= bool(np.abs(Amat @ v - lam * v).max() < 1e-12)
    exact_eig = yangian.eigen_example_residual(F(7, 10), F(19, 10), F(3, 10))
    ok = match and res < 1e-10 and eig_ok and exact_eig == 0.0
    _verdict(8, "Bethe-equation suite", ok,
             f"grid-match={match} residual={res:.2e} "
             f"eigenpair={eig_ok and exact_eig == 0.0}")
