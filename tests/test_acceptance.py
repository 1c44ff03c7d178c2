"""End-to-end acceptance gate.

Each test covers one headline criterion at its stated tolerance and prints a
single PASS line on success (visible with -rP / -s); a failure reads as the
matching FAIL in the pytest report.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

from favlab.favard import (
    bound_constant,
    fit_decay,
    merge_intervals,
    projection_sweep,
)
from favlab.ifs import IFS, compose_geoms, norm_angle, similarity_dimension
from favlab.projection import density_witness, visibility_estimate
from favlab.relclose import SearchBudget, grow_family, power_family
from favlab.rotation import diophantine_profile, epsilon_net
from oracle import LevelSweeper


@pytest.fixture(scope="module")
def ifs():
    return IFS.from_json("configs/fig1.json")


def test_01_dimension_solver():
    t0 = time.perf_counter()
    g3 = similarity_dimension([1 / 3, 1 / 3, 1 / 3])
    g4 = similarity_dimension([1 / 2] * 4)
    gm = similarity_dimension([1 / 2, 1 / 4])
    elapsed = time.perf_counter() - t0
    assert abs(g3 - 1.0) < 1e-12
    assert abs(g4 - 2.0) < 1e-12
    # analytic oracle: 2^-g + 4^-g = 1 => g = log2((sqrt(5)-1)/2) / log2(1/2)
    analytic = math.log((math.sqrt(5.0) - 1.0) / 2.0) / math.log(0.5)
    assert abs(gm - analytic) < 1e-12
    assert elapsed < 3e-3  # < 1 ms per solve
    print("PASS 1: dimension solver exact within 1e-12, fast")


def test_02_composition_homomorphism(ifs):
    rng = np.random.default_rng(0)
    trials = 10_000
    for _ in range(trials):
        ku, kv, ka = rng.integers(1, 7, size=3)
        u = tuple(rng.integers(1, 4, size=ku).tolist())
        v = tuple(rng.integers(1, 4, size=kv).tolist())
        a = tuple(rng.integers(1, 4, size=ka).tolist())
        gu, gv, ga = ifs.compose(u), ifs.compose(v), ifs.compose(a)
        # homomorphism: compose(u + a) == compose(u) o compose(a)
        lhs = ifs.compose(u + a)
        rhs = compose_geoms(gu, ga)
        assert abs(lhs.r - rhs.r) < 1e-9
        d = abs(norm_angle(lhs.theta - rhs.theta))
        assert min(d, 2 * math.pi - d) < 1e-9
        assert lhs.orient == rhs.orient
        assert abs(lhs.tx - rhs.tx) < 1e-9 and abs(lhs.ty - rhs.ty) < 1e-9
        # angle-difference invariance under a common suffix
        if gu.orient == gv.orient:
            d1 = norm_angle(ifs.compose(u + a).theta - ifs.compose(v + a).theta)
            d2 = norm_angle(gu.theta - gv.theta)
            dd = abs(norm_angle(d1 - d2))
            assert min(dd, 2 * math.pi - dd) < 1e-9
    print("PASS 2: 10^4 composition/angle-invariance trials at 1e-9")


def test_03_power_family_n5(ifs):
    t0 = time.perf_counter()
    cert = power_family(ifs, (2,), (3,), 5, eps=1e-6)
    elapsed = time.perf_counter() - t0
    assert len(cert.words) == 32
    pairs = list(cert.pairs())
    assert len(pairs) == 496
    # every pair verified at eps = 1e-6 with omega = u-bar by construction;
    # slacks recorded by the independent verifier must all be positive
    for key, slack in cert.slacks.items():
        assert slack.slack_i > 0 and slack.slack_ii > 0 and slack.slack_iii > 0
    assert elapsed < 5.0
    print(f"PASS 3: power family n=5, 32 words, 496 verified pairs "
          f"({elapsed:.2f}s)")


def test_04_double_family_iterated(ifs):
    fam = grow_family(ifs, 1.0, 8, SearchBudget(max_depth=12))
    assert len(fam.words) >= 8
    prov = fam.provenance
    assert prov["op"] == "double_family"
    assert prov["eps1"] < fam.eps / 6.0
    assert 0.0 < prov["eps2"] <= prov["eps2_bound_linear"]
    assert prov["eps2"] <= prov["eps2_bound_matrix"]
    print(f"PASS 4: doubled to {len(fam.words)} words at eps=1, "
          f"eps1={prov['eps1']:.4g}, eps2={prov['eps2']:.4g}")


def test_05_density_witness(ifs):
    cert = power_family(ifs, (2,), (3,), 4)
    wit = density_witness(ifs, cert, cert.theta)
    n = len(cert.words)
    assert n == 16
    bound = n / (10.0 * ifs.D * math.e) ** ifs.gamma
    assert wit.ratio >= bound * 0.99
    print(f"PASS 5: density ratio {wit.ratio:.4f} >= "
          f"0.99 * {bound:.4f} at the constructed ball")


def _raster_cells(los, his, cells=2**20):
    lo, hi = float(los.min()), float(his.max())
    w = (hi - lo) / cells
    covered = np.zeros(cells, dtype=bool)
    i0 = np.clip(((los - lo) / w).astype(int), 0, cells - 1)
    i1 = np.clip(np.ceil((his - lo) / w).astype(int), 1, cells)
    for a, b in zip(i0, i1):
        covered[a:b] = True
    return int(covered.sum()), w


def test_06_favard_sweep(ifs):
    K = 64
    thetas = [(j + 0.5) * math.pi / K for j in range(K)]
    levels = list(range(2, 13))
    t0 = time.perf_counter()
    runs = {}
    for workers in ("1", "4"):
        os.environ["FAVLAB_THREADS"] = workers
        try:
            runs[workers] = projection_sweep(ifs, levels, thetas)
        finally:
            os.environ.pop("FAVLAB_THREADS", None)
    elapsed = time.perf_counter() - t0
    sweep = runs["1"]
    # bit-identical across worker counts
    for n in levels:
        assert sweep[n].tolist() == runs["4"][n].tolist()
    # per-theta monotone in n
    for a, b in zip(levels, levels[1:]):
        assert np.all(sweep[b] <= sweep[a] + 1e-9)
    # rasterization oracle, n <= 6: the oracle counts touched 2^-20 cells, so
    # its overhang is up to 2 cells per merged component
    for n in (2, 4, 6):
        sweeper = LevelSweeper(ifs)
        sweeper.advance_to(n)
        for theta in thetas[::8]:
            lo, hi = sweeper.intervals_at(theta)
            merged = merge_intervals(lo, hi)
            count, w = _raster_cells(lo, hi)
            assert count * w - 2 * len(merged) * w - 1e-12 <= merged.total_length
            assert merged.total_length <= count * w + 1e-12
    assert elapsed < 60.0
    print(f"PASS 6: n=2..12 x K=64 sweep monotone, raster-checked, "
          f"deterministic ({elapsed:.1f}s for both runs)")


def test_07_bound_constant_and_fit(ifs):
    B = bound_constant(1, 2.0, 3, 0.1)
    assert abs(B - math.log(2.0) / (3.3 * math.log(3.0))) < 1e-12
    # exact synthetic recovery
    fit = fit_decay([(n, 2.0 / math.log(n) ** 0.5) for n in range(3, 16)])
    assert fit.A_hat == pytest.approx(2.0, abs=1e-9)
    assert fit.B_hat == pytest.approx(0.5, abs=1e-9)
    # fig1 sweep: only the sign of B_hat is a desk-scale claim
    K = 16
    thetas = [(j + 0.5) * math.pi / K for j in range(K)]
    sweep = projection_sweep(ifs, range(3, 13), thetas)
    samples = [(n, float(v.mean()) * math.pi) for n, v in sorted(sweep.items())]
    fig1_fit = fit_decay(samples)
    assert fig1_fit.B_hat > 0.0
    print(f"PASS 7: B = log2/(3.3 log3), fit recovers (2, 0.5), "
          f"fig1 B_hat = {fig1_fit.B_hat:.3f} > 0")


def test_08_counting():
    from favlab.counting import avoidance_count, e_bound_holds, removal_recursion
    from favlab.ifs import Similitude

    exact, bound = avoidance_count(2, 2, 4)  # words of length 8
    # brute enumeration oracle
    forbidden = (1, 1)
    brute = sum(
        all(w[2 * i:2 * i + 2] != forbidden for i in range(4))
        for w in itertools.product((1, 2), repeat=8)
    )
    assert exact == brute == 81
    for m in (2, 3, 4):
        for s in (1, 2, 3, 4):
            # m^L (1-m^-s)^(m^s s) <= m^L e^-s; the m^L factor cancels and
            # the rest is compared in log space (m^L itself overflows floats)
            assert (m**s * s) * math.log1p(-m ** (-float(s))) <= -s
            assert e_bound_holds(m, s)
    toy = IFS.from_maps(
        [
            Similitude(r=0.4, theta=math.sqrt(2.0), orient=1, tx=0.0, ty=0.0),
            Similitude(r=0.4, theta=0.0, orient=1, tx=0.5, ty=0.1),
        ]
    )
    trace = removal_recursion(toy, (2, 2), 0.0, 7.0, 3)
    for a, b in zip(trace.masses, trace.masses[1:]):
        assert b < (1.0 - trace.c) * a + 1e-12
    # exhaustive enumeration of the m=2 toy at full depth
    for i in range(4):
        mass = sum(
            toy.mu_mass(w)
            for w in itertools.product((1, 2), repeat=2 * i)
            if all(w[2 * j:2 * j + 2] != (2, 2) for j in range(i))
        )
        assert trace.masses[i] == pytest.approx(mass, rel=1e-9)
    print("PASS 8: counting equals enumeration, e-bound chain, removal trace")


def test_09_diophantine(ifs):
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    prof = diophantine_profile(phi, 10**6, 2.0)
    tail = [n * res for n, _, res in prof.convergents if n > 100]
    assert min(tail) == pytest.approx(1.0 / math.sqrt(5.0), rel=0.05)
    theta1 = 2 * math.pi * (1.0 + math.sqrt(2.0)) / 2.0
    for eps in (0.5, 0.2, 0.1, 0.05):
        net = epsilon_net(theta1, eps, 10**6)
        assert net.max_gap < eps  # self-verification
    print("PASS 9: golden-ratio liminf ~ 1/sqrt(5), eps-nets verified")


def test_10_visibility(ifs):
    centers = {
        "outside": (3.0, 0.0),
        "on": (1.0, 0.0),
        "inside": (2 / 3, 1 / 3),
    }
    for name, center in centers.items():
        prev = math.inf
        for n in range(4, 13):
            est = visibility_estimate(ifs, center, 1.0, n)
            assert est.covering_sum <= prev + 1e-12
            prev = est.covering_sum
        if name == "inside":
            assert est.full_circle and est.engulfing_cylinders >= 1
    print("PASS 10: covering sums nonincreasing from outside/on/inside centers")
