import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from favlab.errors import ConfigError
from favlab.ifs import (
    IFS,
    IDENTITY,
    HullBody,
    Similitude,
    TailWord,
    _convex_hull,
    compose_geoms,
    norm_angle,
    parse_word,
    similarity_dimension,
    word_str,
)
from oracle import geom_power, iterated_pi_point


def fig1():
    return IFS.from_json("configs/fig1.json")


# ---------------------------------------------------------------- dimension


def test_dimension_exact_values():
    # [TRIVIAL] closed forms of the Moran equation
    assert abs(similarity_dimension([1 / 3] * 3) - 1.0) < 1e-12
    assert abs(similarity_dimension([1 / 2] * 4) - 2.0) < 1e-12
    assert abs(similarity_dimension([1 / 2] * 2) - 1.0) < 1e-12


def test_dimension_mixed_ratios():
    # [DERIVED] (1/2)^g + (1/4)^g = 1 => x + x^2 = 1 with x = 2^-g,
    # so x = (sqrt(5)-1)/2 and g = log(x)/log(1/2)
    x = (math.sqrt(5.0) - 1.0) / 2.0
    expected = math.log(x) / math.log(0.5)
    assert abs(similarity_dimension([0.5, 0.25]) - expected) < 1e-12


def test_dimension_fast():
    t0 = time.perf_counter()
    for _ in range(100):
        similarity_dimension([0.5, 0.25, 0.125])
    assert (time.perf_counter() - t0) / 100 < 1e-3


@given(st.lists(st.floats(0.05, 0.8), min_size=2, max_size=6))
def test_dimension_solves_moran(ratios):
    g = similarity_dimension(ratios)
    assert abs(sum(r**g for r in ratios) - 1.0) < 1e-9


def test_dimension_rejects_bad_ratios():
    with pytest.raises(ConfigError):
        similarity_dimension([1.0, 0.5])
    with pytest.raises(ConfigError):
        similarity_dimension([])


# ---------------------------------------------------------------- words


def test_parse_word_roundtrip():
    assert parse_word("123") == (1, 2, 3)
    assert word_str((1, 2, 3)) == "123"
    assert parse_word("") == ()


# ---------------------------------------------------------------- geometry


def _matrix_oracle(geoms):
    """[DERIVED] oracle: brute 3x3 homogeneous-matrix product."""
    M = np.eye(3)
    for g in geoms:
        c, s = math.cos(g.theta), math.sin(g.theta)
        A = np.array(
            [
                [g.r * c, -g.r * g.orient * s, g.tx],
                [g.r * s, g.r * g.orient * c, g.ty],
                [0.0, 0.0, 1.0],
            ]
        )
        M = M @ A
    return M


sim_geoms = st.builds(
    Similitude,
    r=st.floats(0.1, 0.9),
    theta=st.floats(0.0, 2 * math.pi, exclude_max=True),
    orient=st.sampled_from([1, -1]),
    tx=st.floats(-2.0, 2.0),
    ty=st.floats(-2.0, 2.0),
)


@settings(max_examples=200)
@given(st.lists(sim_geoms, min_size=1, max_size=5))
def test_compose_matches_matrix_product(sims):
    ifs_like = [compose_geoms(IDENTITY, s) for s in sims]
    g = IDENTITY
    for h in ifs_like:
        g = compose_geoms(g, h)
    M = _matrix_oracle(ifs_like)
    c, s = math.cos(g.theta), math.sin(g.theta)
    got = np.array(
        [
            [g.r * c, -g.r * g.orient * s, g.tx],
            [g.r * s, g.r * g.orient * c, g.ty],
            [0.0, 0.0, 1.0],
        ]
    )
    assert np.allclose(got, M, atol=1e-9)


def test_geom_power_matches_repeated_compose():
    ifs = fig1()
    g = ifs.compose((1, 2))
    acc = IDENTITY
    for k in range(7):
        p = geom_power(g, k)
        assert abs(p.r - acc.r) < 1e-12
        assert abs(norm_angle(p.theta - acc.theta)) < 1e-9 or abs(
            norm_angle(p.theta - acc.theta) - 2 * math.pi
        ) < 1e-9
        acc = compose_geoms(acc, g)


def test_fixed_point():
    ifs = fig1()
    for f in ifs.maps:
        x, y = f.fixed_point()
        fx, fy = f.apply((x, y))
        assert abs(fx - x) < 1e-12 and abs(fy - y) < 1e-12
    assert ifs.maps[1].fixed_point() == pytest.approx((1.0, 0.0))
    assert ifs.maps[2].fixed_point() == pytest.approx((0.0, 1.0))


def test_composed_fixed_point():
    # a word's geometry has a fixed point too: the coded point of its period
    flipped = IFS.from_maps([Similitude(0.4, 1.0, -1, 0.3, -0.2), *fig1().maps[1:]])
    for ifs in (fig1(), flipped):
        for w in [(1,), (1, 2), (3, 1, 2), (2, 1) * 7]:
            g = ifs.compose(w)
            z = g.fixed_point()
            assert g.apply(z) == pytest.approx(z, abs=1e-15)


# ---------------------------------------------------------------- tail words


def test_tailword_canonical_period():
    # [TRIVIAL] (121212)~ == (12)~ and prefix absorption
    assert TailWord((), (1, 2, 1, 2)) == TailWord((), (1, 2))
    assert TailWord((1, 2), (1, 2)) == TailWord((), (1, 2))
    assert TailWord((1,), (2, 1)) == TailWord((), (1, 2))


def test_tailword_head():
    w = TailWord((3,), (1, 2))
    assert w.head(5) == (3, 1, 2, 1, 2)
    assert w.head(0) == ()


@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=4),
    st.integers(1, 4),
    st.integers(0, 3),
)
def test_tailword_repeat_invariance(period, reps, shift):
    base = TailWord((), tuple(period))
    repeated = TailWord((), tuple(period) * reps)
    assert base == repeated
    shifted = TailWord(tuple(period)[:shift] if shift <= len(period) else (),
                       tuple(period))
    assert shifted.head(12) == shifted.head(12)  # head is deterministic
    assert base.head(20) == repeated.head(20)


# ---------------------------------------------------------------- measure


def test_mu_mass_additivity():
    ifs = fig1()
    # [TRIVIAL] masses of the children of a cylinder sum to its mass
    for u in [(), (1,), (2, 3)]:
        total = sum(ifs.mu_mass(u + (i,)) for i in (1, 2, 3))
        assert abs(total - ifs.mu_mass(u)) < 1e-12


def test_mass_band_matches_enumeration():
    ifs = fig1()
    # [DERIVED] oracle: exhaustive enumeration, homogeneous ratios => bands
    # are exactly the words of a fixed length
    for k in (1, 2, 3, 4):
        r = 1.5 * (1 / 3) ** k
        batch, symbols = ifs.band(r)
        assert len(batch) == len(symbols) == 3**k
        assert symbols.shape == (3**k, k)
        band = sorted(ifs.mass_band(r))
        assert band == sorted(map(tuple, symbols.tolist())) == sorted(
            __import__("itertools").product((1, 2, 3), repeat=k)
        )


def test_pi_point_fixed_tails():
    ifs = fig1()
    # [TRIVIAL] the tail 2~ codes the fixed point of map 2
    (x, y), err = iterated_pi_point(ifs, ifs.compose(()), TailWord((), (2,)), 1e-12)
    assert abs(x - 1.0) < 1e-9 and abs(y) < 1e-9 and err < 1e-9
    assert ifs.pi_point(ifs.compose(()), TailWord((), (2,))) == pytest.approx((1.0, 0.0), abs=1e-15)
    # prefixing applies the word's map
    (x, y), err = iterated_pi_point(ifs, ifs.compose((3,)), TailWord((), (2,)), 1e-12)
    fx, fy = ifs.maps[2].apply((1.0, 0.0))
    assert abs(x - fx) < 1e-9 and abs(y - fy) < 1e-9
    assert ifs.pi_point(ifs.compose((3,)), TailWord((), (2,))) == pytest.approx((fx, fy), abs=1e-15)


def test_enclosing_disk_invariant():
    ifs = fig1()
    cx, cy = ifs.center
    for f in ifs.maps:
        fx, fy = f.apply((cx, cy))
        # F_i(disk) has center F_i(c) and radius r_i R0; containment:
        assert math.hypot(fx - cx, fy - cy) + f.r * ifs.R0 <= ifs.R0 + 1e-12


# ---------------------------------------------------------------- config


def test_from_dict_rejects_bad_configs():
    good = {"maps": [{"r": 0.5, "theta": 0.0, "tx": 0.0, "ty": 0.0}] * 2}
    IFS.from_dict(good)
    for bad in [
        {},
        {"maps": []},
        {"maps": [{"r": 0.5, "tx": 0.0, "ty": 0.0}]},
        {"maps": [{"r": 0.5, "theta": 0.0, "theta_over_pi": 0.0,
                   "tx": 0.0, "ty": 0.0}]},
        {"maps": [{"r": 0.5, "theta": 0.0, "tx": 0.0, "ty": 0.0,
                   "bogus": 1}]},
        {"maps": [{"r": 1.5, "theta": 0.0, "tx": 0.0, "ty": 0.0}]},
    ]:
        with pytest.raises(ConfigError):
            IFS.from_dict(bad)


def test_ifs_derives_its_constants_from_the_maps():
    maps = fig1().maps
    ifs = IFS(maps)
    assert ifs == IFS.from_maps(list(maps))
    assert (ifs.r_min, ifs.D) == (min(f.r for f in maps), 2.0 * ifs.R0)
    with pytest.raises(TypeError):
        IFS(maps, gamma=1.0)
    with pytest.raises(ConfigError, match="no maps"):
        IFS(())
    with pytest.raises(ConfigError, match="float range"):
        IFS((Similitude(0.5, 0.0, 1, 1e308, 1e308), Similitude(0.5, 1.0, 1, 0.0, 0.0)))


# ---------------------------------------------------------------- hull support


def _dense_products(vertices, psi):
    """Every vertex projected at every angle: the N x V matrix whose min and
    max per row are the support range."""
    v = np.asarray(vertices, dtype=float)
    return np.cos(psi)[:, None] * v[:, 0][None, :] + np.sin(psi)[:, None] * v[:, 1][None, :]


def _assert_support_bits(body, vertices, psi):
    """support_range equals the dense min and max bit for bit.  The one
    exception is a zero extreme that the row reaches both as +0.0 and as
    -0.0: numpy's reduction returns either sign, by its lane order."""
    sup = _dense_products(vertices, psi)
    zero = sup == 0.0
    both_signs = (zero & np.signbit(sup)).any(axis=1) & (zero & ~np.signbit(sup)).any(axis=1)
    for got, want in zip(body.support_range(psi), (sup.min(axis=1), sup.max(axis=1))):
        assert got.shape == want.shape
        free = both_signs & (want == 0.0)
        assert got[~free].tobytes() == want[~free].tobytes()
        assert np.all(got[free] == 0.0)


def _near_normal_angles(points):
    """Each outward edge normal of the hull, and its opposite, shifted by
    whole turns across (-50, 50) and by -3..3 ulps."""
    hull = np.array(_convex_hull([tuple(p) for p in points]), dtype=float)
    if len(hull) < 2:
        return np.array([])
    ex, ey = (np.roll(hull, -1, axis=0) - hull).T
    normals = np.arctan2(-ex, ey)
    out = []
    for base in np.concatenate((normals, normals + math.pi)):
        for turns in (-7, -1, 0, 1, 7):
            x = base + 2 * math.pi * turns
            out.append(x)
            up = down = x
            for _ in range(3):
                up, down = np.nextafter(up, math.inf), np.nextafter(down, -math.inf)
                out += [up, down]
    return np.array(out)


coords = st.floats(-10.0, 10.0)
grid_coords = st.integers(-4, 4).map(float)


@st.composite
def collinear_runs(draw):
    """Points along one segment, pushed off it by tiny perpendicular offsets,
    optionally closed into a polygon by one far point."""
    x0, y0 = draw(coords), draw(coords)
    phi = draw(st.floats(0.0, 2 * math.pi))
    length = draw(st.sampled_from([1e-3, 1.0, 7.0]))
    dx, dy = math.cos(phi), math.sin(phi)
    ts = draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12))
    offs = draw(
        st.lists(
            st.tuples(
                st.integers(-3, 3),
                st.sampled_from([0.0, 1e-17, 1e-16, 1e-15, 1e-13, 1e-10, 1e-7]),
            ),
            min_size=len(ts),
            max_size=len(ts),
        )
    )
    pts = [
        (x0 + length * t * dx - k * e * dy, y0 + length * t * dy + k * e * dx)
        for t, (k, e) in zip(ts, offs)
    ]
    if draw(st.booleans()):
        pts.append((x0 - dy * 3.0, y0 + dx * 3.0))
    return pts


point_sets = st.one_of(
    st.lists(st.tuples(coords, coords), min_size=1, max_size=30),
    st.lists(st.tuples(grid_coords, grid_coords), min_size=1, max_size=12),
    st.lists(st.tuples(coords, coords), min_size=1, max_size=2),  # points, segments
    collinear_runs(),
)


@settings(max_examples=300, deadline=None)
@given(point_sets, st.booleans(), st.lists(st.floats(-50.0, 50.0), max_size=40))
def test_support_range_bit_identical_to_dense(points, as_hull, drawn):
    vertices = _convex_hull(points) if as_hull else points
    body = HullBody(vertices)
    quarter_turns = np.arange(-12, 13) * (math.pi / 4)  # exact ties on grid polygons
    psi = np.concatenate((drawn, quarter_turns, _near_normal_angles(points)))
    _assert_support_bits(body, vertices, psi)


def test_support_range_single_point_and_segment():
    psi = np.linspace(-50.0, 50.0, 1001)
    # NaN directions give NaN and leave the others their dense values
    with_nan = np.concatenate(([np.nan], psi[:7], [np.nan, np.nan], psi[7:12]))
    for vertices in ([(0.3, -1.2)], [(0.0, 0.0)], [(-1.0, 2.0), (3.0, 0.5)]):
        body = HullBody(vertices)
        for directions in (psi, with_nan):
            _assert_support_bits(body, vertices, directions)
        assert np.isnan(body.support_range(with_nan)).sum(axis=1).tolist() == [3, 3]
