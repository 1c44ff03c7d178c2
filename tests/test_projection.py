import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from favlab import cli, projection
from favlab import ifs as ifs_mod
from favlab.errors import LevelTooLarge
from favlab.ifs import IFS, TWO_PI, CylinderBatch, Similitude
from favlab.projection import (
    AtomicMeasure,
    VisibilityEstimate,
    density_profile,
    density_witness,
    level_measure,
    project,
    visibility_estimate,
    _arc_pieces,
    _inside,
)
from favlab.relclose import power_family


@pytest.fixture(scope="module")
def ifs():
    return IFS.from_json("configs/fig1.json")


def test_project_values():
    # [TRIVIAL] closed forms
    assert project((1.0, 0.0), 0.0) == pytest.approx(1.0)
    assert project((1.0, 0.0), math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert project((1.0, 1.0), math.pi / 4) == pytest.approx(math.sqrt(2.0))


def test_level_measure_total(ifs):
    for n in (1, 2, 3):
        mu = level_measure(ifs, 0.7, n)
        assert mu.total == pytest.approx(1.0)
        assert len(mu.positions) == 3**n
        assert mu.position_error.max() <= ifs.D * (1 / 3) ** n + 1e-12


def test_level_measure_refines(ifs):
    # [DERIVED] oracle: every level-3 atom projects within D*(1/3)^2 of a
    # level-2 parent atom
    mu2, mu3 = level_measure(ifs, 0.7, 2), level_measure(ifs, 0.7, 3)
    d = np.abs(mu3.positions[:, None] - mu2.positions[None, :])
    assert d.min(axis=1).max() <= ifs.D * (1 / 3) ** 2 + 1e-12


def test_level_measure_cap(ifs):
    with pytest.raises(LevelTooLarge):
        level_measure(ifs, 0.0, 40)


def test_density_profile_counts(ifs):
    # [DERIVED] oracle: direct mass count of projected atoms in the window
    theta = 0.3
    x = project(ifs.maps[1].fixed_point(), theta)
    for r in (0.3, 0.1):
        (q,) = density_profile(ifs, theta, x, [r], 9)
        mu = level_measure(ifs, theta, 9)
        inside = np.abs(mu.positions - x) < r
        assert q == pytest.approx(
            float(mu.weights[inside].sum()) / (2 * r) ** ifs.gamma, rel=1e-9
        )


def test_density_witness_power4(ifs):
    cert = power_family(ifs, (2,), (3,), 4)
    wit = density_witness(ifs, cert, cert.theta)
    n = len(cert.words)
    bound = n / (10.0 * ifs.D * math.e) ** ifs.gamma
    assert wit.ratio >= bound
    assert wit.chain_bound_ok
    assert wit.b > 0.0
    assert wit.max_offset_over_b <= 1.0


def test_density_witness_rotated_frame(ifs):
    # steering engages when the requested direction differs from the
    # certificate's own; the witness ratio bound must still hold
    cert = power_family(ifs, (2,), (3,), 3)
    wit = density_witness(ifs, cert, cert.theta + 1.0)
    bound = len(cert.words) / (10.0 * ifs.D * math.e) ** ifs.gamma
    assert wit.ratio >= bound
    assert wit.steering_word_len > 0


# ---------------------------------------------------------------- radial


def _arc_cover_oracle(arcs, samples=20000):
    """[DERIVED] oracle: dense sampling of the circle."""
    ts = np.linspace(0.0, 2 * math.pi, samples, endpoint=False)
    covered = np.zeros(samples, dtype=bool)
    for c, h in arcs:
        d = np.abs((ts - c + math.pi) % (2 * math.pi) - math.pi)
        covered |= d <= h
    return covered.mean() * 2 * math.pi


def _merge_circular_arcs(starts, widths):
    """(components, full_circle) of the union of the arcs."""
    return projection._merge_circular_arcs(*_arc_pieces(starts, widths))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.0, 2 * math.pi, exclude_max=True),
                  st.floats(0.01, 1.5)),
        min_size=1,
        max_size=8,
    )
)
def test_merge_circular_arcs_matches_sampling(arcs):
    starts = np.array([(c - h) % (2 * math.pi) for c, h in arcs])
    widths = np.array([2 * h for _, h in arcs])
    comps, full = _merge_circular_arcs(starts, widths)
    total = sum(length for _, length in comps)
    assert total <= 2 * math.pi + 1e-9
    assert total == pytest.approx(_arc_cover_oracle(arcs), abs=5e-3)
    if full:
        assert total == pytest.approx(2 * math.pi)
    # components are disjoint and come in circular order
    for (s1, l1), (s2, l2) in zip(comps, comps[1:]):
        assert s1 + l1 < s2 + 1e-12


def _merge_circular_arcs_loop(starts, widths):
    """The arc union as it was computed before it was vectorized: a
    per-arc Python sweep over the stably sorted split arcs."""
    if len(starts) == 0:
        return [], False
    if np.any(widths >= 2 * math.pi):
        return [(0.0, 2 * math.pi)], True
    s = np.asarray(starts, dtype=float) % (2 * math.pi)
    e = s + np.asarray(widths, dtype=float)
    wrap = e > 2 * math.pi
    lo = np.concatenate([s, np.zeros(int(wrap.sum()))])
    hi = np.concatenate([np.minimum(e, 2 * math.pi), e[wrap] - 2 * math.pi])
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    comps = []
    cur_lo, cur_hi = lo[0], hi[0]
    for i in range(1, len(lo)):
        if lo[i] > cur_hi:
            comps.append((cur_lo, cur_hi))
            cur_lo, cur_hi = lo[i], hi[i]
        else:
            cur_hi = max(cur_hi, hi[i])
    comps.append((cur_lo, cur_hi))
    if len(comps) >= 2 and comps[0][0] <= 0.0 and comps[-1][1] >= 2 * math.pi:
        first, last = comps[0], comps[-1]
        comps = [(last[0] - 2 * math.pi, first[1])] + comps[1:-1]
    total = sum(hi_ - lo_ for lo_, hi_ in comps)
    if total >= 2 * math.pi - 1e-15:
        return [(0.0, 2 * math.pi)], True
    return [(lo_, hi_ - lo_) for lo_, hi_ in comps], False


def _assert_same_arcs(starts, widths):
    starts = np.asarray(starts, dtype=float)
    widths = np.asarray(widths, dtype=float)
    comps, full = _merge_circular_arcs(starts, widths)
    want, want_full = _merge_circular_arcs_loop(starts, widths)
    assert full == want_full
    assert [(float(a), float(b)) for a, b in comps] == [
        (float(a), float(b)) for a, b in want
    ]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-TWO_PI, TWO_PI), max_size=40))
def test_turn_is_the_float_remainder(xs):
    edges = [0.0, -0.0, TWO_PI, -TWO_PI, math.pi, -math.pi, -1e-300, -5e-324, -1e-17,
             np.nextafter(TWO_PI, 0.0), np.nextafter(-TWO_PI, 0.0), math.nan]
    x = np.array(xs + edges)
    assert projection._turn(x).tobytes() == (x % TWO_PI).tobytes()


_GRID_ANGLE = st.integers(0, 15).map(lambda k: k * math.pi / 8)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(_GRID_ANGLE, st.floats(0.0, 2 * math.pi, exclude_max=True)),
            st.one_of(_GRID_ANGLE, st.floats(0.0, 7.0)),
        ),
        min_size=0,
        max_size=30,
    )
)
def test_merge_circular_arcs_matches_loop(arcs):
    _assert_same_arcs([a for a, _ in arcs], [w for _, w in arcs])


def test_merge_circular_arcs_matches_loop_cases():
    q = math.pi / 2
    cases = [
        ([3 * q + 0.2], [q]),  # wraps past 2*pi, joins nothing
        ([3 * q + 0.2, 0.1], [q, 0.3]),  # wrapped head overlaps an arc at 0
        ([0.0, q, 2 * q], [q, q, q]),  # touching arcs coalesce
        ([0.0, q, 2 * q, 3 * q], [q, q, q, q]),  # touching arcs close the circle
        ([1.0, 4.0], [3.5, 3.5]),  # overlapping arcs cover the circle
        ([0.5], [2 * math.pi]),  # one arc is the whole circle
        ([0.5, 2.0], [0.1, 0.2]),  # disjoint
    ]
    for starts, widths in cases:
        _assert_same_arcs(starts, widths)
    assert _merge_circular_arcs(np.array([1.0, 4.0]), np.array([3.5, 3.5]))[1]
    comps, full = _merge_circular_arcs(np.array([0.0, q, 2 * q]), np.full(3, q))
    assert not full and len(comps) == 1


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 4), st.integers(0, 4)), min_size=1, max_size=12),
    st.lists(st.tuples(st.integers(-2, 60), st.integers(0, 8)), min_size=1, max_size=20),
)
def test_inside_matches_loop(runs, queries):
    # disjoint closed intervals, points among them, as merge_intervals leaves
    # them, and queries on the same 1/8 grid so that ends coincide
    los, his, end = [], [], 0
    for gap, length in runs:
        los.append(end + gap)
        his.append(end + gap + length)
        end = his[-1]
    los, his = np.array(los) / 8.0, np.array(his) / 8.0
    lo = np.array([q for q, _ in queries]) / 8.0
    hi = lo + np.array([w for _, w in queries]) / 8.0
    want = [any(a <= x and y <= b for a, b in zip(los, his)) for x, y in zip(lo, hi)]
    assert _inside(los, his, lo, hi).tolist() == want


def test_visibility_monotone(ifs):
    for center in [(3.0, 0.0), (1.0, 0.0), (2 / 3, 1 / 3)]:
        prev = math.inf
        for n in range(4, 10):
            est = visibility_estimate(ifs, center, 1.0, n)
            assert est.covering_sum <= prev + 1e-12
            prev = est.covering_sum


def test_visibility_outside_decays(ifs):
    # from far away the attractor subtends a small arc; the s=1 covering sum
    # is bounded by that arc length
    est = visibility_estimate(ifs, (100.0, 0.0), 1.0, 6)
    assert est.covering_sum < 2 * math.asin(ifs.R0 * 1.5 / 100.0)
    assert not est.full_circle


def test_visibility_exclusion_reported(ifs):
    # an attractor point strictly inside the enclosing disk sits in one
    # cylinder disk at every level: full-circle path with a reported count
    est = visibility_estimate(ifs, (2 / 3, 1 / 3), 1.0, 8)
    assert est.full_circle
    assert est.engulfing_cylinders >= 1
    assert est.covering_sum == pytest.approx(2 * math.pi)


@pytest.mark.parametrize("scale", [1e-10, 1e-16, 1e-18, 1e6])
def test_visibility_scale_invariant(ifs, scale):
    # a scaled copy of the system, seen from the scaled centre, subtends
    # the same arcs: the engulfing slack must scale with it
    scaled = IFS.from_maps(
        [dataclasses.replace(f, tx=f.tx * scale, ty=f.ty * scale) for f in ifs.maps]
    )
    want = visibility_estimate(ifs, (3.0, 0.0), 1.0, 6)
    got = visibility_estimate(scaled, (3.0 * scale, 0.0), 1.0, 6)
    assert _bits(got) == _bits(_dense_visibility(scaled, (3.0 * scale, 0.0), 1.0, 6))
    assert not got.full_circle and got.engulfing_cylinders == 0
    assert got.components == want.components
    assert got.covering_sum == pytest.approx(want.covering_sum, rel=1e-12)


def test_visibility_s_monotone_in_s(ifs):
    # larger s gives a smaller covering sum once arcs are shorter than 1
    e1 = visibility_estimate(ifs, (3.0, 0.0), 0.8, 6)
    e2 = visibility_estimate(ifs, (3.0, 0.0), 1.0, 6)
    assert e2.covering_sum <= e1.covering_sum + 1e-12


# ------------------------------------------------- block descent against dense


def _dense_visibility(ifs, a, s, n):
    """[DERIVED] oracle: the estimate from the arcs of the whole level-n
    cover, merged at once, as visibility_estimate computed it before its
    block descent.  The disk of a word p.q, p of level k and q of level
    n - k, is F_p applied to the disk of q, as the descent splits it."""
    k = max(n - projection.VIS_BLOCK_LEVELS, 0)
    inner, blocks = ifs.cover(n - k), ifs.cover(k)
    x, y = blocks.images(*inner.images(*ifs.center))
    radii = np.multiply.outer(blocks.r, inner.r).ravel() * ifs.R0
    dx = x - a[0]
    dy = y - a[1]
    dist = np.hypot(dx, dy)
    n_engulf = int((dist <= radii + 1e-15 * ifs.R0).sum())
    if n_engulf > 0:
        return VisibilityEstimate(
            covering_sum=TWO_PI**s, delta=TWO_PI, components=1,
            engulfing_cylinders=n_engulf, full_circle=True,
        )
    mid = np.arctan2(dy, dx) % TWO_PI
    half = np.arcsin(np.minimum(1.0, radii / dist))
    starts = (mid - half) % TWO_PI
    widths = 2.0 * half
    comps, full = _merge_circular_arcs(starts, widths)
    delta = float(widths.max()) if len(widths) else 0.0
    total = 0.0
    for _, length in comps:
        if delta <= 0.0:
            continue
        k = max(1, math.ceil(length / delta - 1e-12))
        total += k * (length / k) ** s
    return VisibilityEstimate(
        covering_sum=float(total), delta=delta, components=len(comps),
        engulfing_cylinders=0, full_circle=full,
    )


def _bits(est):
    return (
        est.covering_sum.hex(), float(est.delta).hex(), est.components,
        est.engulfing_cylinders, est.full_circle,
    )


def _assert_dense_bits(ifs, a, ns=range(10), ss=(0.5, 1.0, 2.0)):
    for n in ns:
        for s in ss:
            got = visibility_estimate(ifs, a, s, n)
            assert _bits(got) == _bits(_dense_visibility(ifs, a, s, n)), (a, s, n)


def _seeded_system(seed):
    """Four maps with ratios in [0.25, 0.45], one of them reflecting, with
    fixed points near the corners of the unit square; and the generator,
    to draw centres from."""
    rng = random.Random(seed)
    reflect = rng.randrange(4)
    maps = []
    for i, (cx, cy) in enumerate(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))):
        r, theta = rng.uniform(0.25, 0.45), rng.uniform(0.0, TWO_PI)
        orient = -1 if i == reflect else 1
        px, py = cx + rng.uniform(-0.1, 0.1), cy + rng.uniform(-0.1, 0.1)
        c, s = math.cos(theta), math.sin(theta)
        maps.append(Similitude(
            r=r, theta=theta, orient=orient,
            tx=px - r * (c * px - orient * s * py),
            ty=py - r * (s * px + orient * c * py),
        ))
    return IFS.from_maps(maps), rng


def _centres(ifs, rng):
    """A centre outside the enclosing disk, one on its circle, and the
    centre of a level-10 cylinder disk, which lies in every coarser one."""
    (cx, cy), R = ifs.center, ifs.R0
    phi_out, phi_on = rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI)
    inside = ifs.center
    for i in [rng.randrange(ifs.m) for _ in range(10)]:
        inside = ifs.maps[i].apply(inside)
    return {
        "outside": (cx + 2.5 * R * math.cos(phi_out), cy + 2.5 * R * math.sin(phi_out)),
        "on": (cx + R * math.cos(phi_on), cy + R * math.sin(phi_on)),
        "inside": inside,
    }


@pytest.mark.parametrize("a", [(3.0, 0.0), (100.0, 0.0), (1.0, 0.0), (2 / 3, 1 / 3)])
def test_visibility_fig1_matches_dense(ifs, a):
    _assert_dense_bits(ifs, a)


@pytest.mark.parametrize("seed", [2, 4])
@pytest.mark.parametrize("where", ["outside", "on", "inside"])
def test_visibility_seeded_matches_dense(seed, where):
    system, rng = _seeded_system(seed)
    _assert_dense_bits(system, _centres(system, rng)[where])


@pytest.mark.parametrize("seed", [2, 4])
def test_visibility_on_block_boundary_matches_dense(ifs, seed):
    # a centre on a block's disk, or just outside it, where the block's arc
    # and its words' arcs are at their most ill-conditioned
    system, rng = _seeded_system(seed)
    k = 4
    n = k + projection.VIS_BLOCK_LEVELS
    for sys_ in (ifs, system):
        blocks = sys_.cover(k)
        x, y = blocks.images(*sys_.center)
        for p in rng.sample(range(len(x)), 3):
            for grow in (1.0, 1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-6):
                phi = rng.uniform(0.0, TWO_PI)
                rad = blocks.r[p] * sys_.R0 * grow
                a = (x[p] + rad * math.cos(phi), y[p] + rad * math.sin(phi))
                _assert_dense_bits(sys_, a, ns=(n,), ss=(1.0,))


def test_visibility_at_cylinder_centre_matches_dense(ifs):
    system, rng = _seeded_system(2)
    for sys_ in (ifs, system):
        for n in range(10):
            x, y = sys_.cover(n).images(*sys_.center)
            j = rng.randrange(len(x))
            a = (float(x[j]), float(y[j]))
            _assert_dense_bits(sys_, a, ns=(n, min(n + 2, 9)))


@st.composite
def _system_and_centre(draw):
    """A 2-4 map system, each map a reflection or not, with ratios of at
    least max(0.25, 1/m) and fixed points in [-1, 1]^2, and a centre outside
    its enclosing disk, on it, or at a level-10 cylinder centre."""
    m = draw(st.integers(2, 4))
    maps = []
    for _ in range(m):
        r = draw(st.floats(max(0.25, 1.0 / m), 0.9))
        theta = draw(st.floats(0.0, TWO_PI, exclude_max=True))
        orient = draw(st.sampled_from((1, -1)))
        px, py = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
        c, s = math.cos(theta), math.sin(theta)
        maps.append(Similitude(
            r=r, theta=theta, orient=orient,
            tx=px - r * (c * px - orient * s * py),
            ty=py - r * (s * px + orient * c * py),
        ))
    system = IFS.from_maps(maps)
    (cx, cy), R = system.center, system.R0
    phi = draw(st.floats(0.0, TWO_PI))
    where = draw(st.sampled_from(("outside", "on", "inside")))
    if where == "inside":
        a = system.center
        for i in draw(st.lists(st.integers(0, m - 1), min_size=10, max_size=10)):
            a = system.maps[i].apply(a)
    else:
        grow = 2.5 if where == "outside" else 1.0
        a = (cx + grow * R * math.cos(phi), cy + grow * R * math.sin(phi))
    return system, a


@settings(max_examples=60, deadline=None)
@given(_system_and_centre())
def test_visibility_random_systems_match_dense(system_and_centre):
    system, a = system_and_centre
    _assert_dense_bits(system, a, ns=range(8))


def test_visibility_prunes_without_adding_work(ifs, monkeypatch):
    # every arc the descent forms goes through _arcs, and every union
    # through merge_intervals; the child step forms the rows of the block
    # and inner covers and no others, and every level-n disk that images
    # forms is passed whole to _arcs, none formed and then dropped
    formed, merged, seen, disks, stepped = [], [], [], [], []
    arcs, merge = projection._arcs, projection.merge_intervals
    images, children = CylinderBatch.images, ifs_mod._band_children

    def counting_arcs(dx, *rest):
        formed.append(len(dx))
        seen.append(dx)
        return arcs(dx, *rest)

    def counting_merge(lo, hi):
        merged.append(len(lo))
        return merge(lo, hi)

    def recording_images(self, x, y):
        out = images(self, x, y)
        if np.ndim(x):  # the words' disk centres, not a cover's images of c
            disks.append(out[0])
        return out

    def counting_children(*args):
        out = children(*args)
        stepped.append(len(out))
        return out

    monkeypatch.setattr(projection, "_arcs", counting_arcs)
    monkeypatch.setattr(projection, "merge_intervals", counting_merge)
    monkeypatch.setattr(CylinderBatch, "images", recording_images)
    monkeypatch.setattr(ifs_mod, "_band_children", counting_children)
    system, rng = _seeded_system(1)
    n = 9
    k = n - projection.VIS_BLOCK_LEVELS
    for sys_, a in ((system, _centres(system, rng)["outside"]), (ifs, (3.0, 0.0))):
        for record in (formed, merged, seen, disks, stepped):
            record.clear()
        visibility_estimate(sys_, a, 1.0, n)
        m = sys_.m
        assert sum(stepped) == sum(m**j for j in range(1, k + 1)) + sum(
            m**j for j in range(1, n - k + 1)
        )
        assert disks and all(any(d is dx for dx in seen) for d in disks)
        if sys_ is system:
            assert sum(merged) < m**n / 2
            assert sum(formed) - m**k < m**n / 2
        else:
            assert sum(merged) <= m**n
            assert sum(formed) - m**k <= m**n


def test_visibility_level_cap_before_any_work(ifs, monkeypatch, capsys):
    def no_children(*args):
        raise AssertionError("a cover was built past the level cap")

    with monkeypatch.context() as patch:
        patch.setattr(ifs_mod, "_band_children", no_children)
        with pytest.raises(LevelTooLarge) as err:
            visibility_estimate(ifs, (3.0, 0.0), 1.0, 14)
    assert str(err.value) == "level-too-large: 3^14 cylinders exceed cap 2097152"
    monkeypatch.setattr(projection, "LEVEL_CAP", 3**3)
    argv = ["visible", "--ifs", "configs/fig1.json", "--ax", "3", "--ay", "0", "--s", "1", "--n", "4"]
    assert cli.run(argv) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "ERROR level-too-large: 3^4 cylinders exceed cap 27"
    )
