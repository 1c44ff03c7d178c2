"""CylinderBatch, the one batch of cylinders, and its one child step: every
level-n cover point (the disk and hull sweeper covers, the level-measure
atoms, the visibility disks and the attractor-hull sample) against the
word-by-word path ``ifs.compose(w).apply(p)``, bit for bit; the Similitude
geometry and the shared decay-CSV reader."""

import itertools
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from favlab.errors import ConfigError
from favlab import ifs as ifs_mod
from favlab import projection
from favlab.favard import decay_samples, favard
from favlab.ifs import (
    IFS,
    CylinderBatch,
    CylinderGeometry,
    DiskBody,
    HullBody,
    Similitude,
    _contains,
    _convex_hull,
    attractor_hull,
)
from favlab.projection import level_measure, visibility_estimate
from oracle import LevelSweeper
from test_favard import _seeded_reflected_system

ROOT = pathlib.Path(__file__).resolve().parent.parent
LEVELS = range(0, 7)


@pytest.fixture(scope="module", params=["fig1", "seed5", "seed8"])
def system(request):
    if request.param == "fig1":
        return IFS.from_json(str(ROOT / "configs" / "fig1.json"))
    ifs = _seeded_reflected_system(int(request.param[4:]))
    assert any(f.orient == -1 for f in ifs.maps)
    assert len({f.r for f in ifs.maps}) == 4
    return ifs


def bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


# ------------------------------------------------------- the word-by-word path


def words(ifs, n):
    """The words of length n in lexicographic order."""
    return list(itertools.product(range(1, ifs.m + 1), repeat=n))


def geoms(ifs, n):
    return [ifs.compose(w) for w in words(ifs, n)]


def applied(gs, points):
    """x and y of g.apply(p) for every geometry g (outer) and point p (inner)."""
    pts = [g.apply(p) for g in gs for p in points]
    return [x for x, _ in pts], [y for _, y in pts]


def word_by_word_hull(ifs, depth=6, tol=1e-9):
    """attractor_hull with its sample formed word by word."""
    fixes = [f.fixed_point() for f in ifs.maps]
    x, y = applied(geoms(ifs, depth), fixes)
    hull = _convex_hull(list(zip(x, y)) + fixes)
    cx = sum(p[0] for p in hull) / len(hull)
    cy = sum(p[1] for p in hull) / len(hull)
    lam = 0.0
    for _ in range(60):
        verts = [(cx + (1 + lam) * (x - cx), cy + (1 + lam) * (y - cy)) for x, y in hull]
        if all(_contains(verts, f.apply(v), tol) for f in ifs.maps for v in verts):
            return HullBody(verts)
        lam = max(2.0 * lam, ifs.r_min**depth)
    raise AssertionError("the word-by-word hull could not be certified")


# ------------------------------------------------------------ bit identity


def test_disk_sweeper_cover_matches_old_step(system):
    sweeper = LevelSweeper(system)
    for n in LEVELS:
        sweeper.advance_to(n)
        gs = geoms(system, n)
        assert bits(sweeper.x, sweeper.y) == bits(*applied(gs, [system.center]))
        assert bits(sweeper.cover.r) == bits([g.r for g in gs])


def test_hull_sweeper_cover_matches_old_step(system):
    sweeper = LevelSweeper(system, body=attractor_hull(system))
    for n in LEVELS:
        sweeper.advance_to(n)
        cover, gs = sweeper.cover, geoms(system, n)
        assert cover.orient.dtype == np.int8
        assert bits(cover.r, cover.theta, cover.orient, cover.tx, cover.ty, cover.log_r) == bits(
            *([getattr(g, f) for g in gs] for f in ("r", "theta", "orient", "tx", "ty", "log_r"))
        )
        # the origin's images, and each cylinder's support direction
        assert bits(sweeper.x, sweeper.y) == bits(*applied(gs, [(0.0, 0.0)]))
        assert bits(cover.orient * (0.7 - cover.theta)) == bits([g.orient * (0.7 - g.theta) for g in gs])


@pytest.mark.parametrize("theta", [0.0, 0.37, 2.9])
def test_level_measure_matches_old_arrays(system, theta):
    c, s = math.cos(theta), math.sin(theta)
    for n in LEVELS:
        gs = geoms(system, n)
        x, y = applied(gs, [system.maps[0].fixed_point()])
        measure = level_measure(system, theta, n)
        assert bits(measure.positions, measure.weights, measure.position_error) == bits(
            [a * c + b * s for a, b in zip(x, y)],
            # numpy's power, whose last bits may differ from the scalar pow
            np.array([g.r for g in gs]) ** system.gamma,
            [system.D * g.r for g in gs],
        )


def test_visibility_centres_match_old_loop(system):
    # the disk of a word p.q, p of level k and q of level n - k, is F_p
    # applied to the disk of q
    for n in LEVELS:
        k = max(n - projection.VIS_BLOCK_LEVELS, 0)
        inner, blocks = geoms(system, n - k), geoms(system, k)
        qx, qy = applied(inner, [system.center])
        x, y = applied(blocks, list(zip(qx, qy)))
        radii = [g.r * q.r * system.R0 for g in blocks for q in inner]
        cover = system.cover(n - k)
        points = np.array([*cover.images(*system.center), cover.r])
        dx, dy, _, got = projection._disks(system.cover(k), points, (0.0, 0.0), system.R0)
        assert bits(dx, dy, got) == bits(x, y, radii)
    # visibility_estimate counts the disks about these centres that contain a
    x, y, radii = np.array(x), np.array(y), np.array(radii)
    for j in (0, len(radii) // 3, len(radii) - 1):
        a = (float(x[j]), float(y[j]))
        expected = int((np.hypot(x - a[0], y - a[1]) <= radii + 1e-15 * system.R0).sum())
        assert visibility_estimate(system, a, 1.0, n).engulfing_cylinders == expected >= 1


def test_attractor_hull_sample_matches_old_loop(system, monkeypatch):
    fixes = [f.fixed_point() for f in system.maps]
    for depth in (0, 1, 6):
        monkeypatch.setattr(ifs_mod, "HULL_DEPTH", depth)
        seen = []

        def record(points):
            seen.extend(points)
            raise _Sampled

        with monkeypatch.context() as patch:
            patch.setattr(ifs_mod, "_convex_hull", record)
            with pytest.raises(_Sampled):
                attractor_hull(system)
        x, y = applied(geoms(system, depth), fixes)
        assert bits(seen) == bits(list(zip(x, y)) + fixes)
    monkeypatch.setattr(ifs_mod, "HULL_DEPTH", 6)
    new, old = attractor_hull(system), word_by_word_hull(system)
    assert new.vertices.tobytes() == old.vertices.tobytes()


class _Sampled(Exception):
    pass


def test_hull_sample_stops_past_the_point_cap(monkeypatch):
    # 4^8 words at 4 fixed points pass 200,000: the sample stops at depth 8
    # although depth 12 is asked
    monkeypatch.setattr(ifs_mod, "HULL_DEPTH", 12)
    ifs = _seeded_reflected_system(5)
    seen = []

    def record(points):
        seen.extend(points)
        raise _Sampled

    monkeypatch.setattr(ifs_mod, "_convex_hull", record)
    with pytest.raises(_Sampled):
        attractor_hull(ifs)
    fixes = [f.fixed_point() for f in ifs.maps]
    x, y = ifs.cover(8).images(*np.array(fixes).T)
    assert len(x) == 4**9
    assert bits(seen) == bits(list(zip(x.tolist(), y.tolist())) + fixes)
    # a sample of those words, word by word
    for k in range(0, 4**8, 997):
        g = ifs.compose(tuple(int(d) + 1 for d in np.base_repr(k, 4).zfill(8)))
        for j, p in enumerate(fixes):
            assert (x[4 * k + j], y[4 * k + j]) == g.apply(p)


def _chain(points):
    """[DERIVED] ``_convex_hull`` as it was before its octagon filter: the
    monotone chain over every distinct point."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:
        return [pts[0], pts[-1]]
    return hull


def _same_hull(points):
    got, want = _convex_hull(points), _chain(points)
    assert len(got) == len(want)
    assert np.array(got, dtype=float).tobytes() == np.array(want, dtype=float).tobytes()


@pytest.mark.parametrize("name", ["fig1"] + [f"seed{k}" for k in (1, 2, 3, 5, 8, 13, 21)])
def test_hull_filter_keeps_the_chain_vertices(name, monkeypatch):
    # on the attractor sample that attractor_hull passes to _convex_hull
    if name == "fig1":
        system = IFS.from_json(str(ROOT / "configs" / "fig1.json"))
    else:
        system = _seeded_reflected_system(int(name[4:]))
    seen = []

    def record(points):
        seen.extend(points)
        raise _Sampled

    with monkeypatch.context() as patch:
        patch.setattr(ifs_mod, "_convex_hull", record)
        with pytest.raises(_Sampled):
            attractor_hull(system)
    _same_hull(seen)


@st.composite
def _clouds(draw):
    """1-9 or up to 200 points at one scale: free floats, a small integer
    grid (duplicates and collinear runs), points on one line, or a disk of
    points with its rim."""
    scale = draw(st.sampled_from([1e-150, 1e-3, 1.0, 1e3, 1e150]))
    size = draw(st.one_of(st.integers(1, 9), st.integers(10, 200)))
    kind = draw(st.sampled_from(["free", "grid", "line", "disk"]))
    if kind == "free":
        unit = st.floats(-1.0, 1.0)
        pts = draw(st.lists(st.tuples(unit, unit), min_size=size, max_size=size))
    elif kind == "grid":
        step = st.integers(-3, 3).map(float)
        pts = draw(st.lists(st.tuples(step, step), min_size=size, max_size=size))
    elif kind == "line":
        ox, oy, dx, dy = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4))
        ts = draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size))
        pts = [(ox + t * dx, oy + t * dy) for t in ts]
    else:
        phis = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=size, max_size=size))
        rads = draw(st.lists(st.sampled_from([1.0, 0.999999, 0.5, 0.0]), min_size=size, max_size=size))
        pts = [(r * math.cos(p), r * math.sin(p)) for p, r in zip(phis, rads)]
    return [(x * scale, y * scale) for x, y in pts]


@settings(max_examples=300, deadline=None)
@given(_clouds())
def test_hull_filter_matches_the_chain_on_point_clouds(points):
    _same_hull(points)


def test_batch_word_order_and_project():
    # row k of a cover is compose of the k-th word; take keeps rows bit for
    # bit; images runs row-major over rows and points; DiskBody.interval
    # projects each row's image of the centre
    ifs = _seeded_reflected_system(5)
    cover, gs = ifs.cover(2), geoms(ifs, 2)
    assert [cover[k] for k in range(len(cover))] == gs
    rows = np.array([5, 0, 11])
    part = cover.take(rows)
    assert [part[j] for j in range(3)] == [gs[k] for k in rows]
    points = [(0.2, -0.1), (0.5, 0.5)]
    x, y = cover.images(*np.array(points).T)
    assert bits(x, y) == bits(*applied(gs, points))
    theta = 1.1
    lo, hi = DiskBody(ifs.center, ifs.R0).interval(cover, theta)
    mid = [a * math.cos(theta) + b * math.sin(theta) for a, b in zip(*applied(gs, [ifs.center]))]
    assert bits(lo, hi) == bits([p - g.r * ifs.R0 for p, g in zip(mid, gs)],
                                [p + g.r * ifs.R0 for p, g in zip(mid, gs)])


# ------------------------------------------------------------ similitude


def test_similitude_is_a_one_symbol_geometry():
    f = Similitude(r=0.4, theta=-1.0, orient=-1, tx=0.2, ty=0.3)
    assert isinstance(f, CylinderGeometry)
    assert f.theta == 2 * math.pi - 1.0
    assert f.log_r == math.log(0.4)
    assert f.apply(f.fixed_point()) == pytest.approx(f.fixed_point(), abs=1e-15)
    ifs = IFS.from_maps([f, Similitude(0.5, 0.0, 1, 0.5, 0.0)])
    assert ifs.compose((1,)) == CylinderGeometry(f.r, f.theta, f.orient, f.tx, f.ty, f.log_r)
    for bad in (dict(r=1.0, orient=1), dict(r=0.5, orient=0)):
        with pytest.raises(ConfigError):
            Similitude(theta=0.0, tx=0.0, ty=0.0, **bad)


# ------------------------------------------------------------ decay CSV


DECAY_CSV = """# favlab sweep
n,theta,length
3,0.1,1.00
3,0.2,0.98
3,3.14,1.00
4,0.1,0.90
4,0.2,0.88
4,3.14,0.90
n/a,0.1,junk
5,0.1,0.84
5,0.2,not-a-number
5,0.3,0.82
5,3.14,0.84
6,0.1,0.80
"""


def test_decay_samples_skip_comments_headers_junk_and_summaries():
    # Favard values: pi times the mean length, the scale of favard().value
    assert decay_samples(DECAY_CSV) == [
        (3, math.pi * ((1.00 + 0.98) / 2)),
        (4, math.pi * ((0.90 + 0.88) / 2)),
        (5, math.pi * ((0.84 + 0.82) / 2)),
        (6, math.pi * 0.80),
    ]


def test_decay_fit_of_a_sweep_csv_matches_favard_values(tmp_path):
    # the fit of a CSV written by favlab favard sees favard().value
    csv = tmp_path / "sweep.csv"
    fig1 = IFS.from_json(str(ROOT / "configs" / "fig1.json"))
    rows = ["n,theta,length"]
    values = []
    for n in (3, 4, 5, 6):
        res = favard(fig1, n, 8)
        rows += [f"{n},{t!r},{v!r}" for t, v in zip(res.thetas.tolist(), res.lengths.tolist())]
        rows.append(f"{n},{res.value!r},{res.max_over_theta!r}")
        values.append((n, res.value))
    csv.write_text("\n".join(rows) + "\n")
    for (n, got), (_, want) in zip(decay_samples(csv.read_text()), values):
        assert got == pytest.approx(want, rel=1e-15)
