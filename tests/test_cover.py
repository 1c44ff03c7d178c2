"""CylinderBatch, the one level-n cover expansion, against copies of the five
numpy loops it replaced (the disk and hull sweeper steps, the level-measure
arrays, the visibility centres and the attractor-hull sample), bit for bit;
the Similitude geometry and the shared decay-CSV reader."""

import math
import pathlib

import numpy as np
import pytest

from favlab.errors import ConfigError
from favlab import ifs as ifs_mod
from favlab.favard import _LevelSweeper, decay_samples, favard
from favlab.ifs import (
    IFS,
    CylinderBatch,
    CylinderGeometry,
    HullBody,
    Similitude,
    _contains,
    _convex_hull,
    attractor_hull,
    compose_geoms,
)
from favlab.projection import level_measure, visibility_estimate
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
    return [np.asarray(a).tobytes() for a in arrays]


# ------------------------------------------------------------ the old loops


def old_disk_levels(ifs, levels):
    """The disk branch of the old sweeper step: centres and ratios."""
    x = np.array([ifs.center[0]], dtype=float)
    y = np.array([ifs.center[1]], dtype=float)
    ratios = np.ones(1)
    for n in range(max(levels) + 1):
        if n:
            centers = np.column_stack((x, y))
            pts, rats = [], []
            for f in ifs.maps:
                m = f.matrix()
                pts.append(f.r * centers @ m.T + np.array([f.tx, f.ty]))
                rats.append(f.r * ratios)
            pts = np.vstack(pts)
            x, y = pts[:, 0].copy(), pts[:, 1].copy()
            ratios = np.concatenate(rats)
        yield n, x, y, ratios


def old_hull_levels(ifs, levels):
    """The hull branch of the old sweeper step: ratios, unreduced angles,
    orientations (as floats) and translations."""
    r, theta, orient, t = np.ones(1), np.zeros(1), np.ones(1), np.zeros((1, 2))
    for n in range(max(levels) + 1):
        if n:
            rs, ths, ors, ts = [], [], [], []
            for f in ifs.maps:
                m = f.matrix()
                rs.append(f.r * r)
                ths.append(f.theta + f.orient * theta)
                ors.append(f.orient * orient)
                ts.append(f.r * t @ m.T + np.array([f.tx, f.ty]))
            r, theta = np.concatenate(rs), np.concatenate(ths)
            orient, t = np.concatenate(ors), np.vstack(ts)
        yield n, r, theta, orient, t


def old_level_arrays(ifs, anchor, n):
    """The old level-measure and visibility loop: anchor images and ratios."""
    pts = np.array(anchor, dtype=float).reshape(1, 2)
    ratios = np.ones(1)
    for _ in range(n):
        layer_pts, layer_r = [], []
        for f in ifs.maps:
            m = f.matrix()
            layer_pts.append(f.r * pts @ m.T + np.array([f.tx, f.ty]))
            layer_r.append(f.r * ratios)
        pts = np.vstack(layer_pts)
        ratios = np.concatenate(layer_r)
    return pts, ratios


def old_hull_sample(ifs, depth):
    fixes = [f.fixed_point() for f in ifs.maps]
    pts = np.array(fixes, dtype=float)
    for _ in range(depth):
        layers = []
        for f in ifs.maps:
            m = f.matrix()
            layers.append(f.r * pts @ m.T + np.array([f.tx, f.ty]))
        pts = np.vstack(layers)
        if len(pts) > 200_000:
            break
    return fixes, pts


def old_attractor_hull(ifs, depth=6, tol=1e-9):
    fixes, pts = old_hull_sample(ifs, depth)
    hull = _convex_hull([tuple(p) for p in pts] + fixes)
    cx = sum(p[0] for p in hull) / len(hull)
    cy = sum(p[1] for p in hull) / len(hull)
    lam = 0.0
    for _ in range(60):
        verts = [(cx + (1 + lam) * (x - cx), cy + (1 + lam) * (y - cy)) for x, y in hull]
        if all(_contains(verts, f.apply(v), tol) for f in ifs.maps for v in verts):
            return HullBody(verts)
        lam = max(2.0 * lam, ifs.r_min**depth)
    raise AssertionError("the old loop could not certify a hull")


# ------------------------------------------------------------ bit identity


def test_disk_sweeper_cover_matches_old_step(system):
    sweeper = _LevelSweeper(system)
    for n, x, y, ratios in old_disk_levels(system, LEVELS):
        sweeper.advance_to(n)
        cover = sweeper.cover
        assert bits(cover.x, cover.y, cover.r) == bits(x, y, ratios)
        assert cover.x.flags.c_contiguous and cover.y.flags.c_contiguous


def test_hull_sweeper_cover_matches_old_step(system):
    sweeper = _LevelSweeper(system, body=attractor_hull(system))
    for n, r, theta, orient, t in old_hull_levels(system, LEVELS):
        sweeper.advance_to(n)
        cover = sweeper.cover
        assert cover.orient.dtype == np.int8
        assert bits(cover.r, cover.theta, cover.orient.astype(float)) == bits(r, theta, orient)
        assert bits(cover.x, cover.y) == bits(t[:, 0], t[:, 1])
        # each cylinder's support direction is the same array too
        assert bits(cover.orient * (0.7 - cover.theta)) == bits(orient * (0.7 - theta))


@pytest.mark.parametrize("theta", [0.0, 0.37, 2.9])
def test_level_measure_matches_old_arrays(system, theta):
    for n in LEVELS:
        pts, ratios = old_level_arrays(system, system.maps[0].fixed_point(), n)
        measure = level_measure(system, theta, n)
        pos = pts[:, 0] * math.cos(theta) + pts[:, 1] * math.sin(theta)
        assert bits(measure.positions, measure.weights, measure.position_error) == bits(
            pos, ratios**system.gamma, system.D * ratios
        )


def test_visibility_centres_match_old_loop(system):
    cover = CylinderBatch.at(system.center)
    for n in LEVELS:
        if n:
            cover = cover.children(system.maps)
        centers, ratios = old_level_arrays(system, system.center, n)
        assert bits(cover.x, cover.y, cover.r) == bits(centers[:, 0], centers[:, 1], ratios)
    # visibility_estimate counts the disks about the old centres that contain a
    n = max(LEVELS)
    centers, ratios = old_level_arrays(system, system.center, n)
    for k in (0, len(ratios) // 3, len(ratios) - 1):
        a = (float(centers[k, 0]), float(centers[k, 1]))
        dist = np.hypot(centers[:, 0] - a[0], centers[:, 1] - a[1])
        expected = int((dist <= ratios * system.R0 + 1e-15).sum())
        assert visibility_estimate(system, a, 1.0, n).engulfing_cylinders == expected >= 1


def test_attractor_hull_sample_matches_old_loop(system):
    for depth in (0, 1, 6):
        fixes, pts = old_hull_sample(system, depth)
        sample = CylinderBatch.at(fixes)
        for _ in range(depth):
            sample = sample.children(system.maps)
        assert bits(sample.x, sample.y) == bits(pts[:, 0], pts[:, 1])
    new, old = attractor_hull(system), old_attractor_hull(system)
    assert new.vertices.tobytes() == old.vertices.tobytes()


class _Sampled(Exception):
    pass


def test_hull_sample_stops_past_the_point_cap(monkeypatch):
    # 4^9 > 200,000: the sample stops at depth 9 although depth 12 is asked
    monkeypatch.setattr(ifs_mod, "HULL_DEPTH", 12)
    ifs = _seeded_reflected_system(5)
    seen = []

    def record(points):
        seen.extend(points)
        raise _Sampled

    monkeypatch.setattr(ifs_mod, "_convex_hull", record)
    with pytest.raises(_Sampled):
        attractor_hull(ifs)
    fixes, pts = old_hull_sample(ifs, 12)
    assert len(pts) == 4**9
    assert np.array(seen).tobytes() == np.vstack((pts, fixes)).tobytes()


def test_batch_word_order_and_project():
    ifs = _seeded_reflected_system(5)
    cover = CylinderBatch.at([(0.2, -0.1), (0.5, 0.5)]).children(ifs.maps).children(ifs.maps)
    k = 0
    for i in range(ifs.m):
        for j in range(ifs.m):
            for p in ((0.2, -0.1), (0.5, 0.5)):
                g = compose_geoms(ifs.maps[i], ifs.maps[j])
                assert (cover.x[k], cover.y[k]) == pytest.approx(g.apply(p), abs=1e-15)
                assert cover.r[k] == ifs.maps[i].r * ifs.maps[j].r
                assert cover.orient[k] == g.orient
                assert math.cos(cover.theta[k]) == pytest.approx(math.cos(g.theta), abs=1e-14)
                k += 1
    assert k == len(cover.x)
    theta = 1.1
    assert bits(cover.project(theta)) == bits(
        cover.x * math.cos(theta) + cover.y * math.sin(theta)
    )


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
