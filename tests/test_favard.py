import importlib
import math
import os
import random
import sys
import time

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from favlab.errors import (
    DegenerateFit,
    HullNotInvariant,
    LevelTooLarge,
    NonHomogeneous,
    NumericOverflow,
    PreconditionViolated,
    RhoTooSmall,
)
from favlab.favard import (
    DecayFit,
    FavardSchedule,
    IntervalSet,
    bound_constant,
    bound_curves,
    favard,
    fit_decay,
    log_star,
    merge_intervals,
    neighborhood_projection_length,
    projection_sweep,
    schedule,
)
from favlab.ifs import IFS, CylinderBatch, DiskBody, Similitude, attractor_hull
from oracle import LevelSweeper, sweeper_at


@pytest.fixture(scope="module")
def ifs():
    return IFS.from_json("configs/fig1.json")


def segment_ifs():
    # attractor = the segment [0,1] x {0}
    return IFS.from_maps(
        [
            Similitude(r=0.5, theta=0.0, orient=1, tx=0.0, ty=0.0),
            Similitude(r=0.5, theta=0.0, orient=1, tx=0.5, ty=0.0),
        ]
    )


def corner_ifs():
    # four-corner set: 4 maps, r = 1/4, corners of the unit square
    return IFS.from_maps(
        [
            Similitude(r=0.25, theta=0.0, orient=1, tx=tx, ty=ty)
            for tx, ty in [(0.0, 0.0), (0.75, 0.0), (0.0, 0.75), (0.75, 0.75)]
        ]
    )


# ------------------------------------------------------------ interval merge


def _raster_oracle(los, his, cells=2**20):
    """[DERIVED] oracle: rasterize onto a uniform grid over the bounding
    interval and count touched cells.  The count is a superset cover, so the
    true length lies in [count*w - 2*components*w, count*w]: each union
    component overhangs by at most one partial cell per side."""
    lo, hi = float(min(los)), float(max(his))
    if hi <= lo:
        return 0.0, 0.0
    w = (hi - lo) / cells
    covered = np.zeros(cells, dtype=bool)
    idx0 = np.clip(((np.asarray(los) - lo) / w).astype(int), 0, cells - 1)
    idx1 = np.clip(np.ceil((np.asarray(his) - lo) / w).astype(int), 1, cells)
    for i0, i1 in zip(idx0, idx1):
        covered[i0:i1] = True
    return int(covered.sum()) * w, w


def _raster_bracket(los, his, components, cells=2**20):
    covered, w = _raster_oracle(los, his, cells)
    return covered - 2 * components * w, covered


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-10.0, 10.0), st.floats(0.001, 3.0)),
        min_size=1,
        max_size=40,
    )
)
def test_merge_matches_rasterization(batch):
    los = np.array([a for a, _ in batch])
    his = np.array([a + w for a, w in batch])
    merged = merge_intervals(los.copy(), his.copy())
    lo_bound, hi_bound = _raster_bracket(los, his, len(merged))
    assert lo_bound - 1e-9 <= merged.total_length <= hi_bound + 1e-9
    ivs = merged.intervals
    for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
        assert b1 < a2  # disjoint, non-touching, sorted


def _merge_oracle(los, his):
    """The union as an argsort sweep computes it: stable argsort, gather,
    running maximum."""
    los = np.asarray(los, dtype=float)
    his = np.asarray(his, dtype=float)
    if len(los) == 0:
        return los, his
    order = np.argsort(los, kind="stable")
    lo, hi = los[order], his[order]
    cummax = np.maximum.accumulate(hi)
    new = np.empty(len(lo), dtype=bool)
    new[0] = True
    new[1:] = lo[1:] > cummax[:-1]
    idx = np.flatnonzero(new)
    starts = lo[idx]
    ends = np.empty(len(idx))
    ends[:-1] = cummax[idx[1:] - 1]
    ends[-1] = cummax[-1]
    return starts, ends


def _assert_same_bits(merged, oracle):
    starts, ends = oracle
    assert merged.los.tolist() == starts.tolist()
    assert merged.his.tolist() == ends.tolist()
    assert merged.total_length == float((ends - starts).sum())


@st.composite
def equal_width_batches(draw):
    """Centres on a grid of pitch 2h (exact duplicates, touching and
    nearly touching neighbours) mixed with arbitrary floats."""
    half = draw(st.sampled_from([0.0, 0.5, 0.25, 1 / 3, 0.1, 1e-9, 3.0]))
    grid = st.integers(-12, 12).map(lambda k: k * 2.0 * half)
    free = st.floats(-10.0, 10.0)
    centers = draw(st.lists(st.one_of(grid, grid, free), min_size=0, max_size=60))
    return np.array(centers, dtype=float), half


@settings(max_examples=300, deadline=None)
@given(equal_width_batches())
def test_equal_width_merge_bit_identical(batch):
    centers, half = batch
    oracle = _merge_oracle(centers - half, centers + half)
    _assert_same_bits(merge_intervals(centers - half, centers + half), oracle)


@st.composite
def centre_batches(draw):
    """Centre pairs lo <= hi on a grid of pitch 2h (exact duplicates,
    touching and nearly touching neighbours) mixed with arbitrary floats,
    and the half-width h."""
    half = draw(st.sampled_from([0.0, 0.5, 0.25, 1 / 3, 0.1, 1e-9, 3.0]))
    grid = st.integers(-12, 12).map(lambda k: k * 2.0 * half)
    point = st.one_of(grid, grid, st.floats(-10.0, 10.0))
    pairs = draw(st.lists(st.tuples(point, point), max_size=60))
    los = np.array([min(p) for p in pairs], dtype=float)
    his = np.array([max(p) for p in pairs], dtype=float)
    return los, his, half


@settings(max_examples=300, deadline=None)
@given(centre_batches())
def test_centre_merge_bit_identical_to_endpoint_oracle(batch):
    los, his, half = batch
    merged = merge_intervals(los.copy(), his.copy(), half=half)
    assert merged.half == half
    _assert_same_bits(
        IntervalSet(*merged.endpoints()), _merge_oracle(los - half, his + half)
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.integers(-8, 8).map(float), st.floats(-10.0, 10.0)),
            st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 3.0)),
        ),
        min_size=0,
        max_size=60,
    )
)
def test_merge_matches_stable_oracle(batch):
    los = np.array([a for a, _ in batch], dtype=float)
    his = np.array([a + w for a, w in batch], dtype=float)
    oracle = _merge_oracle(los, his)
    _assert_same_bits(merge_intervals(los, his), oracle)


def test_merge_sorts_both_ends_in_place():
    # unequal widths: each end array is sorted on its own, so right ends
    # no longer sit beside their own left ends
    los = np.array([3.0, -1.0, 2.5, 0.5])
    his = np.array([3.5, 2.0, 2.75, 0.75])
    merged = merge_intervals(los, his)
    assert los.tolist() == [-1.0, 0.5, 2.5, 3.0]
    assert his.tolist() == [0.75, 2.0, 2.75, 3.5]
    assert merged.intervals == [(-1.0, 2.0), (2.5, 2.75), (3.0, 3.5)]


def test_merge_touching_coalesce():
    merged = merge_intervals(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    assert len(merged) == 1
    assert merged.total_length == pytest.approx(2.0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(centre_batches().map(lambda b: b[:2]), min_size=1, max_size=6),
    st.integers(0, 3),
    st.sampled_from([0.0, 0.25, 1e-9]),
)
def test_row_merge_matches_each_row(rows, extra, half):
    """(rows, W) arrays padded with +inf merge each row on its own: the
    components of a row are the 1-D union's, then +inf.  They are compared
    as values, since a sort may order -0.0 and 0.0 either way."""
    width = max(len(lo) for lo, _ in rows) + extra
    los, his = np.full((len(rows), width), np.inf), np.full((len(rows), width), np.inf)
    for i, (lo, hi) in enumerate(rows):
        # the union reads each end array only once sorted
        los[i, : len(lo)], his[i, : len(hi)] = lo[::-1], hi
    merged = merge_intervals(los, his, half=half)
    assert merged.los.ndim == 2 and merged.half == half
    for i, (lo, hi) in enumerate(rows):
        one = merge_intervals(lo.copy(), hi.copy(), half=half)
        count = len(one)
        assert merged.los[i, :count].tolist() == one.los.tolist()
        assert merged.his[i, :count].tolist() == one.his.tolist()
        assert np.all(merged.los[i, count:] == np.inf) and np.all(merged.his[i, count:] == np.inf)


# ------------------------------------------------------------ intervals


def test_cylinder_interval_identity(ifs):
    from favlab.ifs import IDENTITY

    body = DiskBody(ifs.center, ifs.R0)
    (lo,), (hi,) = body.interval(CylinderBatch.of([IDENTITY]), 0.0)
    assert lo == pytest.approx(-1.0)
    assert hi == pytest.approx(1.0)


def test_cylinder_interval_width_theta_free(ifs):
    body = DiskBody(ifs.center, ifs.R0)
    g = ifs.compose((1, 2))
    widths = [np.subtract(*reversed(body.interval(CylinderBatch.of([g]), t)))
              for t in np.linspace(0, math.pi, 17)]
    assert np.allclose(widths, 2 * g.r * ifs.R0, atol=1e-12)


def test_cylinder_interval_boundary_oracle(ifs):
    # [DERIVED] 1024-point boundary sampling oracle
    body = DiskBody(ifs.center, ifs.R0)
    g = ifs.compose((1, 3, 2))
    for theta in (0.0, 0.7, 2.5):
        (lo,), (hi,) = body.interval(CylinderBatch.of([g]), theta)
        ts = np.linspace(0, 2 * math.pi, 1024, endpoint=False)
        bx = ifs.center[0] + ifs.R0 * np.cos(ts)
        by = ifs.center[1] + ifs.R0 * np.sin(ts)
        m = g.matrix_np() if hasattr(g, "matrix_np") else None
        c, s = math.cos(g.theta), math.sin(g.theta)
        px = g.r * (c * bx - g.orient * s * by) + g.tx
        py = g.r * (s * bx + g.orient * c * by) + g.ty
        proj = px * math.cos(theta) + py * math.sin(theta)
        assert lo == pytest.approx(proj.min(), abs=1e-5)
        assert hi == pytest.approx(proj.max(), abs=1e-5)
        assert lo <= proj.min() + 1e-12 and hi >= proj.max() - 1e-12


# ------------------------------------------------------------ lengths


def test_segment_projection_length():
    ifs = segment_ifs()
    body = attractor_hull(ifs)
    for n in (1, 3, 5):
        for theta in (0.0, 0.4, 1.0):
            length = sweeper_at(ifs, n, body).length_at(theta)
            assert length == pytest.approx(abs(math.cos(theta)), abs=1e-9)


def test_four_corner_level1():
    ifs = corner_ifs()
    body = attractor_hull(ifs)
    ivset = sweeper_at(ifs, 1, body).merged_at(0.0)
    length = ivset.total_length
    # [DERIVED] hand merge: two columns give [0,1/4] u [3/4,1]
    assert length == pytest.approx(0.5, abs=1e-9)
    assert len(ivset) == 2


def test_level_length_monotone(ifs):
    for theta in (0.1, 1.0, 2.0):
        prev = math.inf
        for n in range(1, 8):
            length = sweeper_at(ifs, n).length_at(theta)
            assert length <= prev + 1e-9
            prev = length


def test_level_length_matches_rasterization(ifs):
    for n in (3, 5):
        for theta in (0.3, 1.7):
            sweeper = sweeper_at(ifs, n)
            los, his = sweeper.intervals_at(theta)
            merged = sweeper.merged_at(theta)
            length = merged.total_length
            lo_bound, hi_bound = _raster_bracket(los, his, len(merged))
            assert lo_bound - 1e-9 <= length <= hi_bound + 1e-9


def test_rotation_equivariance(ifs):
    # rotate the whole configuration by beta and shift theta accordingly
    beta = 0.83
    c, s = math.cos(beta), math.sin(beta)
    # conjugation by the rotation R_beta: for orient=+1 maps the linear part
    # is unchanged and only the translation rotates
    rotated = IFS.from_maps(
        [
            Similitude(r=f.r, theta=f.theta, orient=f.orient,
                       tx=c * f.tx - s * f.ty, ty=s * f.tx + c * f.ty)
            for f in ifs.maps
        ]
    )
    for theta in (0.2, 1.1):
        a = sweeper_at(ifs, 4).length_at(theta)
        b = sweeper_at(rotated, 4).length_at(theta + beta)
        assert a == pytest.approx(b, abs=1e-9)


def test_neighborhood_length(ifs):
    # rho above the diameter of a small system: a single padded interval
    small = IFS.from_maps(
        [
            Similitude(r=0.3, theta=0.0, orient=1, tx=0.0, ty=0.0),
            Similitude(r=0.3, theta=0.0, orient=1, tx=0.1, ty=0.0),
        ]
    )
    rho = 0.9
    length = neighborhood_projection_length(small, rho, 0.4)
    assert length == pytest.approx(2 * (small.R0 + rho), rel=0.2)
    # decreasing down the sweep grid
    prev = math.inf
    for k in range(1, 8):
        val = neighborhood_projection_length(ifs, (1 / 3) ** k, 0.4)
        assert val <= prev + 1e-9
        prev = val
    with pytest.raises(RhoTooSmall):
        neighborhood_projection_length(ifs, 1e-300, 0.4)


def test_neighborhood_vs_level_band(ifs):
    # comparability of the two length notions on the matched grid
    # empirical band constant: ratios stay under 2 on this grid
    for k in (2, 4, 6):
        rho = (1 / 3) ** k
        a = neighborhood_projection_length(ifs, rho, 0.9)
        b = sweeper_at(ifs, k).length_at(0.9)
        assert b <= a  # padding only adds length
        assert a / b <= 2.0


# ------------------------------------------------------------ favard


def test_favard_segment_analytic():
    ifs = segment_ifs()
    body = attractor_hull(ifs)
    res = favard(ifs, 2, 512, body=body)
    assert res.value == pytest.approx(2.0, abs=1e-3)  # int_0^pi |cos| = 2


def test_favard_disk_constant(ifs):
    res = favard(ifs, 0, 16)
    assert res.value == pytest.approx(math.pi * ifs.D, rel=1e-12)
    assert res.max_over_theta == pytest.approx(ifs.D)


def test_favard_monotone_small(ifs):
    prev = math.inf
    for n in range(1, 7):
        res = favard(ifs, n, 16)
        assert res.value <= prev + 1e-9
        assert res.max_over_theta == pytest.approx(max(res.lengths.tolist()))
        prev = res.value


def test_sweep_deterministic_across_workers(ifs):
    thetas = [(j + 0.5) * math.pi / 8 for j in range(8)]
    runs = []
    for workers in (1, 2, 4):
        os.environ["FAVLAB_THREADS"] = str(workers)
        try:
            runs.append(projection_sweep(ifs, [3, 5], thetas))
        finally:
            os.environ.pop("FAVLAB_THREADS", None)
    for n in (3, 5):  # bit identical across worker counts
        assert runs[0][n].tolist() == runs[1][n].tolist() == runs[2][n].tolist()


def _record_merges(monkeypatch):
    """Route favard's union through a recorder of the form of each call:
    "rows" (padded rows, the projection recursion's), "centre" (1-D,
    half > 0) or "endpoint" (1-D, half 0)."""
    favard_mod = importlib.import_module("favlab.favard")
    forms = []
    original = favard_mod.merge_intervals

    def recorder(los, his, half=0.0):
        forms.append("rows" if np.ndim(los) == 2 else "centre" if half > 0.0 else "endpoint")
        return original(los, his, half)

    monkeypatch.setattr(favard_mod, "merge_intervals", recorder)
    return forms


def test_fig1_sweep_takes_recursive_path(ifs, monkeypatch):
    thetas = [(j + 0.5) * math.pi / 16 for j in range(16)]
    sweeper = LevelSweeper(ifs)
    for n in range(0, 8):
        sweeper.advance_to(n)
        for theta in thetas:
            oracle = _merge_oracle(*sweeper.intervals_at(theta))
            _assert_same_bits(sweeper.merged_at(theta), oracle)
    forms = _record_merges(monkeypatch)
    projection_sweep(ifs, [2, 5], thetas, workers=1)
    # one row-wise union per level serves all 16 angles and every key
    assert forms == ["rows"] * 5


def test_reflected_homogeneous_disk_sweep_takes_recursive_path(monkeypatch):
    reflected = IFS.from_maps(
        [
            Similitude(r=0.4, theta=1.0, orient=-1, tx=0.0, ty=0.0),
            Similitude(r=0.4, theta=0.0, orient=1, tx=0.6, ty=0.1),
        ]
    )
    forms = _record_merges(monkeypatch)
    projection_sweep(reflected, [1, 4], [0.3, 1.9], workers=1)
    assert forms == ["rows"] * 4


def _assert_recursive_sweeps(cases, monkeypatch):
    """Sweep each (system, body) at levels 1 and 4 and two angles: the
    recursion serves these systems, with one row-wise merge per level; the
    level sweeper's endpoint merges stay bit-identical to `_merge_oracle`,
    and each length is within 1e-13 of the oracle's, with as many
    components."""
    thetas = [0.3, 1.9]
    forms = _record_merges(monkeypatch)
    for system, body in cases:
        forms.clear()
        recursion = FAVARD._ProjectionRecursion.of(system, [1, 4], body)
        lengths, components = recursion.sweep(thetas, 1)
        swept = projection_sweep(system, [1, 4], thetas, body=body, workers=1)
        assert all(swept[n].tobytes() == lengths[n].tobytes() for n in (1, 4))
        assert forms == ["rows"] * 8
        sweeper = LevelSweeper(system, body=body)
        for n in (1, 4):
            sweeper.advance_to(n)
            for theta, length, count in zip(thetas, lengths[n], components[n]):
                oracle = _merge_oracle(*sweeper.intervals_at(theta))
                _assert_same_bits(sweeper.merged_at(theta), oracle)
                assert abs(length - float((oracle[1] - oracle[0]).sum())) <= 1e-13 * length
                assert count == len(oracle[0])


# The next two tests keep the names they had when two-class, hull and
# mixed-ratio covers took the level sweeper; all now take the recursion.
@pytest.mark.parametrize(
    "theta, orient", [(2.0, 1), (1.0, -1)], ids=["two-rotations", "rotation-and-reflection"]
)
def test_two_class_homogeneous_disk_sweep_takes_equal_width_path(theta, orient, monkeypatch):
    # beside a rotation by 1, a second (theta, orient) class
    two_classes = IFS.from_maps(
        [
            Similitude(r=0.4, theta=1.0, orient=1, tx=0.0, ty=0.0),
            Similitude(r=0.4, theta=theta, orient=orient, tx=0.6, ty=0.1),
        ]
    )
    _assert_recursive_sweeps([(two_classes, None)], monkeypatch)


def test_hull_and_mixed_ratio_sweeps_take_general_path(ifs, monkeypatch):
    mixed = IFS.from_maps(
        [
            Similitude(r=0.5, theta=0.0, orient=1, tx=0.0, ty=0.0),
            Similitude(r=0.25, theta=0.3, orient=1, tx=0.5, ty=0.0),
        ]
    )
    _assert_recursive_sweeps([(ifs, attractor_hull(ifs)), (mixed, None)], monkeypatch)


# ------------------------------------------------------------ projection recursion


FAVARD = importlib.import_module("favlab.favard")


def _centred(maps):
    """The system of maps conjugated by the translation to the centre c of
    its enclosing disk (t_i -> F_i(c) - c), so that the disk is centred at
    the origin."""
    cx, cy = IFS.from_maps(maps).center
    return IFS.from_maps(
        [
            Similitude(r=f.r, theta=f.theta, orient=f.orient,
                       tx=f.apply((cx, cy))[0] - cx, ty=f.apply((cx, cy))[1] - cy)
            for f in maps
        ]
    )


@st.composite
def one_class_systems(draw):
    """Homogeneous systems of 2..4 maps, each a pure homothety or a member of
    one (theta, orient) class, a rotation or a reflection, moved so that the
    enclosing disk is centred at the origin.  Lengths do not depend on where
    the set lies, but the rounding of a centre projection grows with its
    distance from the origin; centred, it stays a few ulps of R0, and the
    ratio stays >= 0.4, so that the level-8 half-width r^8 R0 is no smaller
    than 6.5e-4 R0 and those ulps stay below 1e-12 of a length."""
    m = draw(st.integers(2, 4))
    r = draw(st.floats(0.4, 0.65))
    theta = draw(st.floats(0.0, 2.0 * math.pi, exclude_max=True))
    orient = draw(st.sampled_from([1, -1]))
    coord = st.floats(-1.0, 1.0)
    maps = []
    for i in range(m):
        in_class = i == 0 or draw(st.booleans())
        maps.append(
            Similitude(
                r=r,
                theta=theta if in_class else 0.0,
                orient=orient if in_class else 1,
                tx=draw(coord),
                ty=draw(coord),
            )
        )
    return _centred(maps)


@settings(max_examples=60, deadline=None)
@given(one_class_systems(), st.lists(st.floats(0.0, math.pi), min_size=1, max_size=3))
def test_recursion_matches_level_sweeper(system, thetas):
    levels = range(0, 9)
    recursion = FAVARD._ProjectionRecursion.of(system, levels, None)
    assert recursion is not None
    lengths, components = recursion.sweep(thetas, 1)
    sweeper = LevelSweeper(system)
    for n in levels:
        sweeper.advance_to(n)
        for a, theta in enumerate(thetas):
            oracle = sweeper.merged_at(theta)
            assert components[n][a] == len(oracle), (n, theta)
            assert abs(lengths[n][a] - oracle.total_length) <= 1e-12 * oracle.total_length


@st.composite
def generic_systems(draw):
    """Systems of m = 2..4 maps in 1..m (theta, orient) classes, at least
    one a reflection, with ratios in [max(0.25, 1/m), 0.6] each drawn on its
    own, so that the similarity dimension is at least 1 and covers overlap
    (below it a level's length shrinks like (m r)^n while the rounding of
    its endpoints does not), and the enclosing disk centred at the
    origin."""
    m = draw(st.integers(2, 4))
    angle, coord = st.floats(0.0, 2.0 * math.pi, exclude_max=True), st.floats(-1.0, 1.0)
    ratio = st.floats(max(0.25, 1.0 / m), 0.6)
    classes = [(draw(angle), draw(st.sampled_from([1, -1]))) for _ in range(draw(st.integers(1, m)))]
    classes[0] = (classes[0][0], -1)
    classes += [draw(st.sampled_from(classes)) for _ in range(m - len(classes))]
    return _centred(
        [
            Similitude(r=draw(ratio), theta=theta, orient=orient, tx=draw(coord), ty=draw(coord))
            for theta, orient in classes
        ]
    )


@settings(max_examples=60, deadline=None)
@given(
    generic_systems(),
    st.lists(st.one_of(st.sampled_from([0.0, math.pi / 2]), st.floats(0.0, math.pi)), min_size=1, max_size=3),
)
def test_generic_recursion_matches_level_sweeper(system, thetas):
    bodies = [None]
    try:
        hull = attractor_hull(system)
    except HullNotInvariant:
        hull = None
    if hull is not None:
        # a flat hull projects to lengths of rounding noise at some angle
        lo, hi = hull.support_range(np.linspace(0.0, math.pi, 721))
        if (hi - lo).min() > 1e-3 * (hi - lo).max():
            bodies.append(hull)
    event(f"bodies: {len(bodies)}")
    levels = range(0, 8)
    for body in bodies:
        lengths, components = FAVARD._ProjectionRecursion.of(system, levels, body).sweep(thetas, 1)
        sweeper = LevelSweeper(system, body=body)
        for n in levels:
            sweeper.advance_to(n)
            for a, theta in enumerate(thetas):
                oracle = sweeper.merged_at(theta)
                assert abs(lengths[n][a] - oracle.total_length) <= 1e-12 * oracle.total_length
                # equal counts, except where two cylinder intervals touch to
                # within rounding (r = 1/3 with translations 0 and 1 touch
                # exactly): there either side may read a gap
                los, his = sweeper.intervals_at(theta)
                slack = 1e-13 * (his.max() - los.min())
                wide = len(merge_intervals(los - slack, his + slack))
                narrow = len(merge_intervals(los + slack, his - slack))
                assert wide <= components[n][a] <= narrow, (n, theta)
                event(f"count exact: {wide == narrow}")


def test_fig1_recursion_matches_live_sweeper(ifs):
    thetas = [(j + 0.5) * math.pi / 64 for j in range(64)]
    levels = list(range(2, 13))
    lengths = projection_sweep(ifs, levels, thetas)
    sweeper = LevelSweeper(ifs)
    for n in levels:
        sweeper.advance_to(n)
        live = np.array([sweeper.length_at(theta) for theta in thetas])
        assert np.all(np.abs(lengths[n] - live) <= 1e-12 * live), n


def test_sweep_of_no_angles(ifs):
    # one empty array per level, in ascending order, for the disk and the
    # hull, and no arrays for no levels
    for body in (None, attractor_hull(ifs)):
        out = projection_sweep(ifs, [0, 3], [], body=body, workers=2)
        assert list(out) == [0, 3] and all(v.shape == (0,) for v in out.values())
        assert list(projection_sweep(ifs, [9, 2], [], body=body)) == [2, 9]
        assert projection_sweep(ifs, [], [0.3], body=body) == {}


def test_negative_levels_are_refused_before_any_work(ifs, monkeypatch):
    forms = _record_merges(monkeypatch)
    for ns in ([-1], [-1, 3], range(-2, 3)):
        with pytest.raises(PreconditionViolated, match="levels >= 0"):
            projection_sweep(ifs, ns, [0.3])
    with pytest.raises(PreconditionViolated, match="levels >= 0"):
        favard(ifs, -1, 8)
    assert forms == []


def test_recursion_eligibility(ifs, monkeypatch):
    of = FAVARD._ProjectionRecursion.of
    homotheties = corner_ifs()
    mixed = IFS.from_maps(
        [
            Similitude(r=0.5, theta=0.0, orient=1, tx=0.0, ty=0.0),
            Similitude(r=0.25, theta=0.0, orient=1, tx=0.5, ty=0.0),
        ]
    )
    assert of(ifs, [3], None) is not None
    assert of(homotheties, [3], None) is not None
    assert of(ifs, [3], attractor_hull(ifs)) is not None
    assert of(mixed, [3], None) is not None
    with pytest.raises(PreconditionViolated):
        of(ifs, [], None)
    # fig1: one rotating map, so level j of a pass to 6 reads 7 - j keys
    assert [len(rows) for rows in of(ifs, [6], None).keys] == [7, 6, 5, 4, 3, 2, 1]
    # a reflection pairs each key with its mirror: two keys per level
    reflected = IFS.from_maps(
        [
            Similitude(r=0.4, theta=1.0, orient=-1, tx=0.0, ty=0.0),
            Similitude(r=0.4, theta=0.0, orient=1, tx=0.6, ty=0.1),
        ]
    )
    assert [len(rows) for rows in of(reflected, [6], None).keys] == [2] * 6 + [1]
    # four classes, one a reflection: keys (s, c_1..c_4), and map i reads
    # o_i (s, c - e_i) of each key
    generic = _seeded_reflected_system(5)
    recursion = of(generic, [2, 5], None)
    assert [rows.shape[1] for rows in recursion.keys] == [5] * 6
    assert recursion.keys[5].tolist() == [[1, 0, 0, 0, 0]]
    for below, rows, children in zip(recursion.keys, recursion.keys[1:], recursion.children[1:]):
        for i, f in enumerate(generic.maps):
            assert (below[children[:, i]] == f.orient * (rows - np.eye(5, dtype=int)[1 + i])).all()
    # a pass to 11 merges 3,686 keys per angle and one to 12 merges 5,325:
    # a cap between the two refuses the second
    assert sum(len(rows) for rows in of(generic, [11], None).keys[1:]) == 3686
    assert sum(len(rows) for rows in of(generic, [12], None).keys[1:]) == 5325
    monkeypatch.setattr(FAVARD, "MERGE_CAP", 5324)
    assert of(generic, [11], None) is not None
    with pytest.raises(LevelTooLarge, match="the pass to level 12 passes 5324 level-key merges"):
        of(generic, [12], None)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda cols: st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), min_size=1, max_size=60)
    )
)
def test_unique_rows_matches_numpy_unique(rows):
    rows = np.array(rows, dtype=np.intp)
    keys, inverse = FAVARD._unique_rows(rows)
    want, want_inverse = np.unique(rows, axis=0, return_inverse=True)
    assert keys.dtype == want.dtype and keys.tobytes() == want.tobytes()
    assert inverse.tobytes() == want_inverse.reshape(-1).tobytes()


def _old_key_table(ifs, ns):
    """[DERIVED] the recursion's keys and children as ``of`` formed them by
    np.unique(axis=0), before the lexsort."""
    classes = [c for c in dict.fromkeys((f.theta, f.orient) for f in ifs.maps) if c != (0.0, 1)]
    steps = np.array([[(f.theta, f.orient) == c for c in [None, *classes]] for f in ifs.maps], dtype=np.intp)
    orients = np.array([[f.orient] for f in ifs.maps])
    home = np.eye(1, 1 + len(classes), dtype=np.intp)
    level, keys, children = home, [], []
    for j in range(max(ns), 0, -1):
        below = (orients * (level[:, None, :] - steps)).reshape(-1, 1 + len(classes))
        if j - 1 in ns:
            below = np.vstack((below, home))
        keys.append(level)
        level, inverse = np.unique(below, axis=0, return_inverse=True)
        children.append(inverse.reshape(-1)[: len(keys[-1]) * ifs.m].reshape(-1, ifs.m))
    return (keys + [level])[::-1], children[::-1]


def test_key_table_matches_numpy_unique(ifs):
    homothety_and_reflection = IFS.from_maps(
        [
            Similitude(r=0.3, theta=0.0, orient=1, tx=0.0, ty=0.0),
            Similitude(r=0.4, theta=0.7, orient=-1, tx=0.6, ty=0.1),
            Similitude(r=0.35, theta=2.1, orient=1, tx=0.2, ty=0.7),
        ]
    )
    for system in (ifs, homothety_and_reflection, _seeded_reflected_system(3), _seeded_reflected_system(17)):
        for ns in ([9], [2, 5, 9], range(0, 8)):
            recursion = FAVARD._ProjectionRecursion.of(system, ns, None)
            keys, children = _old_key_table(system, set(ns))
            assert [k.tobytes() for k in recursion.keys] == [k.tobytes() for k in keys]
            assert [c.tobytes() for c in recursion.children[1:]] == [c.tobytes() for c in children]


@pytest.mark.parametrize("system", ["fig1", "reflected"])
def test_recursive_sweep_bit_identical_across_threads(ifs, system, monkeypatch):
    if system == "reflected":
        ifs = IFS.from_maps(
            [
                Similitude(r=0.45, theta=2.2, orient=-1, tx=0.1, ty=0.0),
                Similitude(r=0.45, theta=0.0, orient=1, tx=0.6, ty=0.2),
                Similitude(r=0.45, theta=2.2, orient=-1, tx=0.3, ty=0.7),
            ]
        )
    thetas = [(j + 0.5) * math.pi / 12 for j in range(12)]
    levels = list(range(0, 10))
    forms = _record_merges(monkeypatch)
    runs = []
    # at the default BLOCK_CAP and at one small enough that the blocks split
    # and the threads run them
    for cap in (FAVARD.BLOCK_CAP, 2000):
        monkeypatch.setattr(FAVARD, "BLOCK_CAP", cap)
        for workers in ("1", "2", "4"):
            monkeypatch.setenv("FAVLAB_THREADS", workers)
            runs.append(projection_sweep(ifs, levels, thetas))
    assert forms and set(forms) == {"rows"}
    for n in levels:
        assert len({run[n].tobytes() for run in runs}) == 1


def _per_angle_merged_at(recursion, phi):
    """[oracle] The per-angle pass of the projection recursion as it stood
    before one level step served a block of angles: yields (n, union of the
    projected level-n cover at angle phi), from one 1-D merge per (level,
    angle key), with the keys as tuples, each direction from math.cos and
    math.sin, and each map's children formed from the map itself."""
    ifs, body, maps = recursion.ifs, recursion.body, recursion.ifs.maps
    classes = list(dict.fromkeys((f.theta, f.orient) for f in maps if (f.theta, f.orient) != (0.0, 1)))
    home = (1,) + (0,) * len(classes)
    centre_form = isinstance(body, DiskBody) and len({f.r for f in maps}) == 1

    def child(key, f):
        if (f.theta, f.orient) == (0.0, 1):
            return key
        k = 1 + classes.index((f.theta, f.orient))
        return tuple(f.orient * (c - (i == k)) for i, c in enumerate(key))

    def direction(key):
        turn = key[1] * classes[0][0] if classes else 0.0
        for c, (theta, _) in zip(key[2:], classes[1:]):
            turn += c * theta
        return key[0] * phi + turn

    comps = {}
    for key in map(tuple, recursion.keys[0].tolist()):
        a = direction(key)
        if isinstance(body, DiskBody):
            p = np.array([body.center[0] * math.cos(a) + body.center[1] * math.sin(a)])
            comps[key] = IntervalSet(p, p, body.radius) if centre_form else IntervalSet(p - body.radius, p + body.radius)
        else:
            comps[key] = IntervalSet(*body.support_range(np.array([a])))
    if 0 in recursion.ns:
        yield 0, comps[home]
    r_j = 1.0
    for j, rows in enumerate(recursion.keys[1:], start=1):
        r_j = maps[0].r * r_j
        half = r_j * body.radius if centre_form else 0.0
        level = {}
        for key in map(tuple, rows.tolist()):
            a = direction(key)
            c, s = math.cos(a), math.sin(a)
            parts = [(comps[child(key, f)], f.r, f.tx * c + f.ty * s) for f in maps]
            los = np.concatenate([p.los * r + shift for p, r, shift in parts])
            his = np.concatenate([p.his * r + shift for p, r, shift in parts])
            level[key] = merge_intervals(los, his, half=half)
        comps = level
        if j in recursion.ns:
            yield j, comps[home]


def _assert_matches_per_angle_pass(recursion, thetas, sweep):
    lengths, components = sweep
    for a, theta in enumerate(thetas):
        for n, merged in _per_angle_merged_at(recursion, theta):
            assert lengths[n][a : a + 1].tobytes() == np.array([merged.total_length]).tobytes()
            assert components[n][a] == len(merged)


@settings(max_examples=100, deadline=None)
@given(
    one_class_systems(),
    st.lists(
        st.one_of(st.sampled_from([0.0, math.pi / 2, 1.0]), st.floats(0.0, math.pi)),
        min_size=1,
        max_size=8,
    ),
)
def test_block_recursion_bit_identical_to_per_angle_pass(system, thetas):
    recursion = FAVARD._ProjectionRecursion.of(system, range(0, 10), None)
    _assert_matches_per_angle_pass(recursion, thetas, recursion.sweep(thetas, 1))


def test_block_splits_keep_bits(ifs, monkeypatch):
    thetas = [(j + 0.5) * math.pi / 16 for j in range(16)] + [0.0, math.pi / 2, 0.0]
    recursion = FAVARD._ProjectionRecursion.of(ifs, range(0, 9), None)
    whole = recursion.sweep(thetas, 1)
    _assert_matches_per_angle_pass(recursion, thetas, whole)
    forms = _record_merges(monkeypatch)
    # every step splits its block down to one angle, and one angle's step
    # merges one row at a time; with more threads than cores and a short
    # switch interval, a lost write of a block's lengths would show
    monkeypatch.setattr(FAVARD, "BLOCK_CAP", 1)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 2, 8):
            forms.clear()
            split = recursion.sweep(thetas, workers)
            for n in range(0, 9):
                assert split[0][n].tobytes() == whole[0][n].tobytes()
                assert split[1][n].tolist() == whole[1][n].tolist()
            assert forms == ["rows"] * len(thetas) * sum(len(rows) for rows in recursion.keys[1:])
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    "system, angles, workers",
    [("fig1", 13, 1), ("fig1", 13, 2), ("fig1", 13, 3), ("fig1", 13, 8), ("fig1", 3, 8),
     ("hull", 13, 1), ("hull", 13, 2), ("hull", 13, 8)],
    ids=["13x1", "13x2", "13x3", "13x8", "3x8", "hull-13x1", "hull-13x2", "hull-13x8"],
)
@pytest.mark.parametrize("cap", [FAVARD.BLOCK_CAP, 2000, 1], ids=["cap-default", "cap-2000", "cap-1"])
def test_parts_keep_bits(ifs, system, angles, workers, cap, monkeypatch):
    # 13 angles cut into 1, 4, 6 and 13 uneven parts, and 3 angles at more
    # workers than angles, each at blocks that never split, split and end
    # at one angle: lengths and component counts are those of one part with
    # one unsplit block, and of the pass per angle; for fig1's disk cover,
    # and for the hull cover of a four-class system with a reflection
    thetas = [(j + 0.5) * math.pi / angles for j in range(angles)]
    if system == "hull":
        ifs = _seeded_reflected_system(5)
        recursion = FAVARD._ProjectionRecursion.of(ifs, range(0, 7), attractor_hull(ifs))
    else:
        recursion = FAVARD._ProjectionRecursion.of(ifs, range(0, 10), None)
    whole = recursion.sweep(thetas, 1)
    _assert_matches_per_angle_pass(recursion, thetas, whole)
    monkeypatch.setattr(FAVARD, "BLOCK_CAP", cap)
    parts = recursion.sweep(thetas, workers)
    for n in recursion.ns:
        assert parts[0][n].tobytes() == whole[0][n].tobytes()
        assert parts[1][n].tobytes() == whole[1][n].tobytes()


@pytest.mark.parametrize("hull", [False, True], ids=["disk", "hull"])
def test_levels_do_not_depend_on_the_top_level(hull):
    # a pass to 8 reads more keys at every level than a pass to 5, but the
    # lengths of levels 2..5 keep their bits, at any worker count
    system = _seeded_reflected_system(5)
    body = attractor_hull(system) if hull else None
    thetas = [(j + 0.5) * math.pi / 8 for j in range(8)] + [0.0, math.pi / 2]
    short = projection_sweep(system, range(2, 6), thetas, body=body, workers=1)
    deep = projection_sweep(system, range(2, 9), thetas, body=body, workers=2)
    for n in range(2, 6):
        assert short[n].tobytes() == deep[n].tobytes()


def test_one_worker_merge_calls_on_fig1_grid(ifs, monkeypatch):
    # one worker runs the angles as one part: one block of all 64 angles,
    # halving where a step would pass BLOCK_CAP, 89 row-wise merges in all
    forms = _record_merges(monkeypatch)
    thetas = [(j + 0.5) * math.pi / 64 for j in range(64)]
    projection_sweep(ifs, range(2, 13), thetas, workers=1)
    assert forms == ["rows"] * 89


def test_huge_levels_are_refused_promptly(ifs, monkeypatch):
    # a level past MERGE_CAP is refused before its keys are formed: a
    # homothety system adds one key per level, and fig1 one more per level
    forms = _record_merges(monkeypatch)
    for system, ns in ((corner_ifs(), [10**30]), (ifs, range(2, 100_001))):
        t0 = time.perf_counter()
        with pytest.raises(LevelTooLarge, match=f"passes {FAVARD.MERGE_CAP} level-key merges"):
            projection_sweep(system, ns, [0.3], workers=1)
        assert time.perf_counter() - t0 < 1.0
    assert forms == []


def test_merge_cap_refuses_before_any_merge(ifs, monkeypatch):
    # fig1's pass to level n merges n (n + 1) / 2 keys per angle: under a cap
    # of 15 the pass to 5 runs, and the pass to 6 is refused before any merge
    forms = _record_merges(monkeypatch)
    monkeypatch.setattr(FAVARD, "MERGE_CAP", 15)
    projection_sweep(ifs, [5], [0.3], workers=1)
    assert forms == ["rows"] * 5
    forms.clear()
    with pytest.raises(LevelTooLarge, match="the pass to level 6 passes 15 level-key merges"):
        projection_sweep(ifs, [2, 6], [0.3, 1.1], workers=2)
    # one key per level: the pass to 15 fits the cap exactly, and a level past
    # it is refused before its keys are formed
    assert FAVARD._ProjectionRecursion.of(corner_ifs(), [15], None) is not None
    with pytest.raises(LevelTooLarge, match="level 16 passes 15 level-key merges"):
        projection_sweep(corner_ifs(), [16], [0.3], workers=1)
    assert forms == []


@pytest.mark.parametrize("workers", [1, 2])
def test_pass_past_the_old_merge_cap_runs_on_the_recursion(workers, monkeypatch):
    # four classes, one a reflection: the pass to 12 merges 5,325 keys per
    # angle, past the 4,096 that once handed a pass to the level sweeper;
    # the sweep never builds it, its level-11 lengths are the sweeper's, and
    # the hull body's level-8 lengths are those of the dense N x V matrix
    system = _seeded_reflected_system(5)
    hull = attractor_hull(system)
    thetas = [0.3, 1.9]

    def refuse(*args, **kwargs):
        raise AssertionError("projection_sweep built the level sweeper")

    with monkeypatch.context() as patch:
        patch.setattr(LevelSweeper, "__init__", refuse)
        lengths = projection_sweep(system, range(2, 13), thetas, workers=workers)
        hull_lengths = projection_sweep(system, range(2, 13), thetas, body=hull, workers=workers)
    oracle = [sweeper_at(system, 11).length_at(theta) for theta in thetas]
    assert np.allclose(lengths[11], oracle, rtol=1e-13, atol=0.0)
    hull_sweeper = sweeper_at(system, 8, body=hull)
    dense = [merge_intervals(*_dense_hull_intervals(hull_sweeper, theta)).total_length for theta in thetas]
    assert np.allclose(hull_lengths[8], dense, rtol=1e-13, atol=0.0)


def test_recursion_refuses_a_sparse_cover_whose_level_fits(monkeypatch):
    # covers that do not overlap: a pass to 6 takes in 67 intervals at level
    # 3 over its 10 keys, more than the 2^6 cylinders of level 6, so under a
    # cap of 64 the recursion refuses a pass whose cover would fit
    sparse = IFS.from_maps(
        [
            Similitude(r=0.2, theta=1.0, orient=1, tx=0.0, ty=0.0),
            Similitude(r=0.2, theta=2.5, orient=-1, tx=1.0, ty=0.3),
        ]
    )
    monkeypatch.setattr(FAVARD, "INTERVAL_CAP", 64)
    with pytest.raises(LevelTooLarge, match="level 3 merges 67 intervals, over cap 64 .*m\\^n"):
        projection_sweep(sparse, range(0, 7), [0.3], workers=1)


def test_recursion_caps_level_merges_not_the_cover(ifs, monkeypatch):
    # 3^6 = 729 cylinders pass a cap of 100: only merged components enter
    # the merges, which take in at most 52 intervals per level in the pass
    # to level 6 at theta = 0.7, and 126 at level 7 of the pass to 7
    monkeypatch.setattr(FAVARD, "INTERVAL_CAP", 100)
    assert projection_sweep(ifs, [6], [0.7], workers=1)[6][0] > 0.0
    with pytest.raises(LevelTooLarge, match="over cap 100"):
        projection_sweep(ifs, [7], [0.7], workers=1)


def test_recursion_cap_is_per_angle_in_a_block(ifs, monkeypatch):
    # the pass to 7 at theta = 0.7 takes in 117 intervals at level 6; at
    # 16.5 pi / 64 no level of it passes 100
    monkeypatch.setattr(FAVARD, "INTERVAL_CAP", 100)
    fits = 16.5 * math.pi / 64
    assert projection_sweep(ifs, [7], [fits], workers=1)[7][0] > 0.0
    message = "level 6 merges 117 intervals, over cap 100"
    with pytest.raises(LevelTooLarge, match=message):
        projection_sweep(ifs, [7], [0.7], workers=1)
    for cap in (FAVARD.BLOCK_CAP, 1):  # one block, and blocks of one angle
        monkeypatch.setattr(FAVARD, "BLOCK_CAP", cap)
        for workers in (1, 2):
            with pytest.raises(LevelTooLarge, match=message):
                projection_sweep(ifs, [7], [fits, 0.7, fits], workers=workers)


def test_first_failing_part_raises(ifs, monkeypatch):
    # under a cap of 100 the pass to 7 fails at level 7 at 12.5 pi / 64 and
    # at level 6 at 0.7, which comes later
    monkeypatch.setattr(FAVARD, "INTERVAL_CAP", 100)
    fits, late = 16.5 * math.pi / 64, 12.5 * math.pi / 64
    thetas = [fits, late, fits, 0.7, fits]
    at_7 = "level 7 merges 102 intervals, over cap 100"
    # one worker, one part: its one block meets level 6 first
    with pytest.raises(LevelTooLarge, match="level 6 merges 117 intervals, over cap 100"):
        projection_sweep(ifs, [7], thetas, workers=1)
    # more workers cut the two apart, and the first part in angle order
    # raises however long the other takes to fail
    for workers in (2, 3, 8):
        with pytest.raises(LevelTooLarge, match=at_7):
            projection_sweep(ifs, [7], thetas, workers=workers)
    # blocks of one angle fail in angle order at any worker count
    monkeypatch.setattr(FAVARD, "BLOCK_CAP", 1)
    for workers in (1, 2, 3, 8):
        with pytest.raises(LevelTooLarge, match=at_7):
            projection_sweep(ifs, [7], thetas, workers=workers)


def test_recursion_overflow_is_an_error(monkeypatch):
    # centre projections at pi/4 pass the float range although the
    # enclosing disk does not: an overflowed left end would read as padding
    near_limit = IFS.from_maps(
        [
            Similitude(r=0.5, theta=0.0, orient=1, tx=7.5e307, ty=7.5e307),
            Similitude(r=0.5, theta=0.0, orient=1, tx=7.4e307, ty=7.4e307),
        ]
    )
    with np.errstate(over="ignore"), pytest.raises(NumericOverflow, match="level 1"):
        projection_sweep(near_limit, [3], [math.pi / 4], workers=1)


def _seeded_reflected_system(seed):
    """Four maps with ratios in [0.25, 0.45], irrational rotation angles and
    one reflection, fixed points near the corners of the unit square."""
    rng = random.Random(seed)
    maps = []
    reflect = rng.randrange(4)
    for i, (cx, cy) in enumerate(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))):
        r = rng.uniform(0.25, 0.45)
        theta = 2 * math.pi * (math.sqrt(rng.randrange(2, 10**6) + 0.5) % 1.0)
        orient = -1 if i == reflect else 1
        px, py = cx + rng.uniform(-0.1, 0.1), cy + rng.uniform(-0.1, 0.1)
        c, s = math.cos(theta), math.sin(theta)
        tx = px - r * (c * px - orient * s * py)
        ty = py - r * (s * px + orient * c * py)
        maps.append(Similitude(r=r, theta=theta, orient=orient, tx=tx, ty=ty))
    return IFS.from_maps(maps)


def _dense_hull_intervals(sweeper, theta):
    """Hull-body intervals from the N x V matrix of every cylinder's vertex
    projections, min and max per row."""
    verts = sweeper.body.vertices
    cover = sweeper.cover
    psi = cover.orient * (theta - cover.theta)
    sup = np.cos(psi)[:, None] * verts[:, 0][None, :] + np.sin(psi)[:, None] * verts[
        :, 1
    ][None, :]
    mid = sweeper.x * math.cos(theta) + sweeper.y * math.sin(theta)
    return mid + cover.r * sup.min(axis=1), mid + cover.r * sup.max(axis=1)


@pytest.mark.parametrize("seed", [5, 8])
def test_hull_sweep_bit_identical_to_dense(seed):
    ifs = _seeded_reflected_system(seed)
    assert any(f.orient == -1 for f in ifs.maps)
    assert len({f.r for f in ifs.maps}) == 4
    body = attractor_hull(ifs)
    thetas = [(j + 0.5) * math.pi / 16 for j in range(16)] + [0.0, math.pi / 2]
    levels = list(range(0, 7))
    lengths = projection_sweep(ifs, levels, thetas, body=body, workers=2)
    sweeper = LevelSweeper(ifs, body=body)
    for n in levels:
        sweeper.advance_to(n)
        for theta, length in zip(thetas, lengths[n]):
            los, his = sweeper.intervals_at(theta)
            dense_los, dense_his = _dense_hull_intervals(sweeper, theta)
            assert los.tobytes() == dense_los.tobytes()
            assert his.tobytes() == dense_his.tobytes()
            merged = merge_intervals(dense_los, dense_his)
            _assert_same_bits(sweeper.merged_at(theta), (merged.los, merged.his))
            # the sweep's lengths come from the recursion
            assert abs(length - merged.total_length) <= 1e-13 * merged.total_length


# ------------------------------------------------------------ schedule


def test_log_star():
    assert log_star(1.0) == 0
    assert log_star(math.e) == 1
    assert log_star(math.exp(math.e)) == 2
    assert log_star(0.5) == 0


def test_bound_constant_reference_value():
    assert bound_constant(1, 2.0, 3, 0.1) == pytest.approx(
        math.log(2.0) / (3.3 * math.log(3.0)), abs=1e-12
    )


def test_schedule_plugin_arithmetic(ifs):
    sched = schedule(ifs, 1, 1.0, 1, 2.0, 0.1)
    assert sched.s_n == pytest.approx(2 * 27)
    # log3 L_1 = 54 + 2 log3 54
    assert sched.log_L_n / math.log(3) == pytest.approx(
        54 + 2 * math.log(54) / math.log(3)
    )
    assert sched.B == pytest.approx(bound_constant(1, 2.0, 3, 0.1))
    assert sched.inequality_holds


def test_schedule_rejects_inhomogeneous():
    bad = IFS.from_maps(
        [
            Similitude(r=0.5, theta=0.0, orient=1, tx=0.0, ty=0.0),
            Similitude(r=0.25, theta=0.0, orient=1, tx=0.5, ty=0.0),
        ]
    )
    with pytest.raises(NonHomogeneous):
        schedule(bad, 1, 1.0, 1, 2.0, 0.1)


def test_bound_curves_shapes(ifs):
    sched = schedule(ifs, 1, 1.0, 1, 2.0, 0.1)
    grid = list(range(2, 13))
    curves = bound_curves(sched.B, sched.m, 0.5, 1.0, 1.0, grid, A=2.0)
    ls = curves["log_star"]
    assert all(a >= b - 1e-15 for a, b in zip(ls, ls[1:]))  # nonincreasing
    thm = curves["log_power"]
    assert all(v > 0 for v in thm)


# ------------------------------------------------------------ fit


def test_fit_decay_exact_recovery():
    samples = [(n, 2.0 / math.log(n) ** 0.5) for n in range(3, 21)]
    fit = fit_decay(samples)
    assert fit.A_hat == pytest.approx(2.0, abs=1e-9)
    assert fit.B_hat == pytest.approx(0.5, abs=1e-9)
    assert fit.residual < 1e-18


def test_fit_decay_noise_recovery():
    rng = np.random.default_rng(0)
    samples = [
        (n, 1.5 / math.log(n) ** 0.7 * (1.0 + 0.01 * rng.standard_normal()))
        for n in range(3, 40)
    ]
    fit = fit_decay(samples)
    assert abs(fit.B_hat - 0.7) < 0.1


def test_fit_decay_degenerate():
    with pytest.raises(DegenerateFit):
        fit_decay([(5, 1.0), (5, 1.0), (5, 1.0)])
    with pytest.raises(DegenerateFit):
        fit_decay([(3, 1.0), (4, 1.0)])
