"""The three benchmark workloads: seeded inputs, the program calls of one
timed pass, and the checks on their outputs.

Every program call goes through a favlab module attribute (``favard.x``,
never a name imported from it), so the traced run's hooks see it.

A workload object is built once per run.  ``ops()`` lists the calls of one
pass; each op receives the outputs of the ops before it in the same pass.
``check(out)`` inspects the outputs of the first pass and returns the problems
found per op; later passes must reproduce those outputs exactly.
"""

from __future__ import annotations

import importlib
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from favlab import IFS, FavlabError, Similitude
from favlab import ifs as ifs_mod, projection, relclose
from favlab.errors import HullNotInvariant

# the package re-exports the function favard over its submodule's name
favard = importlib.import_module("favlab.favard")

TWO_PI = 2.0 * math.pi
F64 = 8  # bytes per float64 / int64 element


@dataclass
class Op:
    name: str
    run: Callable[[dict], object]
    intervals: int = 0  # projected cylinder intervals the call merges


def midpoints(K):
    return [(j + 0.5) * math.pi / K for j in range(K)]


def is_error(x):
    return isinstance(x, BaseException)


def sweep_problems(sweep, levels, tol=1e-9):
    """Finite lengths for every level, nonincreasing in n at every angle."""
    if is_error(sweep):
        return [f"raised {sweep!r}"]
    probs = []
    for n in levels:
        if not np.all(np.isfinite(sweep[n])):
            probs.append(f"non-finite length at n={n}")
    for a, b in zip(levels, levels[1:]):
        if np.any(sweep[b] > sweep[a] + tol):
            probs.append(f"length grows from n={a} to n={b}")
    return probs


def same_bits(a, b, levels):
    return all(a[n].tobytes() == b[n].tobytes() for n in levels)


def apply_map(f, x, y):
    """F(x, y) for one similitude, on scalars or arrays."""
    c, s = math.cos(f.theta), math.sin(f.theta)
    return (
        f.r * (c * x - f.orient * s * y) + f.tx,
        f.r * (s * x + f.orient * c * y) + f.ty,
    )


def disk_intervals(ifs, n, theta):
    """Projected intervals of the level-n images of the enclosing disk,
    computed here independently of favlab's sweep (in another word order)."""
    x = np.array([ifs.center[0]])
    y = np.array([ifs.center[1]])
    r = np.ones(1)
    for _ in range(n):
        parts = [apply_map(f, x, y) for f in ifs.maps]
        x = np.concatenate([p[0] for p in parts])
        y = np.concatenate([p[1] for p in parts])
        r = np.concatenate([f.r * r for f in ifs.maps])
    mid = x * math.cos(theta) + y * math.sin(theta)
    half = r * ifs.R0
    return mid - half, mid + half


def raster_problem(length, los, his, cells=2**20):
    """Compare a merged length with the count of touched raster cells.  Each
    merged component can overhang its cells by at most two cell widths."""
    lo, hi = float(los.min()), float(his.max())
    w = (hi - lo) / cells
    i0 = np.clip(((los - lo) / w).astype(np.int64), 0, cells - 1)
    i1 = np.clip(np.ceil((his - lo) / w).astype(np.int64), 1, cells)
    edges = np.zeros(cells + 1, dtype=np.int64)
    np.add.at(edges, i0, 1)
    np.add.at(edges, i1, -1)
    covered = int(np.count_nonzero(np.cumsum(edges[:-1]) > 0))
    order = np.argsort(los)
    reach = np.maximum.accumulate(his[order])
    components = 1 + int(np.count_nonzero(los[order][1:] > reach[:-1]))
    if not (covered * w - 2 * components * w - 1e-12 <= length <= covered * w + 1e-12):
        return f"length {length!r} outside raster bounds ({covered} cells of {w:.3g})"
    return None


def merge_bytes(n_in, n_out):
    """Bytes one sort-and-sweep merge of n_in intervals touches, computed from
    array sizes: two inputs, the sort order, two gathered copies and the
    running maximum (six 8-byte arrays), a byte mask, two outputs."""
    return 6 * F64 * n_in + n_in + 2 * F64 * n_out


# ---------------------------------------------------------------------------


class Fig1Sweep:
    """The paper's figure: fig1 lengths for levels 2..12 at 64 midpoint
    angles, once at the default worker count and once at one worker.  The
    grid is fixed, so the seed is unused."""

    LEVELS = {"full": range(2, 13), "tiny": range(2, 7)}
    K = 64
    RASTER_LEVELS = (2, 4, 6)

    def __init__(self, root, seed, size, workers):
        self.ifs = IFS.from_json(root / "configs" / "fig1.json")
        self.levels = list(self.LEVELS[size])
        self.thetas = midpoints(self.K)
        self.workers = workers
        with open(root / "favbench" / "fig1_reference.json", encoding="utf-8") as fh:
            ref = json.load(fh)["lengths"]
        self.reference = {int(n): np.array(v) for n, v in ref.items()}

    def ops(self):
        work = sum(self.ifs.m**n for n in self.levels) * len(self.thetas)

        def sweep(workers):
            return lambda out: favard.projection_sweep(
                self.ifs, self.levels, self.thetas, workers=workers
            )

        return [Op("sweep_p", sweep(self.workers), work), Op("sweep_1", sweep(1), work)]

    def check(self, out):
        probs = {}
        for name in ("sweep_p", "sweep_1"):
            sweep = out[name]
            probs[name] = p = sweep_problems(sweep, self.levels)
            if p:
                continue
            for n in self.levels:
                ref = self.reference[n]
                if np.any(np.abs(sweep[n] - ref) > 1e-12 * np.abs(ref)):
                    p.append(f"n={n} differs from the reference table")
        if not probs["sweep_p"] and not probs["sweep_1"]:
            if not same_bits(out["sweep_p"], out["sweep_1"], self.levels):
                probs["sweep_p"].append("differs from the 1-worker sweep")
            for n in self.RASTER_LEVELS:
                if n not in self.levels:
                    continue
                for theta, length in list(zip(self.thetas, out["sweep_1"][n]))[::8]:
                    prob = raster_problem(length, *disk_intervals(self.ifs, n, theta))
                    if prob:
                        probs["sweep_1"].append(f"n={n} theta={theta:.4f}: {prob}")
        return probs

    def working_set(self, workers):
        n_top = self.ifs.m ** max(self.levels)
        return {
            "endpoint_array": F64 * n_top,
            "level_arrays": 3 * F64 * n_top,  # centres (x, y) and ratios
            "merge_per_worker": merge_bytes(n_top, 0),
            "total": 3 * F64 * n_top + workers * merge_bytes(n_top, 0),
        }


# ---------------------------------------------------------------------------


def _hull_vertex_count(maps, fixes, depth=6):
    """Vertices of the convex hull of the depth-6 attractor sample that
    favlab.ifs.attractor_hull starts from, by iterating hull(U F_i(hull)).
    Computed here so that input selection never depends on the program."""
    hull = fixes
    for _ in range(depth):
        hx, hy = np.array(hull).T
        parts = [apply_map(f, hx, hy) for f in maps]
        pts = [p for px, py in parts for p in zip(px.tolist(), py.tolist())]
        hull = _monotone_chain(pts)
    return len(_monotone_chain(hull + fixes))


def _monotone_chain(points):
    pts = sorted(set(points))
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
    return lower[:-1] + upper[:-1]


def seeded_system(rng, hull_vertices):
    """A 4-map system: ratios in [0.25, 0.45], rotation angles 2*pi*frac(sqrt q)
    for non-square q (irrational), one reflecting map, fixed points near the
    corners of the unit square.  Draws are repeated until the attractor
    sample's hull has ``hull_vertices`` vertices: the hull sweep's time and
    memory grow linearly with that count, so fixing it keeps them
    seed-independent."""
    corners = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
    while True:
        reflect = rng.randrange(4)
        maps, fixes = [], []
        for i, (cx, cy) in enumerate(corners):
            r = rng.uniform(0.25, 0.45)
            q = rng.randrange(2, 10**6)
            while math.isqrt(q) ** 2 == q:
                q += 1
            theta = TWO_PI * (math.sqrt(q) % 1.0)
            orient = -1 if i == reflect else 1
            px, py = cx + rng.uniform(-0.1, 0.1), cy + rng.uniform(-0.1, 0.1)
            # translation that makes (px, py) the fixed point
            c, s = math.cos(theta), math.sin(theta)
            tx = px - r * (c * px - orient * s * py)
            ty = py - r * (s * px + orient * c * py)
            maps.append(Similitude(r=r, theta=theta, orient=orient, tx=tx, ty=ty))
            fixes.append((px, py))
        if _hull_vertex_count(maps, fixes) == hull_vertices:
            return IFS.from_maps(maps)


class GenericCover:
    """A seeded non-homogeneous system with a reflection: certified hull, hull
    and disk sweeps over levels 2..9 at 32 angles, and radial visibility for
    n = 4..10 from an outside, an on-disk and an inside centre."""

    SIZES = {
        "full": dict(levels=range(2, 10), K=32, vis=range(4, 11), check_levels=range(2, 7)),
        "tiny": dict(levels=range(2, 6), K=8, vis=range(4, 7), check_levels=range(2, 5)),
    }
    S = 1.0  # visibility exponent; at s = 1 the covering sum is an arc length
    HULL_VERTICES = 26

    def __init__(self, root, seed, size, workers):
        cfg = self.SIZES[size]
        rng = random.Random(seed)
        self.ifs = ifs = seeded_system(rng, self.HULL_VERTICES)
        self.levels = list(cfg["levels"])
        self.check_levels = list(cfg["check_levels"])
        self.thetas = midpoints(cfg["K"])
        self.vis_levels = list(cfg["vis"])
        self.workers = workers
        (cx, cy), R = ifs.center, ifs.R0
        phi_out, phi_on = rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)
        # the centre of a level-10 cylinder disk lies inside every coarser one
        x, y = cx, cy
        for s in reversed([rng.randrange(ifs.m) for _ in range(10)]):
            x, y = apply_map(ifs.maps[s], x, y)
        self.centres = {
            "outside": (cx + 2.5 * R * math.cos(phi_out), cy + 2.5 * R * math.sin(phi_out)),
            "on": (cx + R * math.cos(phi_on), cy + R * math.sin(phi_on)),
            "inside": (x, y),
        }

    def ops(self):
        ifs = self.ifs
        work = sum(ifs.m**n for n in self.levels) * len(self.thetas)

        def hull_sweep(out):
            hull = out["hull"]
            if is_error(hull):
                raise hull
            return favard.projection_sweep(
                ifs, self.levels, self.thetas, body=hull, workers=self.workers
            )

        def visibility(centre):
            return lambda out: [
                projection.visibility_estimate(ifs, centre, self.S, n) for n in self.vis_levels
            ]

        return [
            Op("hull", lambda out: ifs_mod.attractor_hull(ifs)),
            Op("hull_sweep", hull_sweep, work),
            Op(
                "disk_sweep",
                lambda out: favard.projection_sweep(
                    ifs, self.levels, self.thetas, workers=self.workers
                ),
                work,
            ),
        ] + [Op(f"vis_{name}", visibility(c)) for name, c in self.centres.items()]

    def check(self, out):
        probs = {}
        hull = out["hull"]
        # a conservative certificate may fail: a documented outcome, not an error
        hull_ok = not is_error(hull)
        if is_error(hull) and not isinstance(hull, HullNotInvariant):
            probs["hull"] = [f"raised {hull!r}"]
        elif hull_ok and not (
            len(hull.vertices) >= 2 and np.all(np.isfinite(hull.vertices))
        ):
            probs["hull"] = ["degenerate or non-finite hull"]
        for name, body in (("hull_sweep", hull if hull_ok else None), ("disk_sweep", None)):
            sweep = out[name]
            if name == "hull_sweep" and not hull_ok:
                probs[name] = [] if sweep is hull else [f"unexpected {sweep!r}"]
                continue
            probs[name] = p = sweep_problems(sweep, self.levels)
            if not p:
                one = favard.projection_sweep(
                    self.ifs, self.check_levels, self.thetas, body=body, workers=1
                )
                if not same_bits(sweep, one, self.check_levels):
                    p.append("differs from the 1-worker sweep")
        for name in self.centres:
            ests = out[f"vis_{name}"]
            probs[f"vis_{name}"] = p = []
            if is_error(ests):
                p.append(f"raised {ests!r}")
                continue
            sums = [e.covering_sum for e in ests]
            if not all(math.isfinite(v) for v in sums):
                p.append("non-finite covering sum")
            for n, a, b in zip(self.vis_levels[1:], sums, sums[1:]):
                if b > a * (1 + 1e-12) + 1e-12:
                    p.append(f"covering sum grows at n={n}")
            if name == "inside" and not all(
                e.engulfing_cylinders >= 1 and e.full_circle for e in ests
            ):
                p.append("inside centre without an engulfing cylinder")
        return probs

    def working_set(self, workers):
        n_top = self.ifs.m ** max(self.levels)
        n_vis = self.ifs.m ** max(self.vis_levels)
        verts = self.HULL_VERTICES
        # hull sweep per angle: psi, cos, sin, mid (4 arrays), the N x V
        # support products (3 temporaries) and the interval merge
        per_worker = 4 * F64 * n_top + 3 * F64 * n_top * verts + merge_bytes(n_top, 0)
        return {
            "hull_level_arrays": 5 * F64 * n_top,  # r, theta, orient, tx, ty
            "hull_sweep_per_worker": per_worker,
            "visibility_arrays": 10 * F64 * n_vis,  # centres, ratios, 7 per-arc arrays
            "total": 5 * F64 * n_top + workers * per_worker,
        }


# ---------------------------------------------------------------------------


def mass_band_size(ifs, rho):
    """Number of words s with rho * r_min < r_s <= rho, counted here from the
    ratios alone."""
    low = rho * ifs.r_min
    ratios = [f.r for f in ifs.maps]
    count, stack = 0, [1.0]
    while stack:
        r_s = stack.pop()
        for r in ratios:
            child = r_s * r
            if child > low:
                count += child <= rho
                stack.append(child)
    return count


class Certify:
    """fig1 certificates: the n=6 power family (2016 pairs), a grown family of
    32 words, density witnesses of the n=4 family at three seeded angles, and
    neighbourhood lengths at two radii at a seeded angle.

    The sizes keep a pass near 3 s on a 2-vCPU Xeon VM, so a run times a
    dozen passes or more: this scalar Python work moves with the host's speed
    more than the numpy sweeps do, and its median needs the extra passes to
    hold still."""

    SIZES = {
        "full": dict(power_n=6, grow=32, rhos=(1e-3, 3e-4), turn_scale=1.0 / 3.0),
        "tiny": dict(power_n=3, grow=4, rhos=(1e-2, 1e-3), turn_scale=1.0 / 50.0),
    }
    WITNESS_N = 4

    def __init__(self, root, seed, size, workers):
        cfg = self.SIZES[size]
        self.ifs = IFS.from_json(root / "configs" / "fig1.json")
        self.power_n = cfg["power_n"]
        self.grow = cfg["grow"]
        self.rhos = cfg["rhos"]
        rng = random.Random(seed)
        u, v = rng.random(), rng.uniform(-0.05, 0.05)
        # A witness steers by a word whose length grows linearly with the turn
        # from the family's angle to the target angle, so the turns come as an
        # antithetic pair t, 1 - t plus one near a half turn, all scaled by
        # turn_scale: their total, and with it the cost of a pass, does not
        # depend on the seed.
        t = 0.3 + 0.4 * u
        turns = (t, 1.0 - t, 0.5 + v) if size == "full" else (u,)
        self.turns = tuple(cfg["turn_scale"] * x for x in turns)
        self.nbhd_theta = rng.uniform(0.0, math.pi)
        self.band_sizes = [mass_band_size(self.ifs, rho) for rho in self.rhos]

    def ops(self):
        ifs = self.ifs
        ab = ((2,), (3,))  # non-rotating blocks of fig1

        def witness(turn):
            def run(out):
                cert = out["power_4"]
                if is_error(cert):
                    raise cert
                theta = (cert.theta + TWO_PI * turn) % TWO_PI
                return projection.density_witness(ifs, cert, theta)

            return run

        def nbhd(rho):
            return lambda out: favard.neighborhood_projection_length(ifs, rho, self.nbhd_theta)

        return (
            [
                Op("power_family", lambda out: relclose.power_family(ifs, *ab, self.power_n)),
                Op("grow_family", lambda out: relclose.grow_family(ifs, 1.0, self.grow)),
                Op("power_4", lambda out: relclose.power_family(ifs, *ab, self.WITNESS_N)),
            ]
            + [Op(f"witness_{i}", witness(t)) for i, t in enumerate(self.turns)]
            + [
                Op(f"nbhd_{rho:g}", nbhd(rho), size)
                for rho, size in zip(self.rhos, self.band_sizes)
            ]
        )

    def _family_problems(self, cert, words):
        if is_error(cert):
            return [f"raised {cert!r}"]
        probs = []
        n = len(cert.words)
        if words and n != words:
            probs.append(f"{n} words, expected {words}")
        if len(cert.slacks) != math.comb(n, 2):
            probs.append(f"{len(cert.slacks)} verified pairs, expected C({n}, 2)")
        for u, v in cert.pairs():
            rep = relclose.check_relclose(self.ifs, u, v, cert.eps, cert.theta, cert.omega(u, v))
            if not (rep.slack_i > 0 and rep.slack_ii > 0 and rep.slack_iii > 0):
                probs.append(f"pair fails the re-check: {rep}")
                break
        return probs

    def check(self, out):
        probs = {
            "power_family": self._family_problems(out["power_family"], 2**self.power_n),
            "grow_family": self._family_problems(out["grow_family"], 0),
            "power_4": self._family_problems(out["power_4"], 2**self.WITNESS_N),
        }
        if not is_error(out["grow_family"]) and len(out["grow_family"].words) < self.grow:
            probs["grow_family"].append("family smaller than requested")
        ifs = self.ifs
        bound = 0.99 * 2**self.WITNESS_N / (10.0 * ifs.D * math.e) ** ifs.gamma
        for i in range(len(self.turns)):
            wit = out[f"witness_{i}"]
            probs[f"witness_{i}"] = p = []
            if is_error(wit):
                p.append(f"raised {wit!r}")
            elif not all(math.isfinite(v) for v in (wit.x, wit.ratio, wit.log10_b)):
                p.append("non-finite witness")
            elif wit.ratio < bound:
                p.append(f"density ratio {wit.ratio} below {bound}")
        lengths = []
        for rho in self.rhos:
            name = f"nbhd_{rho:g}"
            length = out[name]
            probs[name] = p = []
            if is_error(length) or not (math.isfinite(length) and length > 0):
                p.append(f"bad length {length!r}")
            else:
                lengths.append(length)
        if len(lengths) == len(self.rhos) and any(
            b > a + 1e-12 for a, b in zip(lengths, lengths[1:])
        ):
            probs[f"nbhd_{self.rhos[-1]:g}"].append("length grows as rho falls")
        return probs

    def working_set(self, workers):
        band = max(self.band_sizes)
        return {
            "nbhd_intervals": 2 * F64 * band,
            "nbhd_merge": merge_bytes(band, 0),
            "total": 2 * F64 * band + merge_bytes(band, 0),
        }


WORKLOADS = {"fig1_sweep": Fig1Sweep, "generic_cover": GenericCover, "certify": Certify}


def certificate_pairs(output):
    """Pairs in a returned relative-closeness certificate, else 0."""
    if isinstance(output, relclose.RelCloseCertificate):
        return math.comb(len(output.words), 2)
    return 0


def unexpected(output):
    """An exception that is not one of favlab's documented errors."""
    return is_error(output) and not isinstance(output, FavlabError)
