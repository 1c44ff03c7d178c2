"""Word geometry is composed once per word: the table-driven ``IFS.compose``,
the level-at-a-time mass-band descent, the neighbourhood length read from the
band's columns and the cached anchor points of ``pi_point`` must give the bits
of the word-by-word path they replace.  That path is copied here: a left fold
of ``compose_geoms`` over per-symbol geometries, mass bands recomposed word by
word from the root, one ``CylinderGeometry.apply`` per band word and an
uncached closed-form ``pi_point``.  The closed form is also checked against
the iterated point of ``tests/oracle.py`` and a 60-digit evaluation."""

import hashlib
import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from favlab import projection, relclose
from favlab.errors import ConfigError, LevelTooLarge, SymbolOutOfRange
from favlab.ifs import (
    IDENTITY,
    IFS,
    TAIL_CACHE,
    TWO_PI,
    CylinderBatch,
    CylinderGeometry,
    Similitude,
    TailWord,
    compose_geoms,
    row_words,
)
from favlab.favard import merge_intervals, neighborhood_projection_length
from oracle import iterated_pi_point, mp_pi_point


def fig1():
    return IFS.from_json("configs/fig1.json")


def bits(g):
    """The exact value of every field, signed zeros told apart."""
    return tuple(
        x.hex() if isinstance(x, float) else x
        for x in (g.r, g.theta, g.orient, g.tx, g.ty, g.log_r)
    )


# ------------------------------------------------------ the word-by-word path


def old_geom(ifs, symbol):
    if not (1 <= symbol <= len(ifs.maps)):
        raise SymbolOutOfRange(f"symbol {symbol}")
    f = ifs.maps[symbol - 1]
    return CylinderGeometry(f.r, f.theta, f.orient, f.tx, f.ty, math.log(f.r))


def old_compose(ifs, u, g=IDENTITY):
    for s in u:
        g = compose_geoms(g, old_geom(ifs, s))
    return g


def old_mass_band(ifs, r, cap=2_000_000):
    low = r * ifs.r_min
    out = []

    def descend(word, r_s):
        if len(out) > cap:
            raise LevelTooLarge(f"mass band exceeds cap {cap}")
        if r_s <= r and word:
            out.append(tuple(word))
        for i, f in enumerate(ifs.maps, start=1):
            child = r_s * f.r
            if child > low:
                word.append(i)
                descend(word, child)
                word.pop()

    descend([], 1.0)
    return out


def old_rows(ifs, words):
    """The words as rows of symbols, each padded with zeros to the longest."""
    symbols = np.zeros((len(words), max(map(len, words))), dtype=np.min_scalar_type(ifs.m))
    for k, w in enumerate(words):
        symbols[k, :len(w)] = w
    return symbols


def old_band(ifs, r, cap=2_000_000):
    if not (0.0 < r < 1.0):
        raise ConfigError(f"band level {r} outside (0,1)")
    words = old_mass_band(ifs, r, cap)
    return CylinderBatch.of([old_compose(ifs, w) for w in words]), old_rows(ifs, words)


def old_pi_point(ifs, u, anchor, g=IDENTITY):
    q = old_compose(ifs, anchor.prefix).apply(old_compose(ifs, anchor.period).fixed_point())
    return old_compose(ifs, u, g).apply(q)


@pytest.fixture
def word_by_word(monkeypatch):
    """Route IFS.compose, IFS.band and IFS.pi_point through the copies above."""
    monkeypatch.setattr(IFS, "compose", lambda self, u, g=IDENTITY: old_compose(self, u, g))
    monkeypatch.setattr(IFS, "band", lambda self, r, cap=2_000_000: old_band(self, r, cap))
    monkeypatch.setattr(IFS, "pi_point", lambda self, g_u, anchor: old_pi_point(self, (), anchor, g_u))


def mixed_system(seed, reflect=True):
    """A seeded system of 3 maps with unequal ratios, one of them reflecting."""
    rng = random.Random(seed)
    return IFS.from_maps([
        Similitude(
            r=rng.uniform(0.2, 0.45),
            theta=rng.uniform(0.0, 2 * math.pi),
            orient=-1 if reflect and i == 1 else 1,
            tx=rng.uniform(-1.0, 1.0),
            ty=rng.uniform(-1.0, 1.0),
        )
        for i in range(3)
    ])


def spread_system():
    """Ratios from 0.05 to 0.7, one homothety and one reflection: words of
    one band spread over many lengths."""
    return IFS.from_maps([
        Similitude(r=0.05, theta=0.0, orient=1, tx=0.9, ty=-0.2),
        Similitude(r=0.35, theta=2.1, orient=-1, tx=-0.4, ty=0.6),
        Similitude(r=0.7, theta=0.5, orient=1, tx=0.1, ty=0.3),
    ])


def old_neighborhood_length(ifs, rho, theta, band):
    """neighborhood_projection_length with one CylinderGeometry.apply per
    geometry of ``band``, the list of the rho-band's geometries."""
    los, his = [], []
    for g in band:
        cx, cy = g.apply(ifs.center)
        p = cx * math.cos(theta) + cy * math.sin(theta)
        h = g.r * ifs.R0
        los.append(p - h - rho)
        his.append(p + h + rho)
    return merge_intervals(np.array(los), np.array(his)).total_length


# ------------------------------------------------------------------ compose


similitudes = st.builds(
    Similitude,
    r=st.floats(0.05, 0.95),
    theta=st.floats(-10.0, 10.0),
    orient=st.sampled_from([1, -1]),
    tx=st.floats(-3.0, 3.0),
    ty=st.floats(-3.0, 3.0),
)

starts = st.builds(
    CylinderGeometry,
    r=st.floats(1e-3, 1.0),
    theta=st.floats(0.0, 2 * math.pi, exclude_max=True),
    orient=st.sampled_from([1, -1]),
    tx=st.floats(-3.0, 3.0),
    ty=st.floats(-3.0, 3.0),
    log_r=st.floats(-30.0, 0.0),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(similitudes, min_size=1, max_size=5), st.data())
def test_compose_is_the_left_fold(maps, data):
    ifs = IFS.from_maps(maps)
    u = tuple(data.draw(st.lists(st.integers(1, len(maps)), max_size=60)))
    assert bits(ifs.compose(u)) == bits(old_compose(ifs, u))
    g = data.draw(starts)
    assert bits(ifs.compose(u, g)) == bits(old_compose(ifs, u, g))
    # composing in two pieces is the same fold
    k = data.draw(st.integers(0, len(u)))
    assert bits(ifs.compose(u[k:], ifs.compose(u[:k], g))) == bits(ifs.compose(u, g))


def test_compose_signed_zero_angles():
    # theta -0.0 survives norm_angle; the fold's sine keeps its sign
    maps = [Similitude(0.5, -0.0, -1, -0.0, 0.25), Similitude(0.3, 0.0, -1, 0.5, -0.0)]
    ifs = IFS.from_maps(maps)
    start = CylinderGeometry(0.5, -0.0, 1, -0.0, 0.0, math.log(0.5))
    for u in [(1,), (2,), (1, 2), (2, 1, 1), (1, 1, 2, 2, 1)]:
        assert bits(ifs.compose(u)) == bits(old_compose(ifs, u))
        assert bits(ifs.compose(u, start)) == bits(old_compose(ifs, u, start))


def test_compose_long_fig1_words():
    ifs = fig1()
    rng = random.Random(4)
    for n in (1, 100, 5000):
        u = tuple(rng.randint(1, 3) for _ in range(n))
        assert bits(ifs.compose(u)) == bits(old_compose(ifs, u))


@pytest.mark.parametrize("word", [(0,), (4,), (-1,), (1, 2, 7, 3), (3,) * 10 + (0,)])
def test_compose_symbol_out_of_range(word):
    ifs = fig1()
    with pytest.raises(SymbolOutOfRange):
        ifs.compose(word)
    with pytest.raises(SymbolOutOfRange):
        ifs.compose(word, ifs.compose((1, 2)))


# ------------------------------------------------------------- band geometry


@pytest.mark.parametrize(
    "ifs, levels",
    [
        (fig1(), (0.5, 1 / 3, 1e-2, 1e-3, 3e-4)),
        (mixed_system(1), (0.3, 1e-2, 1e-3)),
        (mixed_system(2), (0.1, 2e-3)),
        (mixed_system(5, reflect=False), (0.05, 1e-3)),
        (spread_system(), (0.3, 1e-2, 5e-3)),
    ],
)
def test_band_geometry_is_compose(ifs, levels):
    for r in levels:
        band, symbols = ifs.band(r)
        words = row_words(symbols)
        assert words == old_mass_band(ifs, r)
        assert ifs.mass_band(r) == words
        assert len(band) == len(symbols) == len(words) > 0
        assert symbols.tobytes() == old_rows(ifs, words).tobytes()
        for k, w in enumerate(words):
            assert bits(band[k]) == bits(ifs.compose(w)) == bits(old_compose(ifs, w))


# sha256 of each band's symbol rows and of its six geometry columns, as
# formed when a band carried its words as tuples
BAND_SHA256 = {
    ("fig1", 1e-3): ("1deddaf4ff7974e35cb009de1d80cb980ce7db79b290b1096d993574d5b0c567",
                     "8c278aa56aa2d95a045c49acc615b20746b76d0c4e5d8325b05a38d88357f943"),
    ("fig1", 1e-5): ("f276a7593cd84beaccb65f5b17974b69c9b54cc8226339070122762fda331941",
                     "f946affb0ef5463ef54b95a30f07647e9bf5245b040e9b1d12d61c58a18343d3"),
    ("mixed1", 1e-2): ("b415e2de142d2f1abc11c6e26b7508d31ac5fa3175bc8855ae48f8a0d0f5ee49",
                       "8549850db705a74530c20ba767efe8f2c8a329eaa7c81515d9431d1b1123197b"),
    ("mixed1", 1e-3): ("cef584fd878171a9b73d13076916476a3a81f42c9e525da602a32b6f93433825",
                       "0448d6e8e580389286e63972a54f8e3b3065683408b895e5f472bf2ac76479fe"),
    ("spread", 1e-2): ("cb1e8471a0ba197f2a814ead0c51f40283e029a26dd3cf836727a92543e9fd19",
                       "7ee747f3684dd27cdb3f80b4830871942f4e0fc1b6057e8a5a856953bb49e06b"),
    ("spread", 5e-3): ("ddc876648fd7bc2a9e746184a62c8efee5e04fff74e58199e1c46ce6af0fdf09",
                       "cbf8f19902872c3b5475acf0a542fb12e66141cfaf806690fde8bfebcb7e981d"),
}


@pytest.mark.parametrize("name, r", sorted(BAND_SHA256))
def test_band_bytes_are_pinned(name, r):
    ifs = {"fig1": fig1, "mixed1": lambda: mixed_system(1), "spread": spread_system}[name]()
    band, symbols = ifs.band(r)
    assert symbols.dtype == np.uint8
    columns = b"".join(col.tobytes() for col in band.columns())
    assert (hashlib.sha256(symbols.tobytes()).hexdigest(),
            hashlib.sha256(columns).hexdigest()) == BAND_SHA256[name, r]
    # fig1's band is one level; the others emit at several, so their rows
    # were sorted
    lengths = np.count_nonzero(symbols, axis=1)
    assert (lengths.min() == lengths.max()) == (name == "fig1")


def test_band_holds_no_word_objects():
    # fig1's band at 1e-5 is its 3^11 words of length 11: six columns of 41
    # bytes and 11 symbol bytes a word, where a tuple a word alone would
    # pass 64
    ifs = fig1()
    tracemalloc.start()
    try:
        band, symbols = ifs.band(1e-5)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(band) == len(symbols) == 3**11
    assert held <= 64 * len(band)


def test_band_cap_and_level_errors():
    ifs = fig1()
    # fig1's band at 1e-3 holds 3^7 = 2187 words
    for cap in (100, 2186):
        with pytest.raises(LevelTooLarge):
            ifs.band(1e-3, cap=cap)
    assert len(ifs.band(1e-3, cap=2187)[0]) == 2187
    for r in (0.0, 1.0, -0.5):
        with pytest.raises(ConfigError):
            ifs.band(r)


BAND_SYSTEMS = [fig1(), mixed_system(1), mixed_system(2), mixed_system(5, reflect=False),
                spread_system()]


def test_band_past_the_cap_is_refused_before_its_last_level():
    # 3^15 words, past BAND_CAP; level 14 holds 3^14 nodes, so the refusal
    # comes before any level-14 geometry is formed
    t0 = time.perf_counter()
    with pytest.raises(LevelTooLarge):
        fig1().band(1e-7)
    assert time.perf_counter() - t0 < 3.0


@pytest.mark.parametrize("ifs", BAND_SYSTEMS)
def test_neighborhood_length_is_the_word_by_word_loop(ifs):
    for rho in (0.2, 1e-2, 5e-3):
        band = [old_compose(ifs, w) for w in old_mass_band(ifs, rho)]
        for theta in (0.0, 0.9, math.pi / 2, 2.8):
            got = neighborhood_projection_length(ifs, rho, theta)
            assert got.hex() == old_neighborhood_length(ifs, rho, theta, band).hex()


@pytest.mark.parametrize("ifs", BAND_SYSTEMS)
def test_numpy_cos_sin_fmod_are_the_math_module_on_band_angles(ifs):
    """The band descent and DiskBody.interval take numpy's float64 cos, sin
    and fmod where compose takes math's; bit identity rests on their
    agreement, which a numpy upgrade could break."""
    theta = ifs.band(1e-3)[0].theta
    angles = theta.tolist()
    assert [x.hex() for x in np.cos(theta).tolist()] == [math.cos(t).hex() for t in angles]
    assert [x.hex() for x in np.sin(theta).tolist()] == [math.sin(t).hex() for t in angles]
    for f in ifs.maps:
        for o in (1, -1):
            got = np.fmod(theta + o * f.theta, TWO_PI).tolist()
            assert [x.hex() for x in got] == [
                math.fmod(t + o * f.theta, TWO_PI).hex() for t in angles
            ]


# --------------------------------------------------------------- anchor tails


ANCHORS = [
    TailWord((), (2,)),
    TailWord((), (1,)),
    TailWord((1,), (2, 3)),
    TailWord((3, 2), (1,) * 5),
    TailWord((1, 1, 2), (3, 1, 2, 2)),
]


@pytest.mark.parametrize("ifs", [fig1(), mixed_system(1)])
def test_cached_pi_point_is_uncached(ifs):
    # pi_point(compose(u, compose(s)), anchor) is the point of s + u
    words = [(), (1,), (2, 3), (3, 1, 2, 1), (1,) * 40]
    for _ in range(2):  # the second round reads the cache
        for anchor in ANCHORS:
            for s, u in itertools.product([(), (2, 1), (1,) * 30], words):
                g = ifs.compose(u, ifs.compose(s))
                x, y = ifs.pi_point(g, anchor)
                ox, oy = old_pi_point(ifs, s + u, anchor)
                assert (x.hex(), y.hex()) == (ox.hex(), oy.hex())
                # the iterated point's radius is rigorous up to its rounding
                for tol in (1e-6, 1e-12, 1e-15):
                    (ix, iy), radius = iterated_pi_point(ifs, g, anchor, tol)
                    assert abs(x - ix) <= radius + 4 * math.ulp(x)
                    assert abs(y - iy) <= radius + 4 * math.ulp(y)


def test_tail_cache_is_bounded():
    ifs = fig1()
    for i in range(TAIL_CACHE + 50):
        # distinct prefixes of one length before one period: distinct anchors
        anchor = TailWord(tuple(int(d) + 1 for d in np.base_repr(i, 3).zfill(8)), (2, 3))
        assert ifs.pi_point(ifs.compose((1,)), anchor) == old_pi_point(ifs, (1,), anchor)
    assert len(ifs._tails) == TAIL_CACHE


@pytest.mark.parametrize("ifs", [fig1(), mixed_system(1)])
def test_pi_point_is_the_exact_point_to_rounding(ifs):
    """The closed form against the coded point of the same float maps in
    60-digit arithmetic, for words of 0 to 40 symbols."""
    rng = random.Random(7)
    lengths = (0, 1, 2, 3, 5, 8, 13, 21, 30, 40)
    words = [tuple(rng.randint(1, ifs.m) for _ in range(n)) for n in lengths]
    worst = 0.0
    for anchor in ANCHORS:
        for u in words:
            x, y = ifs.pi_point(ifs.compose(u), anchor)
            z = mp_pi_point(ifs, u, anchor)
            worst = max(worst, float(abs(complex(x, y) - z)))
    assert worst <= 1e-15 * ifs.D


def test_bad_anchor_is_not_cached():
    ifs = fig1()
    for _ in range(2):
        with pytest.raises(SymbolOutOfRange):
            ifs.pi_point(ifs.compose((1,)), TailWord((), (4,)))
    assert not ifs._tails


# ------------------------------------------- one composition per word and check


@pytest.fixture
def composed(monkeypatch):
    """The (word, g) of every IFS.compose call; g is IDENTITY itself for a
    composition from the identity."""
    calls, compose = [], IFS.compose

    def counted(self, u, g=IDENTITY):
        calls.append((tuple(u), g))
        return compose(self, u, g)

    monkeypatch.setattr(IFS, "compose", counted)
    return calls


def test_check_relclose_composes_each_word_once(composed):
    ifs = fig1()
    cert = relclose.power_family(ifs, (2,), (3,), 2)
    u, v = cert.words[0], cert.words[-1]
    rep = relclose.check_relclose(ifs, u, v, cert.eps, cert.theta, cert.omega(u, v))
    composed.clear()  # the tail cache is warm
    assert relclose.check_relclose(ifs, u, v, cert.eps, cert.theta, cert.omega(u, v)) == rep
    assert [(w, g is IDENTITY) for w, g in composed] == [(u, True), (v, True)]


def test_perp_direction_composes_no_word(composed):
    ifs = fig1()
    omega = TailWord((), (2,))
    gu, gv = ifs.compose((2, 3)), ifs.compose((3, 2))
    theta = relclose._perp_direction(ifs, gu, gv, omega)  # warms the tail cache
    composed.clear()
    assert relclose._perp_direction(ifs, gu, gv, omega) == theta
    assert composed == []


def test_density_witness_composes_each_family_word_once(composed):
    ifs = fig1()
    cert = relclose.power_family(ifs, (2,), (3,), 4)
    theta = cert.theta + 1.0  # steers
    wit = projection.density_witness(ifs, cert, theta)
    composed.clear()  # the tail cache is warm
    assert projection.density_witness(ifs, cert, theta) == wit
    # u1, the first word, is composed once more, under the steering geometry
    for w in cert.words:
        assert [g is IDENTITY for u, g in composed if u == w] == (
            [True, False] if w == cert.words[0] else [True])


# ------------------------------------- whole operations against the old path


def _cert_repr(cert):
    return repr((cert.words, cert.eps, cert.theta, sorted(cert.omegas.items()),
                 sorted(cert.slacks.items()), cert.provenance))


def _outcome(fn, *args, **kwargs):
    try:
        out = fn(*args, **kwargs)
    except Exception as e:  # an error must be the same error
        return repr(e)
    return _cert_repr(out) if isinstance(out, relclose.RelCloseCertificate) else repr(out)


def _operations():
    ifs = fig1()
    power_4 = relclose.power_family(ifs, (2,), (3,), 4)
    out = {
        "power_5": _outcome(relclose.power_family, ifs, (2,), (3,), 5),
        "grow_8": _outcome(relclose.grow_family, ifs, 1.0, 8),
        "find_phi": _outcome(relclose.find_pair, ifs, 0.1, phi=lambda th: 0.0),
    }
    # steered words that never verify run the search into the band cap
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relclose, "PAIR_BAND_CAP", 2000)
        out["find_cap"] = _outcome(relclose.find_pair, ifs, 0.1, phi=lambda th: th)
    # collisions of orientation -1 take one reflecting symbol
    flipped = IFS.from_maps([ifs.maps[0]] + [
        Similitude(f.r, f.theta, -1, f.tx, f.ty) for f in ifs.maps[1:]
    ])
    out["find_flipped"] = _outcome(relclose.find_pair, flipped, 0.2)
    # ... which turns them, and then steer by a one-symbol rotation word
    slow = IFS.from_maps([
        Similitude(0.5, 0.1, 1, 0.0, 0.0),
        Similitude(0.5, 0.3, -1, 0.5, 0.0),
        Similitude(0.5, 0.3, -1, 0.0, 0.5),
    ])
    for target in (1.0, 4.0):
        out[f"find_steer_{target}"] = _outcome(relclose.find_pair, slow, 0.3,
                                               phi=lambda th: target)
    for turn in (0.01, 0.05, 0.2):
        theta = (power_4.theta + 2 * math.pi * turn) % (2 * math.pi)
        out[f"witness_{turn}"] = _outcome(projection.density_witness, ifs, power_4, theta)
    for rho in (1e-2, 1e-3, 3e-4):
        out[f"nbhd_{rho}"] = _outcome(neighborhood_projection_length, ifs, rho, 0.7)
    for seed in (1, 2):
        ifs_r = mixed_system(seed)
        out[f"find_{seed}"] = _outcome(relclose.find_pair, ifs_r, 0.3)
        out[f"find_phi_{seed}"] = _outcome(relclose.find_pair, ifs_r, 0.3, phi=lambda th: 2.0)
        out[f"nbhd_{seed}"] = _outcome(neighborhood_projection_length, ifs_r, 1e-3, 1.3)
    return out


def test_operations_match_the_word_by_word_path(request):
    new = _operations()
    request.getfixturevalue("word_by_word")
    old = _operations()
    assert new.keys() == old.keys()
    for key in new:
        assert new[key] == old[key], key
