import itertools
import json
import math

import mpmath
import pytest

from favlab import relclose, rotation
from favlab.errors import ConfigError, NoNetWithinBound, PreconditionViolated, VerificationFailed
from favlab.ifs import IFS, Similitude, TailWord, norm_angle
from favlab.relclose import (
    RelCloseCertificate,
    SearchBudget,
    check_relclose,
    double_family,
    find_pair,
    grow_family,
    power_family,
)
from oracle import iterated_pi_point, mp_pi_point


@pytest.fixture(scope="module")
def ifs():
    return IFS.from_json("configs/fig1.json")


def _check_oracle(ifs, u, v, eps, theta, omega):
    """[DERIVED] oracle: re-derive the three closeness conditions from
    first principles, independently of check_relclose."""
    gu, gv = ifs.compose(u), ifs.compose(v)
    ratio = gu.r / gv.r
    ok_i = math.exp(-eps) < ratio < math.exp(eps)
    d = abs(norm_angle(gu.theta - gv.theta))
    ok_ii = min(d, 2 * math.pi - d) < eps and gu.orient == gv.orient
    (xu, yu), eu = iterated_pi_point(ifs, gu, omega, 1e-14)
    (xv, yv), ev = iterated_pi_point(ifs, gv, omega, 1e-14)
    proj = abs(
        (xu - xv) * math.cos(theta) + (yu - yv) * math.sin(theta)
    )
    thr = eps * ifs.D * min(gu.r, gv.r)
    ok_iii = proj + eu + ev < thr
    return ok_i and ok_ii and ok_iii


def test_check_relclose_zero_angle_pair(ifs):
    # [TRIVIAL] words 2 and 3 are translates: equal ratio, equal angle
    omega = TailWord((), (1,))
    rep = check_relclose(ifs, (2,), (3,), 1e-3, theta=_perp(ifs, omega),
                         omega=omega)
    assert rep.passed
    assert rep.slack_i == pytest.approx(1e-3)
    assert rep.slack_ii == pytest.approx(1e-3)


def _perp(ifs, omega):
    xu, yu = ifs.pi_point(ifs.compose((2,)), omega)
    xv, yv = ifs.pi_point(ifs.compose((3,)), omega)
    return norm_angle(math.atan2(yv - yu, xv - xu) + math.pi / 2)


def test_check_relclose_at_eps_near_rounding(ifs):
    """At eps = 1e-14 the threshold eps*D*r_u is about 30 ulps of the
    coordinates; the closed-form points decide it, as 60-digit points do."""
    omega, eps = TailWord((), (1,)), 1e-14
    theta = _perp(ifs, omega)
    rep = check_relclose(ifs, (2,), (3,), eps, theta, omega)
    with mpmath.workdps(60):
        pu, pv = (mp_pi_point(ifs, w, omega) for w in ((2,), (3,)))
        offset = abs(((pu - pv) * mpmath.expj(-mpmath.mpf(theta))).real)
        thresh = mpmath.mpf(eps) * ifs.D * mpmath.exp(ifs.compose((2,)).log_r)
        assert rep.passed
        assert rep.passed == (offset < thresh)


def test_check_relclose_fails_orthogonal(ifs):
    omega = TailWord((), (1,))
    theta = norm_angle(_perp(ifs, omega) + math.pi / 2)
    rep = check_relclose(ifs, (2,), (3,), 1e-3, theta=theta, omega=omega)
    assert not rep.passed
    assert rep.slack_iii < 0


def test_find_pair_certificate(ifs):
    cert = find_pair(ifs, 0.5)
    assert len(cert.words) == 2
    u, v = cert.words
    omega = cert.omega(u, v)
    assert _check_oracle(ifs, u, v, cert.eps, cert.theta, omega)
    assert cert.provenance["op"] == "find_pair"


def test_find_pair_small_eps(ifs):
    cert = find_pair(ifs, 0.05)
    u, v = cert.words
    assert _check_oracle(ifs, u, v, 0.05, cert.theta, cert.omega(u, v))


def test_certificate_roundtrip(ifs):
    cert = find_pair(ifs, 0.5)
    blob = json.dumps(cert.to_dict(), sort_keys=True)
    back = RelCloseCertificate.from_dict(json.loads(blob))
    assert back.words == cert.words
    assert back.eps == cert.eps
    assert back.theta == cert.theta
    for pair in cert.pairs():
        assert back.omega(*pair) == cert.omega(*pair)


def test_double_family_verified(ifs):
    seed = find_pair(ifs, 0.9 * 2.0 / 6.0)
    fam = double_family(ifs, seed, 2.0)
    assert len(fam.words) == 4
    for u, v in fam.pairs():
        assert _check_oracle(ifs, u, v, fam.eps, fam.theta, fam.omega(u, v))
    prov = fam.provenance
    assert prov["eps1"] < fam.eps / 6.0
    assert prov["eps2"] <= prov["eps2_bound_linear"]
    assert prov["eps2"] <= prov["eps2_bound_matrix"]


def test_double_family_precondition(ifs):
    seed = find_pair(ifs, 0.5)
    with pytest.raises(PreconditionViolated):
        double_family(ifs, seed, 1.0)  # 0.5 is not < 1/6


def test_grow_family(ifs):
    fam = grow_family(ifs, 1.0, 8, SearchBudget(max_depth=12))
    assert len(fam.words) >= 8
    assert len(fam.words) == len(set(fam.words))
    for u, v in fam.pairs():
        assert _check_oracle(ifs, u, v, fam.eps, fam.theta, fam.omega(u, v))


def test_power_family_small(ifs):
    cert = power_family(ifs, (2,), (3,), 2)
    assert sorted(cert.words) == sorted(
        a + b for a, b in itertools.product([(2,), (3,)], repeat=2)
    )
    assert len(list(cert.pairs())) == 6
    omega_vals = {cert.omega(*p) for p in cert.pairs()}
    assert omega_vals == {TailWord((), (2,))}
    for u, v in cert.pairs():
        assert _check_oracle(ifs, u, v, cert.eps, cert.theta, cert.omega(u, v))


def test_power_family_rejects_rotating_word(ifs):
    with pytest.raises(PreconditionViolated):
        power_family(ifs, (1,), (3,), 2)


def _power_cert_dict(ifs):
    return power_family(ifs, (2,), (3,), 2).to_dict()


def test_certificate_round_trip(ifs):
    data = _power_cert_dict(ifs)
    cert = RelCloseCertificate.from_dict(json.loads(json.dumps(data)))
    assert cert.to_dict() == dict(data, slacks=[])


@pytest.mark.parametrize(
    "corrupt, detail",
    [
        (lambda d: d.pop("omegas"), "missing 'omegas'"),
        (lambda d: d.pop("words"), "missing 'words'"),
        (lambda d: d.pop("eps"), "missing 'eps'"),
        (lambda d: d.pop("theta"), "missing 'theta'"),
        (lambda d: d.update(words="2222"), "'words' has the wrong type"),
        (lambda d: d.update(words=[2, 3]), "words[0] has the wrong type"),
        (lambda d: d.update(words=[]), "'words' is empty"),
        (lambda d: d["words"].append(d["words"][0]), "'words' repeats a word"),
        (lambda d: d.update(eps="1e-6"), "'eps' has the wrong type"),
        (lambda d: d.update(eps=True), "'eps' has the wrong type"),
        (lambda d: d.update(theta=None), "'theta' has the wrong type"),
        (lambda d: d.update(theta=1e400), "'theta' must be finite"),
        (lambda d: d.update(eps=10**400), "'eps' must be finite"),
        (lambda d: d.update(omegas={}), "'omegas' has the wrong type"),
        (lambda d: d["omegas"].append([]), "omegas[6] has the wrong type"),
        (lambda d: d["omegas"][0].pop("pair"), "omegas[0]: missing 'pair'"),
        (lambda d: d["omegas"][0].pop("period"), "omegas[0]: missing 'period'"),
        (lambda d: d["omegas"][0].pop("prefix"), "omegas[0]: missing 'prefix'"),
        (lambda d: d["omegas"][0].update(pair=["22"]), "two word strings"),
        (lambda d: d["omegas"][0].update(pair=[22, 23]), "two word strings"),
        (lambda d: d["omegas"][0].update(period=2), "'period' has the wrong type"),
        (lambda d: d["omegas"].pop(), "no omega for pair"),
        (lambda d: d.update(provenance=[]), "'provenance' must be an object"),
    ],
)
def test_certificate_schema(ifs, corrupt, detail):
    data = _power_cert_dict(ifs)
    corrupt(data)
    with pytest.raises(ConfigError) as info:
        RelCloseCertificate.from_dict(data)
    assert detail in str(info.value)


@pytest.mark.parametrize("data", [None, [], "cert", 3])
def test_certificate_not_an_object(data):
    with pytest.raises(ConfigError):
        RelCloseCertificate.from_dict(data)


def steered_system():
    return IFS.from_maps([
        Similitude(0.5, 0.1, 1, 0.0, 0.0),
        Similitude(0.5, 0.3, -1, 0.5, 0.0),
        Similitude(0.5, 0.3, -1, 0.0, 0.5),
    ])


@pytest.mark.parametrize("target, steps", [(1.0, 7), (4.0, 37)])
def test_find_pair_steers_from_the_fixed_orientation(target, steps):
    # the collision (2,), (3,) has orientation -1; appending the reflecting
    # symbol 2 turns both words by -0.3 to angle 0, and steering by a = (1,)
    # then counts from 0 (words pinned from the root-recomposing search)
    cert = find_pair(steered_system(), 0.3, phi=lambda th: target)
    assert cert.words == ((2, 2) + (1,) * steps, (3, 2) + (1,) * steps)


def test_find_pair_takes_an_unsteered_hit_without_the_net(monkeypatch):
    # no 0.15-net of a's orbit fits in 5 points, but the pair (2, 2), (3, 2)
    # already sits at angle 0, so it needs no copy of a
    monkeypatch.setattr(rotation, "NET_P_MAX", 5)
    cert = find_pair(steered_system(), 0.3, phi=lambda th: 0.0)
    assert cert.words == ((2, 2), (3, 2))


def test_find_pair_that_must_steer_still_needs_the_net(monkeypatch):
    monkeypatch.setattr(rotation, "NET_P_MAX", 5)
    with pytest.raises(NoNetWithinBound) as e:
        find_pair(steered_system(), 0.3, phi=lambda th: 4.0)
    assert str(e.value) == "no-net: no eps-net with p <= 5 for theta1=0.1, eps=0.15"


def test_grow_family_of_64_words(ifs):
    # each inner pair lands on its angle unsteered; the net of its last
    # rotation word would need more than NET_P_MAX points
    fam = grow_family(ifs, 1.0, 64)
    assert len(set(fam.words)) == 64
    for u, v in fam.pairs():
        assert check_relclose(ifs, u, v, fam.eps, fam.theta, fam.omega(u, v)).passed
