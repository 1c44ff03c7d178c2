"""Command line interface: config ingestion, subcommand dispatch, CSV/SVG
emission.  Exit codes: 0 success, 2 usage/config error, 1 domain error with a
one-line ``ERROR <code>: <detail>`` message.  Every numeric flag passes an
argparse type that checks it is finite and inside its domain; a result beyond
the float range is a domain error, ``ERROR overflow``."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

from . import __version__
from .errors import ConfigError, FavlabError, Indeterminate, NumericOverflow, RationalAlpha
from .exprs import parse_expr
from .ifs import IFS, attractor_hull, parse_word, read_json, read_text
from .favard import (
    bound_constant,
    bound_curves,
    decay_samples,
    default_workers,
    favard,
    fit_decay,
    schedule as make_schedule,
)
from .projection import density_profile, density_witness, visibility_estimate
from .relclose import (RelCloseCertificate, SearchBudget, _verify_all, double_family,
                       find_pair, power_family)
from .rotation import diophantine_profile, epsilon_net
from .counting import avoidance_count, h2_length_bound, removal_recursion
from .svg import render_svg


def _config(args):
    """The resolved flags as sorted JSON, echoed to stderr and hashed into
    CSV headers."""
    return json.dumps(
        {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        default=str,
        sort_keys=True,
    )


def _csv_header(args):
    digest = hashlib.sha256(_config(args).encode()).hexdigest()[:12]
    return f"# favlab {__version__} config={digest} seed={args.seed}\n"


def emit(text, path=None):
    """Write text to the file at path, or to stdout without one."""
    if path:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as e:
            raise ConfigError(f"cannot write {path}: {e.strerror or e}")
    else:
        sys.stdout.write(text)


def _load_cert(path, ifs):
    """The certificate at path, with every pair verified on ifs."""
    return _verify_all(ifs, RelCloseCertificate.from_dict(read_json(path)))


def cmd_dim(args):
    ifs = IFS.from_json(args.ifs)
    print(f"gamma {ifs.gamma}")
    return 0


def cmd_render(args):
    ifs = IFS.from_json(args.ifs)
    theta = parse_expr(args.theta).value if args.theta else None
    emit(render_svg(ifs, args.depth, theta=theta), args.svg)
    return 0


def cmd_favard(args):
    ifs = IFS.from_json(args.ifs)
    body = attractor_hull(ifs) if args.hull else None
    res = favard(ifs, args.n, args.angles, body=body)
    rows = [_csv_header(args), "n,theta,length\n"]
    for theta, length in zip(res.thetas.tolist(), res.lengths.tolist()):
        rows.append(f"{args.n},{theta!r},{length!r}\n")
    rows.append(f"{args.n},{res.value!r},{res.max_over_theta!r}\n")
    emit("".join(rows), args.csv)
    if args.csv:
        print(f"favard {res.value} max_over_theta {res.max_over_theta}")
    return 0


def cmd_decay_fit(args):
    fit = fit_decay(decay_samples(read_text(args.csv)))
    curves = bound_curves(
        bound_constant(args.k, args.d, args.m, args.delta), args.m,
        args.c_low, args.C_ls, args.a_ls, [n for n, _ in fit.samples], A=fit.A_hat,
    )
    print(f"A_hat {fit.A_hat} B_hat {fit.B_hat} residual {fit.residual}")
    print("n,observed,mattila,log_star,log_power")
    for (n, obs), lo, ls, th in zip(
        fit.samples, curves["mattila"], curves["log_star"], curves["log_power"]
    ):
        print(f"{n},{obs!r},{lo!r},{ls!r},{th!r}")
    return 0


def _write_cert(args, cert):
    payload = json.dumps(cert.to_dict(), indent=2, sort_keys=True) + "\n"
    emit(payload, args.out)
    if args.out:
        print(f"certificate {len(cert.words)} words eps {cert.eps} theta {cert.theta}")
    return 0


def cmd_relclose_find(args):
    ifs = IFS.from_json(args.ifs)
    phi = None
    if args.phi is not None:
        phi_val = parse_expr(args.phi).value
        phi = lambda _theta: phi_val  # noqa: E731
    cert = find_pair(ifs, args.eps, phi, SearchBudget(max_depth=args.depth))
    return _write_cert(args, cert)


def cmd_relclose_double(args):
    ifs = IFS.from_json(args.ifs)
    cert = _load_cert(args.cert, ifs)
    out = double_family(ifs, cert, args.eps, SearchBudget(max_depth=args.depth))
    return _write_cert(args, out)


def cmd_relclose_power(args):
    ifs = IFS.from_json(args.ifs)
    cert = power_family(ifs, parse_word(args.u), parse_word(args.v), args.n, eps=args.eps)
    return _write_cert(args, cert)


def cmd_density(args):
    ifs = IFS.from_json(args.ifs)
    theta = parse_expr(args.theta).value
    cert = _load_cert(args.cert, ifs)
    wit = density_witness(ifs, cert, theta)
    rows = [_csv_header(args), "r,ratio\n"]
    if wit.b > 0.0:
        radii = [wit.b * 2.0**-j for j in range(4)]
        try:
            ratios = density_profile(ifs, theta, wit.x, radii, args.n)
            for r, q in zip(radii, ratios):
                rows.append(f"{r!r},{q!r}\n")
        except FavlabError as e:
            print(f"WARNING density profile not written: {e}", file=sys.stderr)
    else:
        print(f"WARNING density profile not written: radius b underflows to 0.0 at log10_b {wit.log10_b}",
              file=sys.stderr)
    emit("".join(rows), args.csv)
    b = f" b {wit.b}" if wit.b > 0.0 else ""
    print(
        f"x {wit.x}{b} log10_b {wit.log10_b} ratio {wit.ratio} "
        f"steering_len {wit.steering_word_len}"
    )
    return 0


def cmd_visible(args):
    ifs = IFS.from_json(args.ifs)
    rows = [_csv_header(args), "n,covering_sum\n"]
    for n in range(1, args.n + 1):
        est = visibility_estimate(ifs, (args.ax, args.ay), args.s, n)
        rows.append(f"{n},{est.covering_sum!r}\n")
    emit("".join(rows), args.csv)
    return 0


def cmd_dioph(args):
    alpha = parse_expr(args.alpha)
    exhausted = Indeterminate(f"precision exhausted: the expansion of the 40-digit value of "
                              f"{args.alpha!r} ends or parts from an 80-digit one within nmax")
    try:
        prof = diophantine_profile(alpha.as_fraction(), args.nmax, args.d)
        if alpha.exact is None:
            # the 40-digit value has the irrational's convergents only as far
            # as an 80-digit evaluation has the same ones
            fine = diophantine_profile(parse_expr(args.alpha, dps=80).as_fraction(),
                                       args.nmax, args.d)
            if [t[:2] for t in fine.convergents] != [t[:2] for t in prof.convergents]:
                raise exhausted
            prof = fine
    except RationalAlpha:
        if alpha.exact is None:  # the expansion of the truncation ended
            raise exhausted from None
        raise
    print(f"c_hat {prof.c_hat} d_hat {prof.d_hat}")
    print("N,M,residual")
    for n, m, res in prof.convergents:
        print(f"{n},{m},{res!r}")
    return 0


def cmd_net(args):
    theta1 = parse_expr(args.theta_over_pi).value * math.pi
    if not math.isfinite(theta1):
        raise ConfigError("theta-over-pi * pi overflows")
    net = epsilon_net(theta1, args.eps, args.pmax, d=args.d)
    print(f"p {net.p} max_gap {net.max_gap} c1_hat {net.c1_hat}")
    return 0


def cmd_count_avoid(args):
    h2 = h2_length_bound(args.m, args.s, args.blocks, 1.0 / args.m)
    exact, bound = avoidance_count(args.m, args.s, args.blocks)
    print(f"exact {exact} bound {bound}")
    print(
        f"h2 {h2['value']} e_bound {h2['e_bound']} "
        f"applicable {h2['e_bound_applicable']}"
    )
    return 0


def cmd_count_removal(args):
    ifs = IFS.from_json(args.ifs)
    phi = parse_expr(args.phi).value
    trace = removal_recursion(ifs, parse_word(args.target), phi, args.eps, args.steps)
    print(f"c {trace.c} n0 {trace.n0} survivors {trace.survivors}")
    print("step,mass")
    for i, mass in enumerate(trace.masses):
        print(f"{i},{mass!r}")
    return 0


def cmd_schedule(args):
    ifs = IFS.from_json(args.ifs)
    sched = make_schedule(ifs, args.n, args.c1, args.k, args.d, args.delta)
    print(
        f"s_n {sched.s_n} log_L_n {sched.log_L_n} "
        f"log_neg_log_rho {sched.log_neg_log_rho} B {sched.B} "
        f"inequality_holds {sched.inequality_holds}"
    )
    return 0


def _int_at_least(text, low):
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def level(text):
    """argparse type for a level or depth: an integer >= 0."""
    return _int_at_least(text, 0)


def positive(text):
    """argparse type for a number of angles or points: an integer >= 1."""
    return _int_at_least(text, 1)


def at_least_two(text):
    """argparse type for a number of maps or a denominator bound: an
    integer >= 2."""
    return _int_at_least(text, 2)


def finite(text):
    """argparse type for a coordinate or exponent: a finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def positive_real(text):
    """argparse type for a tolerance or a schedule constant: a finite float
    > 0."""
    value = finite(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def build_parser():
    p = argparse.ArgumentParser(prog="favlab")
    p.add_argument("--seed", type=int, default=0)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, group=sub):
        sp = group.add_parser(name)
        sp.set_defaults(func=fn)
        return sp

    def commands(name):
        return sub.add_parser(name).add_subparsers(dest="subcommand", required=True)

    sp = add("dim", cmd_dim)
    sp.add_argument("--ifs", required=True)

    sp = add("render", cmd_render)
    sp.add_argument("--ifs", required=True)
    sp.add_argument("--depth", type=level, required=True)
    sp.add_argument("--svg")
    sp.add_argument("--theta")

    sp = add("favard", cmd_favard)
    sp.add_argument("--ifs", required=True)
    sp.add_argument("--n", type=level, required=True)
    sp.add_argument("--angles", type=positive, required=True)
    sp.add_argument("--hull", action="store_true")
    sp.add_argument("--csv")

    sp = add("fit", cmd_decay_fit, commands("decay"))
    sp.add_argument("--csv", required=True)
    sp.add_argument("--k", type=positive, default=1)
    sp.add_argument("--d", type=positive_real, default=2.0)
    sp.add_argument("--delta", type=positive_real, default=0.1)
    sp.add_argument("--m", type=at_least_two, default=3)
    sp.add_argument("--c-low", type=finite, default=1.0)
    sp.add_argument("--C-ls", dest="C_ls", type=finite, default=1.0)
    sp.add_argument("--a-ls", dest="a_ls", type=finite, default=1.0)

    rel = commands("relclose")
    sp = add("find", cmd_relclose_find, rel)
    sp.add_argument("--ifs", required=True)
    sp.add_argument("--eps", type=positive_real, required=True)
    sp.add_argument("--phi")
    sp.add_argument("--depth", type=level, default=12)
    sp.add_argument("--out")
    sp = add("double", cmd_relclose_double, rel)
    sp.add_argument("--ifs", required=True)
    sp.add_argument("--cert", required=True)
    sp.add_argument("--eps", type=positive_real, required=True)
    sp.add_argument("--depth", type=level, default=12)
    sp.add_argument("--out")
    sp = add("power", cmd_relclose_power, rel)
    sp.add_argument("--ifs", required=True)
    sp.add_argument("--u", required=True)
    sp.add_argument("--v", required=True)
    sp.add_argument("--n", type=level, required=True)
    sp.add_argument("--eps", type=positive_real, default=1e-6)
    sp.add_argument("--out")

    sp = add("density", cmd_density)
    sp.add_argument("--ifs", required=True)
    sp.add_argument("--theta", required=True)
    sp.add_argument("--n", type=level, required=True)
    sp.add_argument("--cert", required=True)
    sp.add_argument("--csv")

    sp = add("visible", cmd_visible)
    sp.add_argument("--ifs", required=True)
    sp.add_argument("--ax", type=finite, required=True)
    sp.add_argument("--ay", type=finite, required=True)
    sp.add_argument("--s", type=finite, required=True)
    sp.add_argument("--n", type=level, required=True)
    sp.add_argument("--csv")

    sp = add("dioph", cmd_dioph)
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--nmax", type=at_least_two, required=True)
    sp.add_argument("--d", type=finite, required=True)

    sp = add("net", cmd_net)
    sp.add_argument("--theta-over-pi", dest="theta_over_pi", required=True)
    sp.add_argument("--eps", type=positive_real, required=True)
    sp.add_argument("--pmax", type=positive, default=1_000_000)
    sp.add_argument("--d", type=finite, default=2.0)

    count = commands("count")
    sp = add("avoid", cmd_count_avoid, count)
    sp.add_argument("--m", type=at_least_two, required=True)
    sp.add_argument("--s", type=positive, required=True)
    sp.add_argument("--blocks", type=positive, required=True)
    sp = add("removal", cmd_count_removal, count)
    sp.add_argument("--ifs", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--steps", type=level, required=True)
    sp.add_argument("--phi", default="0")
    sp.add_argument("--eps", type=positive_real, default=2.0)

    sp = add("schedule", cmd_schedule)
    sp.add_argument("--ifs", required=True)
    sp.add_argument("--n", type=positive, required=True)
    sp.add_argument("--c1", type=positive_real, default=1.0)
    sp.add_argument("--k", type=positive, default=1)
    sp.add_argument("--d", type=positive_real, default=2.0)
    sp.add_argument("--delta", type=positive_real, default=0.1)

    return p


def guarded(fn, *args):
    """The exit code of ``fn(*args)``, a command or a script's main: 2 for a
    config error, 1 for a domain error or overflow, after its ERROR line.  A
    bad FAVLAB_THREADS is a config error of every command, sweep or not."""
    try:
        default_workers()
        return fn(*args)
    except FavlabError as e:
        print(f"ERROR {e}", file=sys.stderr)
        return 2 if isinstance(e, ConfigError) else 1
    except OverflowError as e:  # float arithmetic beyond the float range
        print(f"ERROR {NumericOverflow(f'a result exceeds the float range ({e})')}",
              file=sys.stderr)
        return 1


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    print("config: " + _config(args), file=sys.stderr)
    return guarded(args.func, args)


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
