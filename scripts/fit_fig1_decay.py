#!/usr/bin/env python3
"""Fit the (log n)^-B decay law to a sweep CSV and print the fitted constants
next to the three reference curves."""

import argparse
import sys

from favlab import cli
from favlab.favard import (
    bound_constant,
    bound_curves,
    decay_samples,
    fit_decay,
    schedule,
)
from favlab.ifs import IFS


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--csv", default="fig1_sweep.csv")
    ap.add_argument("--ifs", default="configs/fig1.json")
    ap.add_argument("--k", type=cli.positive, default=1)
    ap.add_argument("--d", type=cli.positive_real, default=2.0)
    ap.add_argument("--delta", type=cli.positive_real, default=0.1)
    args = ap.parse_args()

    fit = fit_decay(decay_samples(cli.read_text(args.csv)))
    print(f"A_hat={fit.A_hat:.6f} B_hat={fit.B_hat:.6f} "
          f"residual={fit.residual:.3e}")

    ifs = IFS.from_json(args.ifs)
    sched = schedule(ifs, 1, 1.0, args.k, args.d, args.delta)
    print(f"schedule B={sched.B:.6f} "
          f"(reference value log2/(3.3 log3)={bound_constant(1, 2.0, 3, 0.1):.6f})")
    grid = [n for n, _ in fit.samples]
    curves = bound_curves(sched.B, sched.m, 1.0, 1.0, 1.0, grid, A=fit.A_hat)
    print("n,observed,mattila,log_star,log_power")
    for (n, obs), lo, ls, th in zip(fit.samples, curves["mattila"],
                                    curves["log_star"], curves["log_power"]):
        print(f"{n},{obs:.6f},{lo:.6f},{ls:.6f},{th:.6f}")


if __name__ == "__main__":
    sys.exit(cli.guarded(main))
