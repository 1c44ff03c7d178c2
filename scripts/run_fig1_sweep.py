#!/usr/bin/env python3
"""Full projection-length sweep of the three-map rotation set: levels 2..12,
64 angles, CSV per (n, theta) plus one summary row per level."""

import argparse
import math
import sys

from favlab import cli
from favlab.favard import projection_sweep
from favlab.ifs import IFS


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--ifs", default="configs/fig1.json")
    ap.add_argument("--n-max", type=cli.level, default=12)
    ap.add_argument("--angles", type=cli.positive, default=64)
    ap.add_argument("--out", default="fig1_sweep.csv")
    args = ap.parse_args()

    ifs = IFS.from_json(args.ifs)
    K = args.angles
    thetas = [(j + 0.5) * math.pi / K for j in range(K)]
    levels = list(range(2, args.n_max + 1))
    sweep = projection_sweep(ifs, levels, thetas)

    lines = ["n,theta,length"]
    for n in levels:
        for theta, length in zip(thetas, sweep[n].tolist()):
            lines.append(f"{n},{theta!r},{length!r}")
        fav = float(sweep[n].mean()) * math.pi
        lines.append(f"{n},{fav!r},{float(sweep[n].max())!r}")
    cli.emit("\n".join(lines) + "\n", args.out)
    print(f"wrote {args.out}: {len(levels)} levels x {K} angles")
    for n in levels:
        print(f"n={n:2d} favard={float(sweep[n].mean()) * math.pi:.6f} "
              f"max={float(sweep[n].max()):.6f}")


if __name__ == "__main__":
    sys.exit(cli.guarded(main))
