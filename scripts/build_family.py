#!/usr/bin/env python3
"""Grow a verified relatively-close family by repeated doubling and print
the certificate with its construction provenance."""

import argparse
import json
import sys

from favlab import cli
from favlab.ifs import IFS
from favlab.relclose import SearchBudget, grow_family


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--ifs", default="configs/fig1.json")
    ap.add_argument("--eps", type=cli.positive_real, default=1.0)
    ap.add_argument("--size", type=cli.positive, default=8)
    ap.add_argument("--depth", type=cli.level, default=12)
    ap.add_argument("--out")
    args = ap.parse_args()

    ifs = IFS.from_json(args.ifs)
    fam = grow_family(ifs, args.eps, args.size,
                      SearchBudget(max_depth=args.depth))
    payload = json.dumps(fam.to_dict(), indent=2, sort_keys=True)
    cli.emit(payload + "\n", args.out)
    if args.out:
        print(f"wrote {args.out}")
    print(f"family of {len(fam.words)} words at eps={fam.eps}, "
          f"theta={fam.theta:.6f}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(cli.guarded(main))
