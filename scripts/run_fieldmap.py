#!/usr/bin/env python3
"""Map the spectral density over a static-field sweep (heatmap data)."""

import argparse
import sys

from magnoncavity.cli import parse_config, run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mu0-H0-min-T", type=float, default=0.3)
    ap.add_argument("--mu0-H0-max-T", type=float, default=0.7)
    ap.add_argument("--n-H0", type=int, default=41)
    ap.add_argument("--n-omega", type=int, default=2001)
    ap.add_argument("--out", default="out/fieldmap")
    args = ap.parse_args()

    cfg = parse_config(None, overrides={
        "mu0_H0_min_T": str(args.mu0_H0_min_T),
        "mu0_H0_max_T": str(args.mu0_H0_max_T),
        "n_H0": str(args.n_H0),
        "n_omega": str(args.n_omega),
    })
    cfg.experiment = "fieldmap"
    cfg.out = args.out
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
