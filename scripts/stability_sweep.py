"""Sweep the relaxation time of the optimal-velocity law and print where the
string-stability verdicts flip, with the continuum verdict alongside.

Usage: python scripts/stability_sweep.py [--t-values 0.3 0.45 0.6] [--out DIR]
"""

import argparse
from pathlib import Path

import numpy as np

from trafficlab import TriangularDiagram, make_ovm, stability_map
from trafficlab.cli import write_stability_csv


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t-values", type=float, nargs="+",
                        default=[0.3, 0.45, 0.49, 0.51, 0.6, 0.8])
    parser.add_argument("--out", default="out_stability")
    args = parser.parse_args()

    fd = TriangularDiagram(v_f=20.0, w=5.0, k_j=0.2)
    k_grid = np.linspace(0.05, 0.19, 8)  # congested branch
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    print(f"time gap tau = {fd.time_gap:g} s; flip expected at T = tau/2")
    for T in args.t_values:
        rows = stability_map(make_ovm(T, fd), k_grid)
        n_string = sum(r.report.classic_string_stable for r in rows)
        n_cont = sum(r.report.continuum_linear_stable for r in rows)
        write_stability_csv(rows, out / f"stability_T{T:g}.csv",
                            extra={"T": [T] * len(rows)})
        print(f"T={T:5.2f}: string-stable {n_string}/{len(rows)} densities, "
              f"continuum-stable {n_cont}/{len(rows)}")


if __name__ == "__main__":
    main()
