#!/usr/bin/env python3
"""Export the bending-model support points and lookup table; optionally plot.

Runs ``cathseg simulate`` into the output directory and plots what it
writes: the catheter fan (one curve per sampled tip force, from
model_curves.json) plus the force heat map over the (length, deflection)
plane (from model_table.csv).  The PNG is skipped when matplotlib is
unavailable.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from cathseg import cli
from cathseg.bezier import MAX_SAMPLES


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-curves", default=12,
                        type=cli._checked(int, lambda n: 0 <= n <= MAX_SAMPLES,
                                          f"between 0 and {MAX_SAMPLES}"))
    parser.add_argument("--out-dir", default="model_out")
    args = parser.parse_args()

    out = Path(args.out_dir)
    rc = cli.main(["simulate", "--n-curves", str(args.n_curves),
                   "--out-dir", str(out)])
    if rc != cli.EXIT_OK:
        sys.exit(rc)
    doc = json.loads((out / "model_curves.json").read_text())
    print(f"f_max = {doc['f_max']:.1f} uN; table -> {out / 'model_table.csv'}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping PNG")
        return

    # rows run over d fastest, then a: one (a, d) node per row
    a, d, force = np.loadtxt(out / "model_table.csv", delimiter=",", skiprows=1,
                             usecols=(0, 1, 2), unpack=True)
    n_d = int(np.count_nonzero(a == a[0]))
    f_grid = force.reshape(-1, n_d)

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(11, 4.5))
    curves = doc["curves"]
    for i, curve in enumerate(curves):
        pos = np.asarray(curve["support_points"])
        ax1.plot(pos[:, 0], pos[:, 1], "o-", ms=2.5, lw=1,
                 label=f"{curve['f0']:.0f} uN" if i in (0, len(curves) - 1) else None)
    ax1.set_xlabel("length along reference a [mm]")
    ax1.set_ylabel("deflection d [mm]")
    ax1.set_title("model catheters and support points")
    ax1.legend(loc="upper left", fontsize=8)
    ax1.set_aspect("equal")

    im = ax2.imshow(f_grid.T, origin="lower", aspect="auto",
                    extent=[a[0], a[-1], d[0], d[n_d - 1]], cmap="viridis")
    ax2.set_xlabel("a [mm]")
    ax2.set_ylabel("d [mm]")
    ax2.set_title("interpolated tip-force lookup")
    fig.colorbar(im, ax=ax2, label="force [uN]")
    fig.tight_layout()
    fig.savefig(out / "model_table.png", dpi=130)
    print(f"figure -> {out / 'model_table.png'}")


if __name__ == "__main__":
    main()
