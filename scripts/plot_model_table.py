#!/usr/bin/env python3
"""Export the bending-model support points and lookup table; optionally plot.

Produces the catheter fan (one curve per sampled tip force) plus the force
heat map over the (length, deflection) plane.  The PNG is skipped when
matplotlib is unavailable.
"""

import argparse
from pathlib import Path

import numpy as np

from cathseg.cli import _checked
from cathseg.spring import (SpringModelParams, build_model_table,
                            export_table_csv, simulate_forward)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-curves", default=12,
                        type=_checked(int, lambda n: n >= 0, "non-negative"))
    parser.add_argument("--out-dir", default="model_out")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params = SpringModelParams()
    table = build_model_table(params)
    export_table_csv(table, out / "model_table.csv")
    print(f"f_max = {table.f_max:.1f} uN; table -> {out / 'model_table.csv'}")

    forces = np.linspace(0.0, 0.95 * table.f_max, args.n_curves)
    curves = [simulate_forward(params, float(f)).positions for f in forces]

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping PNG")
        return

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(11, 4.5))
    for f, pos in zip(forces, curves):
        ax1.plot(pos[:, 0], pos[:, 1], "o-", ms=2.5, lw=1,
                 label=f"{f:.0f} uN" if f in (forces[0], forces[-1]) else None)
    ax1.set_xlabel("length along reference a [mm]")
    ax1.set_ylabel("deflection d [mm]")
    ax1.set_title("model catheters and support points")
    ax1.legend(loc="upper left", fontsize=8)
    ax1.set_aspect("equal")

    im = ax2.imshow(table.f_grid.T, origin="lower", aspect="auto",
                    extent=[*table.a_range, *table.d_range], cmap="viridis")
    ax2.set_xlabel("a [mm]")
    ax2.set_ylabel("d [mm]")
    ax2.set_title("interpolated tip-force lookup")
    fig.colorbar(im, ax=ax2, label="force [uN]")
    fig.tight_layout()
    fig.savefig(out / "model_table.png", dpi=130)
    print(f"figure -> {out / 'model_table.png'}")


if __name__ == "__main__":
    main()
