#!/usr/bin/env python3
"""Write a small demo phantom spec + volume for trying out the CLI."""

import argparse
import math
from pathlib import Path

from cathseg import cli
from cathseg.phantom import (BloomSpec, CatheterSpec, PhantomSpec,
                             force_for_deflection, save_phantom_spec)
from cathseg.spring import SpringModelParams


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo_spec.json")
    parser.add_argument("--noise", default=4.0,
                        type=cli._checked(float, lambda x: 0 <= x < math.inf,
                                          "a finite non-negative number"))
    args = parser.parse_args()
    if Path(args.out).is_dir() or not Path(args.out).parent.is_dir():
        parser.error(f"argument --out: {args.out} names no file in an existing directory")

    model = SpringModelParams()
    catheters = []
    for i, (defl, az, eu) in enumerate([(0.0, 0.0, -14.0), (4.0, 0.6, -7.0),
                                        (8.0, 2.1, 0.0), (11.0, 3.9, 7.0),
                                        (6.0, 5.2, 14.0)]):
        catheters.append(CatheterSpec(
            f0=force_for_deflection(model, 74.0, defl),
            insertion_depth=70.0 + 2.0 * i, deflection_azimuth=az,
            entry_point=(eu, 3.0 * (-1) ** i)))
    spec = PhantomSpec(dims=(192, 192, 104), spacing=(0.5, 0.5, 1.0),
                       catheters=catheters, noise_sigma=args.noise,
                       bloom=BloomSpec(enabled=True), rng_seed=11)
    save_phantom_spec(spec, args.out)
    print(f"wrote {Path(args.out).resolve()}")
    print("next: cathseg phantom --spec", args.out, "--out-dir demo/")


if __name__ == "__main__":
    main()
