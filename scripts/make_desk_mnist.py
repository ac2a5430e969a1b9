#!/usr/bin/env python3
"""Write the desk-scale digit dataset as an IDX file pair.

The files are a drop-in stand-in for MNIST at desk scale (28x28 u8 images,
10 balanced classes); point the gradbound CLI at them with
--data-images/--data-labels.  The digits are generated procedurally (jittered
stroke glyphs plus pixel noise) with numpy alone, offline, and the files are
a pure function of --seed.  Existing files in --out-dir are overwritten.
"""

import argparse

from gradbound.deskdata import DESK_TOTAL, build_desk_idx


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="data/desk")
    parser.add_argument("--n-total", type=int, default=DESK_TOTAL,
                        help="total examples (multiple of 10)")
    parser.add_argument("--seed", type=int, default=20260809)
    args = parser.parse_args()
    images, labels = build_desk_idx(args.out_dir, n_total=args.n_total, seed=args.seed)
    print(images)
    print(labels)


if __name__ == "__main__":
    main()
