#!/usr/bin/env python3
"""Usage: compare_outputs.py OLD NEW...  Compares each NEW gradbound output
with OLD (or OLD/<name> if OLD is a directory), ignoring the timestamp and the
embedded config's output path: prints the maximum relative deviation per
numeric column and every other difference (flags, labels, config, rows, a
missing file), and exits 1 beyond 1e-12 or on any other one.  With two
directories, compare_outputs.py OLD_DIR NEW_DIR compares every file name
found in either, so a file missing from one of them is a difference."""

import csv
import io
import itertools
import json
import math
import os
import sys


def rows_of(path):
    """The embedded config (without its ``out`` path) as row 0, then the
    output rows, as dicts.  Config values are wrapped in lists so that they
    compare exactly, never as numbers within 1e-12."""
    with open(path, newline="") as f:
        text = f.read()
    if path.endswith(".json"):
        doc = json.loads(text)
        config, rows = doc["config"], doc["rows"]
    else:
        lines = text.splitlines()
        [config] = [json.loads(l.removeprefix("# config:")) for l in lines
                    if l.startswith("# config:")]
        rows = csv.DictReader(io.StringIO("\n".join(l for l in lines if not l.startswith("#"))))
    config.pop("out", None)
    return [{f"config {key}": [value] for key, value in config.items()}, *rows]


def rel_dev(a, b):
    """Relative deviation of two cells, or None unless both are numbers."""
    if isinstance(a, bool) or isinstance(b, bool):
        return None
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(x - y) / max(abs(x), abs(y)) if math.isfinite(x) and math.isfinite(y) else math.inf


def compare(old, new):
    """Print the differences of two output files; True if within 1e-12."""
    missing = [p for p in (old, new) if not os.path.isfile(p)]
    if missing:
        print(f"{new}: missing {', '.join(missing)}")
        return False
    ok, worst = True, {}
    for i, (o, n) in enumerate(itertools.zip_longest(rows_of(old), rows_of(new), fillvalue={})):
        for col in sorted(set(o) | set(n)):
            dev = rel_dev(o.get(col), n.get(col))
            if dev is not None:
                worst[col] = max(worst.get(col, 0.0), dev)
            elif o.get(col) != n.get(col):
                print(f"{new}: row {i} {col}: {o.get(col)!r} -> {n.get(col)!r}")
                ok = False
    print(f"{new}: max rel dev " + ", ".join(f"{c} {d:.3g}" for c, d in sorted(worst.items())))
    return ok and all(d <= 1e-12 for d in worst.values())


def main(old, *news):
    """The exit status of comparing ``news`` with ``old`` (see the usage)."""
    if len(news) == 1 and os.path.isdir(old) and os.path.isdir(news[0]):
        names = sorted(set(os.listdir(old)) | set(os.listdir(news[0])))
        news = [os.path.join(news[0], name) for name in names]
    results = [compare(os.path.join(old, os.path.basename(n)) if os.path.isdir(old) else old, n)
               for n in news]
    return 0 if news and all(results) else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]) if sys.argv[1:] else __doc__)
