#!/usr/bin/env python3
"""Diff two output directories file by file.

    python scripts/compare_outputs.py A B

Walks both directories and prints one line per file (by its path under
them): ``identical``, ``only in A``, ``only in B``, or what differs.  For a
CSV that is the largest absolute and relative difference of each column
that differs; for a JSON file, that of each key that differs, a key being
the dotted path to a leaf (``rows.0.l1``).  Any other file that differs
reads ``bytes differ``.  ``manifest.json`` is compared without
``config.out_dir`` and ``versions.engine``: the first names the directory
and the second the compiled engine's cache key.  A last line counts the
files.  Exits 1 if any file differs, 0 otherwise.
"""

import argparse
import json
import math
import os
import sys

# Keys of manifest.json that differ between two runs of the same outputs.
MANIFEST_DROPPED = (("config", "out_dir"), ("versions", "engine"))


def _files(root):
    found = set()
    for d, _, names in os.walk(root):
        found.update(os.path.relpath(os.path.join(d, n), root) for n in names)
    return found


def _gap(a, b):
    """Absolute and relative difference of two numbers; NaN equals NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    diff = abs(a - b)
    return diff, diff / max(abs(a), abs(b))


def _worst(gaps):
    """``name abs X rel Y`` for each name whose largest gap is not zero."""
    out = []
    for name, pairs in gaps.items():
        top_abs = max(p[0] for p in pairs)
        top_rel = max(p[1] for p in pairs)
        if top_abs or top_rel:
            out.append(f"{name} abs {top_abs:.3g} rel {top_rel:.3g}")
    return out


def _read_csv(path):
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    comments = [line for line in lines if line.startswith("#")]
    header, *rows = [line.split(",") for line in lines if not line.startswith("#")]
    return comments, header, rows


def _diff_csv(pa, pb):
    ca, ha, ra = _read_csv(pa)
    cb, hb, rb = _read_csv(pb)
    if ha != hb:
        return [f"columns {','.join(ha)} against {','.join(hb)}"]
    notes = [] if ca == cb else ["comment lines differ"]
    if len(ra) != len(rb):
        return notes + [f"{len(ra)} rows against {len(rb)}"]
    gaps = {name: [(0.0, 0.0)] for name in ha}
    for row_a, row_b in zip(ra, rb):
        for name, x, y in zip(ha, row_a, row_b):
            if x != y:
                try:
                    gaps[name].append(_gap(float(x), float(y)))
                except ValueError:
                    gaps[name].append((math.inf, math.inf))
    return notes + _worst(gaps)


def _leaves(value, prefix=""):
    """Each leaf of a JSON value under its dotted path."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {prefix: value}
    out = {}
    for key, item in items:
        out.update(_leaves(item, f"{prefix}.{key}" if prefix else str(key)))
    return out


def _load_json(path):
    with open(path) as fh:
        data = json.load(fh)
    if os.path.basename(path) == "manifest.json":
        for section, key in MANIFEST_DROPPED:
            data.get(section, {}).pop(key, None)
    return data


def _diff_json(pa, pb):
    la, lb = _leaves(_load_json(pa)), _leaves(_load_json(pb))
    notes = [f"{key} only in A" for key in sorted(la.keys() - lb.keys())]
    notes += [f"{key} only in B" for key in sorted(lb.keys() - la.keys())]
    gaps = {}
    for key in sorted(la.keys() & lb.keys()):
        x, y = la[key], lb[key]
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        if numbers:
            gaps[key] = [_gap(float(x), float(y))]
        elif x != y:
            notes.append(f"{key} {x!r} against {y!r}")
    return notes + _worst(gaps)


def compare(a, b):
    """Per file under either directory, by its path: its status (identical,
    differ, only in A, only in B) and, when it differs, what differs."""
    fa, fb = _files(a), _files(b)
    result = {}
    for rel in sorted(fa | fb):
        if rel not in fa or rel not in fb:
            result[rel] = ("only in A" if rel in fa else "only in B", [])
            continue
        pa, pb = os.path.join(a, rel), os.path.join(b, rel)
        with open(pa, "rb") as fh_a, open(pb, "rb") as fh_b:
            same = fh_a.read() == fh_b.read()
        notes = []
        if not same and rel.endswith(".csv"):
            notes = _diff_csv(pa, pb)
        elif not same and rel.endswith(".json"):
            notes = _diff_json(pa, pb)
        if not same and not notes and os.path.basename(rel) != "manifest.json":
            notes = ["bytes differ"]
        result[rel] = ("differ" if notes else "identical", notes)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Diff two output directories file by file.")
    ap.add_argument("a")
    ap.add_argument("b")
    args = ap.parse_args(argv)
    result = compare(args.a, args.b)
    counts = dict.fromkeys(("identical", "differ", "only in A", "only in B"), 0)
    for rel, (status, notes) in result.items():
        print(f"{rel}: {'; '.join(notes) if notes else status}")
        counts[status] += 1
    print(f"{len(result)} files: " + ", ".join(f"{n} {status}" for status, n in counts.items()))
    return 0 if counts["identical"] == len(result) else 1


if __name__ == "__main__":
    sys.exit(main())
