"""The drift between two output trees, CSV by CSV.

    python3 tests/csv_drift.py OLD_DIR NEW_DIR

prints one line per CSV found under either directory, by its path relative
to the directory: `identical` when the bytes agree; `only in OLD` or
`only in NEW`; `header A -> B` when the header row changed; otherwise, for
each column, the largest absolute and relative difference of its numeric
cells (the relative one over the larger magnitude of the two cells), or
the number of differing cells of a column that is not numeric, and the
row counts when they differ.  It exits 0 when every CSV is identical and
1 otherwise.  A change that moves output bits on purpose quotes it; the
byte-for-byte check is tests/test_csv_manifest.py.
"""

import csv
import math
import os
import sys


def _csv_files(root):
    found = set()
    for folder, _, names in os.walk(root):
        found.update(os.path.relpath(os.path.join(folder, name), root)
                     for name in names if name.endswith(".csv"))
    return found


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _cell_drift(a, b):
    """(absolute, relative) difference of two numeric cells, or None when
    either is not a number."""

    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0, 0.0
    diff = abs(x - y)
    return diff, diff / max(abs(x), abs(y))


def _column_lines(old, new):
    header, old_rows, new_rows = old[0], old[1:], new[1:]
    lines = []
    if len(old_rows) != len(new_rows):
        lines.append(f"rows {len(old_rows)} -> {len(new_rows)}")
    for j, name in enumerate(header):
        pairs = [(r[j], s[j]) for r, s in zip(old_rows, new_rows)
                 if r[j] != s[j]]
        if not pairs:
            lines.append(f"column {name}: identical")
            continue
        drifts = [_cell_drift(a, b) for a, b in pairs]
        if None in drifts:
            lines.append(f"column {name}: {len(pairs)} cells differ")
            continue
        lines.append(f"column {name}: max abs {max(d[0] for d in drifts):.3g},"
                     f" max rel {max(d[1] for d in drifts):.3g}")
    return lines


def drift(old_dir, new_dir):
    """The report lines for the CSVs under `old_dir` and `new_dir`, and
    whether every one of them is identical."""

    old_files, new_files = _csv_files(old_dir), _csv_files(new_dir)
    lines, identical = [], 0
    for name in sorted(old_files | new_files):
        if name not in new_files or name not in old_files:
            side = "OLD" if name in old_files else "NEW"
            lines.append(f"{name}: only in {side}")
            continue
        old_path, new_path = (os.path.join(old_dir, name),
                              os.path.join(new_dir, name))
        with open(old_path, "rb") as a, open(new_path, "rb") as b:
            if a.read() == b.read():
                lines.append(f"{name}: identical")
                identical += 1
                continue
        old, new = _read(old_path), _read(new_path)
        if not old or old[:1] != new[:1]:
            lines.append(f"{name}: header {old[:1]} -> {new[:1]}")
            continue
        lines.extend(f"{name}: {line}" for line in _column_lines(old, new))
    return lines, identical == len(old_files | new_files)


def main(argv):
    if len(argv) != 2:
        print("usage: csv_drift.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    lines, same = drift(*argv)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
