#!/usr/bin/env python3
"""Compare two output directories file by file:

    python scripts/compare_outputs.py DIR_A DIR_B

Prints, per file, "identical" or the largest relative and the largest
absolute difference of the numeric tokens (a value that is zero in exact
arithmetic differs by its rounding, which is small in absolute terms but
can be of order 1 relative). Exit status:

    0  every file is on both sides and byte-identical;
    1  a file is missing on one side, or two files differ in anything but
       their numbers (a non-numeric token, a separator or the token count);
    2  otherwise, when some files differ only in their numbers.
"""

import cmath
import math
import pathlib
import re
import sys

SEPARATORS = re.compile(r'([\s,;=:\[\]{}()"]+)')


def compare(a, b):
    """(largest relative, largest absolute) difference of the numeric tokens
    of texts a and b (0 where a number is only written differently), or None
    if they differ anywhere else."""
    ta, tb = SEPARATORS.split(a), SEPARATORS.split(b)
    if len(ta) != len(tb) or ta[1::2] != tb[1::2]:
        return None
    worst = largest = 0.0
    for x, y in ((x, y) for x, y in zip(ta[::2], tb[::2]) if x != y):
        try:
            u, v = complex(x), complex(y)
        except ValueError:
            return None
        if u != v and not (cmath.isnan(u) and cmath.isnan(v)):
            if cmath.isfinite(u) and cmath.isfinite(v):
                worst = max(worst, abs(u - v) / max(abs(u), abs(v)))
                largest = max(largest, abs(u - v))
            else:
                worst = largest = math.inf
    return worst, largest


def main(dir_a, dir_b):
    roots = [pathlib.Path(dir_a), pathlib.Path(dir_b)]
    names = sorted({str(p.relative_to(r)) for r in roots for p in r.rglob("*") if p.is_file()})
    status = 0
    for name in names:
        a, b = (r / name for r in roots)
        if not (a.is_file() and b.is_file()):
            print(f"{name}: missing in {dir_b if a.is_file() else dir_a}")
            status = 1
            continue
        if a.read_bytes() == b.read_bytes():
            print(f"{name}: identical")
            continue
        differences = compare(a.read_text(), b.read_text())
        if differences is None:
            print(f"{name}: non-numeric tokens differ")
            status = 1
        else:
            print("{}: largest relative difference {:.3g}, "
                  "largest absolute difference {:.3g}".format(name, *differences))
            status = status or 2
    return status


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
