"""Size and cost of H_1 and H_2 for named finite groups, one fresh process per group.

Both degrees read one Cayley-graph presentation (m non-tree edges, |S|
generators).  For each group named on the command line it prints the
order; for H_1 the shape |S| x m of the abelianized relator matrix, the
torsion and the wall time of ``homology(G, 1)``; for H_2 the shape
m x |S|m of Hopf's relation matrix, the shape of the residual that reaches
the Smith form, the torsion and the wall time of ``homology(G, 2)``; and
the peak RSS of the process.  Each group runs in a subprocess of its own,
so no measurement sees another group's memory.  A report, not a gate.

    python3 tools/homology_sizes.py 'Z2^5' D16 D24 'Z2^6' D64

A name is a product of factors joined by 'x': Zn (cyclic of order n), Dn
(dihedral of order 2n) or Q8, each raised to a power by '^k'.  With no
names, the six order-32 groups Z2^5, D16, Z4xZ8, Z2xD8, Q8xZ4, Z2xZ2xZ8
are measured.  Standard library and numpy only.
"""

import functools
import json
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT = ["Z2^5", "D16", "Z4xZ8", "Z2xD8", "Q8xZ4", "Z2xZ2xZ8"]


def build(name):
    """The group a name denotes (see the module docstring)."""
    from fredk2.group_homology import FiniteGroup

    factors = []
    for word in name.split("x"):
        base, _, power = word.partition("^")
        if base == "Q8":
            group = FiniteGroup.quaternion()
        elif base[:1] in ("Z", "D") and base[1:].isdigit():
            make = FiniteGroup.cyclic if base[0] == "Z" else FiniteGroup.dihedral
            group = make(int(base[1:]))
        else:
            raise SystemExit("unknown group factor %r in %r" % (word, name))
        factors += [group] * int(power or 1)
    return functools.reduce(FiniteGroup.direct_product, factors)


def measure(name):
    """One group in this process: the report row as a dict."""
    from fredk2 import group_homology

    group = build(name)
    reduced_boundary = group_homology._reduced_boundary
    shapes = []

    def recording(columns, nrows):
        shapes.append((nrows, len(columns)))
        out = reduced_boundary(columns, nrows)
        shapes.append(out[0].shape)
        return out

    group_homology._reduced_boundary = recording
    row = {"group": name, "order": group.order}
    for degree in (1, 2):
        start = time.perf_counter()
        h = group_homology.homology(group, degree)
        row["h%d" % degree] = {"relations": "%d x %d" % shapes[-2],
                               "residual": "%d x %d" % shapes[-1],
                               "torsion": h.torsion,
                               "wall_s": round(time.perf_counter() - start, 3)}
    row["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    return row


def cyclic_sum(torsion):
    """Torsion factors as a sum of cyclic groups, such as Z2^3 x Z4."""
    counts = {d: torsion.count(d) for d in torsion}
    return " x ".join("Z%d" % d + ("^%d" % k if k > 1 else "")
                      for d, k in counts.items()) or "0"


def main(argv):
    if argv[:1] == ["--one"]:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        print(json.dumps(measure(argv[1])))
        return
    print("group        order  H_1 relations  H_1 torsion     wall_s  "
          "H_2 relations  residual      H_2 torsion            wall_s  peak_rss_mb")
    for name in argv or DEFAULT:
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--one", name],
                             capture_output=True, text=True)
        if out.returncode:
            print("%-12s failed: %s" % (name, (out.stderr.strip().splitlines() or ["?"])[-1]))
            continue
        row = json.loads(out.stdout)
        h1, h2 = row["h1"], row["h2"]
        print("%-12s %5d  %-13s  %-14s  %6.3f  %-13s  %-12s  %-21s  %6.3f  %11.1f" % (
            name, row["order"], h1["relations"], cyclic_sum(h1["torsion"]), h1["wall_s"],
            h2["relations"], h2["residual"], cyclic_sum(h2["torsion"]), h2["wall_s"],
            row["peak_rss_mb"]))


if __name__ == "__main__":
    main(sys.argv[1:])
