"""One sha256 per section over the outputs of ``fredk2.group_homology``.

Run it on two trees and compare the lines: equal digests mean equal
outputs, as Python ints and in the same order.  A report, not a gate.

    python3 tools/homology_digest.py

Sections:

  homology   ``homology(G, 1|2)``: rank, torsion and
             ``presentation_divisors``, for every product of Z_n, D_n
             (order 2n, n >= 3) and Q8 factors of order <= 16;
  generators the generator's coefficient map in insertion order, on the
             same groups and degrees (a cycle is one of many, so it can
             move while the homology line stays);
  cycles     ``cycle_basis(G, 2)`` maps on the same groups;
  boundary   ``bar_boundary`` on seeded random chains of degree 1 to 3 over
             the same groups;
  smith      ``smith_normal_form``'s five outputs on 200 seeded random
             integer matrices;
  two_path   for each built-in catalog surjection, seeded 2-cycles over the
             target, the relative cycle ``boundary_to_relative`` makes of
             each, ``f_phi_section`` and
             ``psi(coker_representative(boundary_to_relative(.)))``.

Group names are read by ``homology_sizes.build``.  Standard library and
numpy only; the package is imported from this checkout's ``src``.
"""

import hashlib
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 2029
TOP = 16  # largest group order digested


def factors():
    """(name, order) of every factor: Z2..Z16, D3..D8 and Q8."""
    return ([("Z%d" % n, n) for n in range(2, TOP + 1)]
            + [("D%d" % n, 2 * n) for n in range(3, TOP // 2 + 1)] + [("Q8", 8)])


def words(names=None, order=1):
    """Every multiset of factors of product order at most TOP, as names
    accepted by ``homology_sizes.build`` (factors joined by 'x')."""
    names = factors() if names is None else names
    for i, (name, size) in enumerate(names):
        if order * size <= TOP:
            yield name
            yield from (name + "x" + w for w in words(names[i:], order * size))


def chain_key(chain):
    return None if chain is None else (chain.degree, list(chain.coeffs.items()))


def matrix_key(M):
    return (M.shape, M.tolist())


def random_chain(rng, group, degree, ncells):
    from fredk2.group_homology import GroupChain

    chain = GroupChain(group, degree)
    for _ in range(ncells):
        chain.add_cell([int(g) for g in rng.integers(group.order, size=degree)],
                       int(rng.integers(-3, 4)))
    return chain


def sections():
    """{section: list of output records}."""
    from homology_sizes import build
    from fredk2 import group_homology as gh

    rng = np.random.default_rng(SEED)
    out = {"homology": [], "generators": [], "cycles": [], "boundary": [], "smith": [],
           "two_path": []}
    for name in words():
        group = build(name)
        for degree in (1, 2):
            h = gh.homology(group, degree)
            out["homology"].append((name, degree, h.rank, h.torsion, h.presentation_divisors))
            out["generators"].append((name, degree, chain_key(h.generator)))
        out["cycles"].append((name, [chain_key(c) for c in gh.cycle_basis(group, 2)]))
        for degree in (1, 2, 3):
            for _ in range(3):
                chain = random_chain(rng, group, degree, 6)
                out["boundary"].append((name, chain_key(chain),
                                        chain_key(gh.bar_boundary(chain))))
    for _ in range(200):
        m, n = (int(k) for k in rng.integers(1, 9, size=2))
        top = int(rng.choice([2, 5, 12, 100]))
        entries = rng.integers(-top, top + 1, size=(m, n))
        if rng.random() < 1 / 3:
            entries[rng.random((m, n)) < 0.6] = 0
        mat = np.array(entries.tolist(), dtype=object)
        out["smith"].append([matrix_key(M) for M in gh.smith_normal_form(mat)])
    for name, hom in sorted(gh.builtin_catalog().items()):
        basis = gh.cycle_basis(hom.target, 2)
        for _ in range(20):
            cycle = gh.GroupChain(hom.target, 2)
            for chain in basis:
                cycle = cycle.add(chain.scale(int(rng.integers(-2, 3))))
            cycle = cycle.add(gh.bar_boundary(random_chain(rng, hom.target, 3, 4)))
            cone = gh.boundary_to_relative(cycle, hom)
            via = gh.psi(gh.coker_representative(cone, hom))
            out["two_path"].append((name, chain_key(cycle), chain_key(cone.y),
                                    chain_key(cone.x), gh.f_phi_section(hom, cycle), via))
    return out


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    for section, records in sections().items():
        digest = hashlib.sha256(repr(records).encode()).hexdigest()
        print("%-10s %5d  %s" % (section, len(records), digest))


if __name__ == "__main__":
    main()
