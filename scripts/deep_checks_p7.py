#!/usr/bin/env python3
"""Deeper p=7 checks that are too slow for the default test run.

p=7 is the first prime where an irretractable member can carry a
nontrivial scaling twist (the defect map (0,1,2,4,4,2,1) is fixed by
multiplication with 2 and 4).  This script cross-checks the counting
formulas against orbit enumeration, verifies that twisting by a scaling
automorphism reproduces the twisted constructor, checks the automorphism
groups of the twisted members, round-trips them through the classifier,
and (optionally, --closure) computes the permutation group order of a
twisted member with perms.closure, which takes about 13 seconds.
"""

import argparse
import sys
import time

from cyclesets import (
    automorphisms,
    canonical_phi,
    classify_size_p2,
    closure,
    count_formula,
    count_irr_by_enumeration,
    count_mpl2_by_enumeration,
    deform,
    irr_cycle_set,
    is_cycle_set_automorphism,
    phi_stabilizer,
    relabel,
    sigma_gens,
    to_cycle_set,
)

PHI = (0, 1, 2, 4, 4, 2, 1)
P = 7


def scaling(a):
    return tuple(((a * i) % P) * P + (a * x) % P for i in range(P) for x in range(P))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--closure", action="store_true",
                    help="also compute the full permutation group order")
    args = ap.parse_args(argv)

    t0 = time.monotonic()
    rep = count_formula(P)
    even, zero = count_irr_by_enumeration(P)
    ok = (rep.n_irr_even, rep.n_irr_zero) == (even, zero)
    print(f"counting p=7: formula irr={rep.n_irr} vs enumeration {even}+{zero} "
          f"-> {'agree' if ok else 'DISAGREE'}")
    n_mpl2 = count_mpl2_by_enumeration(P)
    print(f"counting p=7: formula mpl2={rep.n_mpl2} vs enumeration {n_mpl2} "
          f"-> {'agree' if rep.n_mpl2 == n_mpl2 else 'DISAGREE'}")
    if not ok or rep.n_mpl2 != n_mpl2:
        return 1

    stab = phi_stabilizer(P, PHI)
    print(f"defect map {PHI}: canonical={canonical_phi(P, PHI) == PHI}, "
          f"scaling stabilizer {stab}")
    base = to_cycle_set(classify_size_p2(irr_cycle_set(P, PHI, 1)))
    for a in stab:
        if a == 1:
            continue
        phi_a = scaling(a)
        assert is_cycle_set_automorphism(base, phi_a)
        twisted = irr_cycle_set(P, PHI, a)
        same = deform(base, phi_a).table == twisted.table
        auts = automorphisms(twisted)
        label = classify_size_p2(relabel(twisted, scaling(3)))
        print(f"alpha={a}: deform==constructor {same}; |Aut|={len(auts)} "
              f"(expect {len(stab)}); classifier on a relabelling -> {label}")
        if not same or len(auts) != len(stab):
            return 1

    base_auts = automorphisms(base)
    print(f"untwisted member: |Aut|={len(base_auts)} (expect {P * len(stab)})")
    if len(base_auts) != P * len(stab):
        return 1

    if args.closure:
        t1 = time.monotonic()
        elems, _ = closure(sigma_gens(irr_cycle_set(P, PHI, 2)))
        t2 = time.monotonic()
        order = len(elems)
        print(f"permutation group of the alpha=2 member: order {order} "
              f"= 3*7^6 is {order == 3 * 7**6} ({t2 - t1:.1f}s)")
        if order != 3 * 7**6:
            return 1

    print(f"all checks passed in {time.monotonic() - t0:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
