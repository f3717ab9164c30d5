#!/usr/bin/env python3
"""Assemble the potential from raw counts and let the verifiers loose.

The generating potential packages every four-point count into one
function of (t0, ..., t4, q).  Assembling it term by term from the
enumeration and comparing against the known closed form is the package's
headline check; this script does that at a modest truncation, prints the
result, and then runs each brute-force verifier the way `pillowcase
verify` would.
"""

from pillowcase import assemble_potential, compare_potentials, st_reference_potential
from pillowcase.oracle import (
    correlator_crosscheck,
    image_table_check,
    lumpsum_check,
    orbit_agreement_check,
    rh_uniqueness_check,
)
from pillowcase.potential import potential_pretty

N = 10

print(f"potential assembled from the counts, truncated at q^{N}:\n")
assembled = assemble_potential(N)
print(potential_pretty(assembled))

diffs = compare_potentials(assembled, st_reference_potential(N))
print(f"\ndifferences against the closed form: {len(diffs)}")
assert diffs == []

# the same checks the CLI runs, one line each; every check covers d = 1..dmax
print("\nbrute-force verifiers:")
for label, result in [
    ("orbit census agrees with sigma1 (d <= 10)", orbit_agreement_check(10)),
    ("corner images match rational points (d <= 40)", image_table_check(40)),
    ("counts match closed forms (d <= 40)", correlator_crosscheck(40)),
    ("lump sum is six per sublattice (d <= 40)", lumpsum_check(40)),
    ("no extra branching data (d <= 6)", rh_uniqueness_check(6)),
]:
    print(f"  {'ok ' if result.ok else 'FAIL'} {label}")
    assert result.ok

print("\nall verifiers agree with the enumeration")
