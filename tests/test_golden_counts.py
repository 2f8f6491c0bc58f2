"""Bit-identity gate for the sign-change zero counter.

The hashes were captured with the blanket pair-rescue subdivision (every
cell with a derivative flip and no value flip subdivided 3 levels deep);
the Hermite exclusion test, applied to the grid cells and to the fan
sub-cells of every level, must find exactly the same brackets, so the
ensemble counts and the refined zero locations stay bit for bit the same.
The (200, gaussian) zero hash was recaptured when the half-mesh Stieltjes
build moved three b_k of the n_max 201 table by one ulp; counts did not
change.

Every digest but the two n = 50 count digests was recaptured when the
grid became one mirrored walk stepped by the table's own Kac density,
with the tail growing from the last inner step.  The n = 200 counts moved
in exactly five trials, each by one pair the old tail grid hid in a cell
past the edge (gaussian trials 64, 92, 354 and 359, rademacher trial
457); every count of the 2000 trials now equals the number of real
eigenvalues inside the grid.  The zero locations moved because the grid
points, and so the bisection brackets, moved: every count of trials
0..39 is unchanged, and the largest |dz| is 1.6e-11 (8.2e-13 a_n, under
the bisection width 1e-12 a_n).

The four zero-location digests were recaptured again when the
Gauss-Legendre rule became the package's own, which moved the last bits
of the n_max 51 and 201 tables.  Every count digest held; no trial of
0..39 changed its number of zeros, and the largest |dz| is 5.7e-14 and
1.4e-14 at n = 50 (gaussian, rademacher) and 6.0e-13 and 8.8e-12 at
n = 200, all under the bisection width 1e-12 a_n.

The two n = 50 zero-location digests were recaptured when the radius
equation moved to sigma_n's graded phi-rule: a_51 moved by one ulp
(10.099504938362077 to 10.09950493836208), and with it the grid and the
brackets.  Every count digest and both n = 200 digests held; no trial of
0..39 changed its number of zeros, and the largest |dz| is 5.7e-14
(gaussian) and 1.0e-12 (rademacher, 1.0e-13 a_n), under the bisection
width 1e-12 a_n.
"""

import hashlib

import numpy as np
import pytest

import orthozero as oz

COUNT_SHA256 = {
    (50, "gaussian"):
        "37d11be46ee0970d0ddf7bcc1f5f96cbac9912df8953b6594e28e15fec503a21",
    (50, "rademacher"):
        "9fc2050145ea800cbfeda08335d4d79f90312be1702477c6f3750259a2e20a68",
    (200, "gaussian"):
        "5a52ec8ce09c15d55ae0ab72f0de0c102fae30fc36f7fe4c3aac3b107de91981",
    (200, "rademacher"):
        "de1fcd55640d7ee361549328dfc7c74cef76cc3b7fca8284bb660928d1716267",
}

ZERO_SHA256 = {
    (50, "gaussian"):
        "e28918b8606a1cce420ec3cfeea68c621760fe6df942787d9f11c639b5118103",
    (50, "rademacher"):
        "573088d078f1626863534ae96119cd5ec985e509aaec0c032c9efec1e5936814",
    (200, "gaussian"):
        "28317568b309671ade0e6b50f4cb0f3d6c9979c2945488664ac0a0b836a6f785",
    (200, "rademacher"):
        "a44cd9a8db9f8b0f9bb6f4f970799a980f8585a7de57e6fc2fd5341025645d70",
}

def _table(n):
    return oz.get_table(oz.parse_weight("freud:0.5:2"), n + 1)


def counts_digest(n, law):
    """sha256 of the counts of trials 0..999 at seed 0."""
    res = oz.mc_expected_zeros(oz.parse_weight("freud:0.5:2"), _table(n), n,
                               1000, oz.CoeffDist(law), seed=0)
    return hashlib.sha256(res.counts.tobytes()).hexdigest()


def zeros_digest(n, law):
    """sha256 over the refined zero locations of trials 0..39 at seed 0,
    each trial's array prefixed by its length."""
    spec = oz.parse_weight("freud:0.5:2")
    table = _table(n)
    info = oz.solve_mrs(spec, n + 1)
    h = hashlib.sha256()
    for t in range(40):
        s = oz.sample_coeffs(oz.CoeffDist(law), 0, t, n)
        z = oz.count_real_zeros(spec, table, s, info).zeros
        h.update(np.int64(z.size).tobytes())
        h.update(z.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("n,law", sorted(COUNT_SHA256))
def test_golden_counts(n, law):
    assert counts_digest(n, law) == COUNT_SHA256[(n, law)]


@pytest.mark.parametrize("n,law", sorted(ZERO_SHA256))
def test_golden_zero_locations(n, law):
    assert zeros_digest(n, law) == ZERO_SHA256[(n, law)]


if __name__ == "__main__":
    # Recapture after a declared numerical change: print every entry's
    # current digest, marking the ones that differ from the recorded value.
    #   PYTHONPATH=src python tests/test_golden_counts.py
    for title, golden, digest_of in (("counts", COUNT_SHA256, counts_digest),
                                     ("zeros", ZERO_SHA256, zeros_digest)):
        for (n, law), old in sorted(golden.items()):
            digest = digest_of(n, law)
            mark = "" if digest == old else "  # CHANGED"
            print(f"{title} n={n} {law}\n    {digest}{mark}")
