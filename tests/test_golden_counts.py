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

The four zero-location digests were recaptured when the zeros' bisection,
and the radius solve's, gave way to one safeguarded Newton
(quadrature.refine_roots).  a_51 moved by -1 ulp (10.09950493836208 to
10.099504938362077) and a_201 by +1 ulp (20.04993765576342 to
20.049937655763422), and with them the grid and the brackets.  Every
count digest held; no trial of 0..39 changed its number of zeros, and the
largest |dz|/a_n is 3.8e-13 and 3.9e-13 at n = 50 (gaussian, rademacher)
and 3.2e-13 and 4.7e-13 at n = 200, under the width 1e-12 a_n
(`--compare` below, against a `--save` of the bisecting code).
"""

import argparse
import hashlib
import math
from functools import lru_cache

import numpy as np
import pytest

import orthozero as oz
from orthozero import montecarlo
from orthozero.orthopoly import combo_values

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
        "d62d20a6a3fdf6ee031dbbe2fffded903bb4e251ff8787272242ccd8af23cbd8",
    (50, "rademacher"):
        "9404246308b114c7a11240a7b682ea9b9677e4d5fd150f1542b70617761cfc3a",
    (200, "gaussian"):
        "5b0e7617df8af462c6ceea7a4ef337cb9d0d7b024e6fb9847be07b8274245779",
    (200, "rademacher"):
        "96201ef62cb8aab33de88cebbb59f2345e2bc569095805c2c71d851c3c1f69d9",
}

def _table(n):
    return oz.get_table(oz.parse_weight("freud:0.5:2"), n + 1)


def counts_digest(n, law):
    """sha256 of the counts of trials 0..999 at seed 0."""
    res = oz.mc_expected_zeros(oz.parse_weight("freud:0.5:2"), _table(n), n,
                               1000, oz.CoeffDist(law), seed=0)
    return hashlib.sha256(res.counts.tobytes()).hexdigest()


@lru_cache(maxsize=None)
def golden_trials(n, law):
    """(solve_mrs for n + 1, count_real_zeros of trials 0..39 at seed 0),
    shared by the digest, the reference test and the --save tooling."""
    spec = oz.parse_weight("freud:0.5:2")
    table = _table(n)
    info = oz.solve_mrs(spec, n + 1)
    return info, tuple(oz.count_real_zeros(
        spec, table, oz.sample_coeffs(oz.CoeffDist(law), 0, t, n))
        for t in range(40))


def zeros_digest(n, law):
    """sha256 over the refined zero locations of trials 0..39 at seed 0,
    each trial's array prefixed by its length."""
    h = hashlib.sha256()
    for res in golden_trials(n, law)[1]:
        h.update(np.int64(res.zeros.size).tobytes())
        h.update(res.zeros.tobytes())
    return h.hexdigest()


def _bisected_zeros(table, C, rows, lo, hi, sl, width):
    """The counter's refinement before safeguarded Newton, kept as the
    reference: halve every bracket (row rows[i] of C) until all are at
    most `width` wide, and return the midpoints."""
    steps = max(1, math.ceil(math.log2(max(np.max(hi - lo) / width, 2.0))))
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        sm = np.sign(combo_values(table, C[rows], mid[:, None])[0][:, 0])
        left = sl * sm < 0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        sl = np.where(left | (sm == 0), sl, sm)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("n,law", sorted(COUNT_SHA256))
def test_golden_counts(n, law):
    assert counts_digest(n, law) == COUNT_SHA256[(n, law)]


@pytest.mark.parametrize("n,law", sorted(ZERO_SHA256))
def test_golden_zero_locations(n, law):
    assert zeros_digest(n, law) == ZERO_SHA256[(n, law)]


@pytest.mark.parametrize("n,law", sorted(ZERO_SHA256))
def test_golden_zeros_match_bisection(n, law):
    # every zero of the golden trials within the width certificate of the
    # bisected one, from the same brackets.  This covers an iterate on
    # which the polynomial is exactly 0.0 (gaussian trial 5 at n = 200,
    # near -0.0717 a_n) and a tail zero near -10.4 a_n (trial 1), where
    # Newton from the middle of a wide geometric cell is rejected first
    spec, table = oz.parse_weight("freud:0.5:2"), _table(n)
    info, results = golden_trials(n, law)
    C = np.stack([oz.sample_coeffs(oz.CoeffDist(law), 0, t, n)
                  for t in range(40)])
    counts, (rows, lo, hi, sl) = montecarlo._brackets(
        table, C, oz.make_count_grid(spec, info, table), info.a_n)
    width = montecarlo._ZERO_WIDTH * info.a_n
    ref = _bisected_zeros(table, C, rows, lo, hi, sl, width)
    for t, res in enumerate(results):
        assert res.count == counts[t]
        assert np.all(np.abs(res.zeros - np.sort(ref[rows == t])) <= width)


def _save(path):
    """Write the zeros, zero counts and a_{n+1} of every golden trial set."""
    out = {}
    for n, law in sorted(ZERO_SHA256):
        info, results = golden_trials(n, law)
        key = f"{n}-{law}"
        out[f"a_n/{key}"] = info.a_n
        out[f"count/{key}"] = [r.count for r in results]
        out[f"size/{key}"] = [r.zeros.size for r in results]
        out[f"zeros/{key}"] = np.concatenate([r.zeros for r in results])
    np.savez(path, **out)


def _compare(path):
    """Print, per golden trial set, whether the counts equal those saved in
    `path` and the largest |dz|/a_n of the zeros against them."""
    saved = np.load(path)
    for n, law in sorted(ZERO_SHA256):
        info, results = golden_trials(n, law)
        a_n, key = info.a_n, f"{n}-{law}"
        same = (np.array_equal(saved[f"count/{key}"], [r.count for r in results])
                and np.array_equal(saved[f"size/{key}"],
                                   [r.zeros.size for r in results]))
        dz = (np.max(np.abs(np.concatenate([r.zeros for r in results])
                            - saved[f"zeros/{key}"]), initial=0.0) / a_n
              if same else math.nan)
        print(f"n={n} {law}: counts {'equal' if same else 'DIFFER'}, "
              f"max |dz|/a_n {dz:.2g}, a_n {float(saved[f'a_n/{key}'])!r}"
              f" -> {a_n!r}")


if __name__ == "__main__":
    # Recapture after a declared numerical change: print every entry's
    # current digest, marking the ones that differ from the recorded value.
    #   PYTHONPATH=src python tests/test_golden_counts.py
    # Measure the move of the golden zeros: --save PATH on the old code,
    # then --compare PATH on the new.
    parser = argparse.ArgumentParser()
    parser.add_argument("--save", metavar="PATH",
                        help="write the golden trials' zeros to an .npz")
    parser.add_argument("--compare", metavar="PATH",
                        help="compare the golden trials' zeros with an .npz")
    args = parser.parse_args()
    if args.save:
        _save(args.save)
    elif args.compare:
        _compare(args.compare)
    else:
        for title, golden, digest_of in (
                ("counts", COUNT_SHA256, counts_digest),
                ("zeros", ZERO_SHA256, zeros_digest)):
            for (n, law), old in sorted(golden.items()):
                digest = digest_of(n, law)
                mark = "" if digest == old else "  # CHANGED"
                print(f"{title} n={n} {law}\n    {digest}{mark}")
