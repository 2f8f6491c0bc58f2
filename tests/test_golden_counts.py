"""Bit-identity gate for the sign-change zero counter.

The hashes were captured with the blanket pair-rescue subdivision (every
cell with a derivative flip and no value flip subdivided 3 levels deep);
the Hermite exclusion test, applied to the grid cells and to the fan
sub-cells of every level, must find exactly the same brackets, so the
ensemble counts and the refined zero locations stay bit for bit the same.
The (200, gaussian) zero hash was recaptured when the half-mesh Stieltjes
build moved three b_k of the n_max 201 table by one ulp; counts did not
change.
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
        "fbc3a08796293c972f0c71b120cd7dbbef27069b0592a42ee65c317668319af8",
    (200, "rademacher"):
        "436190e471e1ba5b41876e6c748c2899ef92967a02fdc31ebc77621ef74b4712",
}

ZERO_SHA256 = {
    (50, "gaussian"):
        "debe6ddf157849e20f0775d32df0eb87ac97d103eeb29ecd333485e7f575930f",
    (50, "rademacher"):
        "b250d9bb3d9c28c39f07f5c4b1032ff176732fe6198573fe44cc113e5d301278",
    (200, "gaussian"):
        "8941042d9850647631a3467dcc866bed4df4923418ffb81dfa13899b8f798bac",
    (200, "rademacher"):
        "59876f9097e52b1f333a42d521c6b316e34786b7f707b0e6c859edaeaee45d05",
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
