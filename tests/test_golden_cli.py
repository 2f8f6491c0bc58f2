"""Byte-identity gate for the CLI: the sha256 of each command's stdout must
match the digest recorded for it.  The digests pin every printed digit, so
a refactor of the numerical core that changes any result shows up here.

Commands run against the shared table cache, whatever earlier tests left
in it: `get_table` keys on the exact n_max, so a command's output does not
depend on which tables were cached before it.  One test runs the whole set
after the largest tables the package builds are cached, to pin that.

The `kac --weight freud:0.5:2 --n 100 --full-line` digest was recaptured
twice: when the half-mesh Stieltjes build moved two b_k of the n_max 101
table by one ulp, and when symmetric ranges began to be integrated on
x >= 0 and mirrored, which made the x column exactly antisymmetric and
moved the last digits of the density, count and error rows.

The `recurrence --weight freud:0.5:2 --n-max 60` digest was recaptured
once, when ln gamma_k (k >= 1) came to be rounded once from extended
precision and the Gram audit was split by parity on the half mesh: only
the gamma_k column (13 of 61 rows, last digits) and the
`ortho_residual` line moved.  Every other digest predates these changes.

The `kac --n 1000` and `--n 500` full-line digests run at the benchmark's
scale, on the n_max 1001 and 501 tables; they were captured before the
recurrence sweep moved to stacked state and dense rescale factors, which
left every printed digit as it was.

Nine digests were recaptured when the Gauss-Legendre rule behind the
Stieltjes mesh, the Gram audit, adaptive_gl and ullman_cdf_many became the
package's own (Newton on the Legendre recurrence in longdouble, nodes and
weights within one ulp, where scipy's weights were up to 612 ulps off at
order 24).  Every b_k and every quadrature sum moved in its last bits; no
row was added or lost, and `mrs` and `density` held.  Largest |delta| per
digest: `recurrence` b_k 8.9e-16 (one ulp, 23 of 60), gamma_k 1.1e-16,
ortho_residual 6.7e-16; `kac freud:0.5:2 --n 100` density 7.9e-14, count
3.2e-11, error 5.3e-10; `kac freud:1:4 --n 80 --interval` density 2.0e-14,
error 1.6e-15; `--scaled` value 5.6e-17; `kac --n 1000` density 3.3e-12,
count 6.7e-09, error 5.1e-09; `kac freud:1:4 --n 500` density 6.0e-12,
count 3.0e-09, error 2.1e-08; monomial `kac --n 300` error 4.4e-16 only;
each `simulate` ks_mean 2.2e-16 at most, every count and fraction held.
Forming ln gamma_0 in extended precision like the other gamma_k, in the
same change, moved no digest: gamma_0 = exp(ln gamma_0) rounds to the
same double.

The `density` digest was recaptured when the limit density moved from
QUADPACK to adaptive_gl on the substitution t = |x| cosh(S - r): 16 of the
21 `limit_density` values moved, by at most 3.3e-16 (three ulps); the `s`
and `sigma_star` columns held.  It was recaptured again when sigma_n moved
from Chebyshev node doubling to composite Gauss-Legendre rules in
phi = arcsin(s/a_n), graded toward s = 0: 9 of the 21 `sigma_star` values
moved, by at most 8.9e-16; the `s` and `limit_density` columns held.

Three digests were recaptured when the radius equation moved from
first-kind Chebyshev nodes to sigma_n's graded phi-rule, which moved a_n
by at most 2 ulps on the Hermite weight and 1 ulp on the quartic one (no
a_n printed here changed).  `mrs freud:1:2`: the n = 100 residual went
from 0 to -1.4e-14 (one ulp of n), a_n held.  `recurrence freud:0.5:2
--n-max 60`: only the `ortho_residual` line moved (1.55e-15 to 1.33e-15),
every b_k and gamma_k held.  `kac freud:0.5:2 --n 100 --full-line`: a_100
moved one ulp, so x moved by at most 5.3e-15, the density by 8.9e-14
(7.3e-12 relative, in the far tail), the count by 1.7e-9 and the error
estimate from 3.57e-8 to 3.87e-8.

Four digests were recaptured when the radius solve's bisection and Newton
polish gave way to safeguarded Newton (quadrature.refine_roots): a_n
moved by at most 2 ulps for n <= 2002 on freud:0.5:2 and freud:1:2 (no
closer to or farther from the closed form on average), and with a_n the
mesh radius 1.5 a_{2 n_max} and the window edge of the tables.
`recurrence freud:0.5:2 --n-max 60`: only `ortho_residual` moved (1.33e-15
to 1.55e-15), every b_k and gamma_k held.  `kac freud:0.5:2 --n 100
--interval -0.5 0.5 --scaled`: a_100 moved one ulp and the value 1.7e-16.
`simulate freud:0.5:2 --n 50`: ks_mean moved 1.1e-16, as the n_max 51
table moved in its last bits.  `simulate freud:1:2 --n 50 --dist
rademacher`: a_50 moved one ulp, so imag_tol moved 1.3e-23, and ks_mean
moved 6.9e-18.  Every per-trial line, count, mean, stderr and partition
fraction held.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

import orthozero as oz
from orthozero.cli import run

GOLDEN = {
    ("mrs", "--weight", "freud:1:2", "--n", "8,100"):
        "a39fbebfae5c8fceffe2d6df25270a3b0610db7b10001e631b4de5782b3eb013",
    ("density", "--weight", "freud:1:4", "--n", "60", "--points", "21"):
        "1feea460b9fa7055e96249edbc7eda7ecf43dc30c39ffba1b480b3a32b28e9f1",
    ("recurrence", "--weight", "freud:0.5:2", "--n-max", "60"):
        "48332441e3264124e2e7082016003dd57f8f7b82c7d38217a2ecd044b864a875",
    ("kac", "--weight", "freud:0.5:2", "--n", "100", "--full-line"):
        "92ed317b2d759fb2a34ba78dc70727ec6d5e39c5fee6f162bfd26a5b585ef25d",
    ("kac", "--weight", "freud:1:4", "--n", "80", "--interval", "-1.5", "2"):
        "1871e8eb7b64356ce1dffd1822a05cbe4e8b09143e765df2f1a288ec74a5fe28",
    ("kac", "--weight", "freud:0.5:2", "--n", "100", "--interval", "-0.5",
     "0.5", "--scaled"):
        "245b7f5710083d2f51bb0fe21686e6d15a0d744a1df88e887ea6ffbf6afcc7d8",
    ("kac", "--weight", "freud:0.5:2", "--n", "1000", "--full-line"):
        "002c794825bdfd10654b252daa5351d5d24ed8cb4e28cc1b2555da9301842e6d",
    ("kac", "--weight", "freud:1:4", "--n", "500", "--full-line"):
        "b606eea506f674ed85c12b154a458d7fa049bf1e0ff494afbb4d881dc3cbfc1a",
    ("kac", "--n", "300", "--basis", "monomial", "--full-line"):
        "43ce17363edfebf3e969f6c2b1c84cce82e1b96da2362235c4f2a3deb27b5eda",
    ("simulate", "--weight", "freud:0.5:2", "--n", "50", "--trials", "20"):
        "0b530cf44ef70b60d4ed06de0bc8cd1b2fb85cb9f449e4d8ce20db4618e78751",
    ("simulate", "--weight", "freud:1:2", "--n", "50", "--trials", "20",
     "--dist", "rademacher", "--partition=-1,-0.5,0,0.5,1"):
        "e28f2eeb73f75be2c846d3d4fb47859d8c74cee803c670a0585fd04c4ef50e60",
}


def stdout_digest(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run(list(argv)) == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda a: " ".join(a))
def test_cli_output_matches_golden(argv):
    assert stdout_digest(argv) == GOLDEN[argv]


def test_cli_output_independent_of_cached_tables():
    # the tables of `verify` and the benchmark, larger than any command
    # here asks for, must not answer the commands' smaller requests
    oz.get_table(oz.parse_weight("freud:0.5:2"), 1001)
    oz.get_table(oz.parse_weight("freud:1:4"), 501)
    changed = [" ".join(argv) for argv in GOLDEN
               if stdout_digest(argv) != GOLDEN[argv]]
    assert changed == []


if __name__ == "__main__":
    # Recapture after a declared numerical change: print every command's
    # current digest, marking the ones that differ from the recorded value.
    #   PYTHONPATH=src python tests/test_golden_cli.py
    for argv in GOLDEN:
        digest = stdout_digest(argv)
        mark = "" if digest == GOLDEN[argv] else "  # CHANGED"
        print(f"{' '.join(argv)}\n    {digest}{mark}")
