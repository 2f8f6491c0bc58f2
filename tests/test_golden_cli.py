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
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

import orthozero as oz
from orthozero.cli import run

GOLDEN = {
    ("mrs", "--weight", "freud:1:2", "--n", "8,100"):
        "abfc50286ca1ccc5164a67a4bebda3b9c3a22259e361f763412f6ecb2426f998",
    ("density", "--weight", "freud:1:4", "--n", "60", "--points", "21"):
        "9117721ddcd65e41e504750b198f5bf0798cd41da493014293ef70d5f116cfa0",
    ("recurrence", "--weight", "freud:0.5:2", "--n-max", "60"):
        "1f2379f34709d996fc2d2a66219f46df24f1d036dc733f93cc1f0b384c1fe676",
    ("kac", "--weight", "freud:0.5:2", "--n", "100", "--full-line"):
        "3416ba84a2b18749d7c2946a1db8250ce44dace37686f9db25cee82911170ef2",
    ("kac", "--weight", "freud:1:4", "--n", "80", "--interval", "-1.5", "2"):
        "9309bb37f040caf88b56332121ad3dee8d5c126a8fd745423028b1f3d12419cd",
    ("kac", "--weight", "freud:0.5:2", "--n", "100", "--interval", "-0.5",
     "0.5", "--scaled"):
        "211783505c96fa2e1f0b304f8bdce4a50dfef9b1babf9fb5f199186ee9e6f963",
    ("kac", "--weight", "freud:0.5:2", "--n", "1000", "--full-line"):
        "01a395af00c5352af7ac95c5b205097a794489ed2dd18274ebe49e1357648748",
    ("kac", "--weight", "freud:1:4", "--n", "500", "--full-line"):
        "3a9f48ba85a56e95c6137ba6c7734cd4a15c1dec03b1b5786332f5451bdc86ec",
    ("kac", "--n", "300", "--basis", "monomial", "--full-line"):
        "31fbc87f01ff3a29db2d14e5d9e6bf91eaa581703172afef12a2c96f50369503",
    ("simulate", "--weight", "freud:0.5:2", "--n", "50", "--trials", "20"):
        "727b7ce3c53051c77d7e8c776d4695220b7e43e51236744b7170571fe05548d3",
    ("simulate", "--weight", "freud:1:2", "--n", "50", "--trials", "20",
     "--dist", "rademacher", "--partition=-1,-0.5,0,0.5,1"):
        "20dde587782d3fa918844f1264754244fcb49dca54b57dd99ab3cafbee728096",
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
