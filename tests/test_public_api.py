import io
import re
import types
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import orthozero as oz

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_api_is_exactly_these():
    # a new export, or a dropped one, must edit this list
    names = sorted(n for n, v in vars(oz).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == [
        "BracketError", "BudgetError", "CoeffDist", "CountResult",
        "DegenerateSampleError", "DiscretizationError", "DomainError",
        "EmpiricalMeasure", "McResult", "NonEvenWeightError",
        "RecurrenceTable", "ScalingInfo", "SingularityError", "WeightSpec",
        "ZeroDensityProfile", "all_zeros", "build_recurrence",
        "comrade_matrix", "count_real_zeros", "eigen_measures",
        "empirical_measure", "equilibrium_density_many", "expected_zeros",
        "expected_zeros_full", "expected_zeros_monomial", "freud_constants",
        "get_table", "kac_density", "kernel_triple_many", "ks_to_ullman",
        "load_table", "make_count_grid", "make_custom", "make_freud",
        "mc_expected_zeros", "monomial_density", "normalized_density_many",
        "parse_weight", "poly_matrix", "sample_coeffs", "save_table",
        "scaled_expected_zeros", "sigma_mass", "solve_mrs",
        "ullman_cdf_many", "ullman_density", "universality_ratios",
    ]


def test_readme_library_example_runs():
    # the one python block of the README prints what its comments say,
    # to the digits the comments give
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    buf = io.StringIO()
    with redirect_stdout(buf):
        exec(compile(code, str(README), "exec"), {})
    printed = [float(v) for v in buf.getvalue().split()]
    claimed = re.findall(r"^print\(.*#\s*~?\s*([0-9.]+)", code, re.M)
    assert len(printed) == len(claimed) == 3
    for got, text in zip(printed, claimed):
        digits = len(text.split(".")[1]) if "." in text else 0
        assert got == pytest.approx(float(text), abs=0.5 * 10.0**-digits)
