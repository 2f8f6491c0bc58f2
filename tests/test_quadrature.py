import numpy as np
import pytest

from orthozero.errors import BudgetError
from orthozero.quadrature import adaptive_gl


def test_adaptive_gl_budget_error_carries_partials():
    # 1/sqrt|x| never meets the tolerance near its singularity, so a
    # 10-panel budget runs out; the salvaged value is a usable estimate
    def f(x):
        return 1.0 / np.sqrt(np.abs(x))

    with pytest.raises(BudgetError) as info:
        adaptive_gl(f, -1.0, 1.0, tol=1e-12, presplit=[0.0], max_panels=10)
    err = info.value
    assert err.panels > 10
    assert err.partial == pytest.approx(4.0, rel=0.05)
    assert str(err) == ("adaptive quadrature exceeded 10 panels "
                        f"(partial value {err.partial:.6g})")
    assert BudgetError("no partials").partial is None
