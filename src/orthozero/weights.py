"""Exponential weights W = exp(-Q): the Freud family, user-supplied
fields, and the registry keys the command line resolves.

A weight is described by the external field Q, its first two derivatives,
an evenness flag, and the declared limit ``alpha`` of T(t) = t Q'(t)/Q(t)
at infinity.  The limit theorems hold for weights in the admissible class;
a Freud weight lies in it by construction (T is identically its exponent),
and a custom field is trusted as supplied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

Array = np.ndarray


@dataclass(frozen=True)
class WeightSpec:
    """W = exp(-q) with derivatives q1 = Q' and q2 = Q'' (q2 never used at 0).

    ``alpha`` is the declared limit of T at infinity, in (1, inf]; for a
    Freud weight with exponent lam it equals lam.  All callables must be
    vectorized over ndarrays.
    """

    q: Callable[[Array], Array]
    q1: Callable[[Array], Array]
    q2: Callable[[Array], Array]
    even: bool
    alpha: float
    label: str
    # content identity for the caches (the Freud parameters); None makes
    # them key on the identity of q instead
    fingerprint: tuple | None = None

    @property
    def cache_key(self):
        """Content identity for the table and grid caches (never the label)."""
        return self.q if self.fingerprint is None else self.fingerprint

    def w2(self, x):
        """The orthogonality weight W^2 = exp(-2Q)."""
        return np.exp(-2.0 * self.q(np.asarray(x, dtype=float)))


def make_freud(c: float, lam: float) -> WeightSpec:
    """Freud weight W(x) = exp(-c |x|^lam), c > 0, lam > 1.

    Q = c|x|^lam, Q' = c lam |x|^(lam-1) sgn(x), Q'' = c lam (lam-1) |x|^(lam-2),
    T identically lam.
    """
    if not 0 < c < math.inf:
        raise DomainError(f"Freud scale must be positive and finite, got {c}")
    if not 1 < lam < math.inf:
        raise DomainError(f"Freud exponent must be finite and exceed 1, got "
                          f"{lam} (the class requires T >= Lambda > 1)")

    def q(x, _c=float(c), _l=float(lam)):
        return _c * np.abs(x) ** _l

    def q1(x, _c=float(c), _l=float(lam)):
        x = np.asarray(x, dtype=float)
        return _c * _l * np.abs(x) ** (_l - 1.0) * np.sign(x)

    def q2(x, _c=float(c), _l=float(lam)):
        return _c * _l * (_l - 1.0) * np.abs(x) ** (_l - 2.0)

    label = f"freud:{float(c):.12g}:{float(lam):.12g}"
    return WeightSpec(q=q, q1=q1, q2=q2, even=True, alpha=float(lam), label=label,
                      fingerprint=("freud", float(c), float(lam)))


def make_custom(q, q1, q2, even: bool, alpha: float, label: str) -> WeightSpec:
    """Wrap user-supplied Q, Q', Q''.  Nothing checks the derivatives
    against Q or the field against the admissible class."""
    if not alpha > 1:
        raise DomainError(f"alpha must lie in (1, inf], got {alpha}")
    return WeightSpec(q=q, q1=q1, q2=q2, even=even, alpha=float(alpha), label=label)


def parse_weight(key: str) -> WeightSpec:
    """Resolve a registry key, currently the built-in family ``freud:c:lambda``."""
    parts = key.strip().split(":")
    if parts and parts[0] == "freud" and len(parts) == 3:
        try:
            c, lam = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise DomainError(f"bad freud parameters in {key!r}") from exc
        return make_freud(c, lam)
    raise DomainError(f"unknown weight key {key!r}; expected freud:c:lambda")
