"""Log-space probability arithmetic.

All probabilities in this package are carried as natural logs with -inf as
the zero sentinel; these helpers keep differences and complements stable
down to masses far below the smallest positive double.
"""
from __future__ import annotations

import numpy as np

__all__ = ["log1mexp", "log_diff_exp", "log_add_exp", "log_sum_exp"]

_LOG_HALF = float(np.log(0.5))


def log1mexp(x):
    """log(1 - exp(x)) for x <= 0, stable near both 0 and -inf.

    Uses expm1 for x > log(1/2) and log1p otherwise (Maechler's rule).
    Returns -inf at x == 0.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(
            x > _LOG_HALF,
            np.log(-np.expm1(np.minimum(x, 0.0))),
            np.log1p(-np.exp(x)),
        )
    if np.any(x > 0):
        raise ValueError("log1mexp requires x <= 0")
    return out if out.ndim else float(out)


def log_diff_exp(a, b):
    """log(exp(a) - exp(b)) elementwise, requiring a >= b.

    Equal inputs (including -inf pairs) give -inf.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(b > a):
        raise ValueError("log_diff_exp requires a >= b")
    both_inf = np.isneginf(a) & np.isneginf(b)
    with np.errstate(invalid="ignore", divide="ignore"):
        diff = np.where(both_inf, -np.inf, b - np.where(both_inf, 0.0, a))
        out = np.where(both_inf, -np.inf, a + log1mexp(np.minimum(diff, 0.0)))
    return out if out.ndim else float(out)


def log_add_exp(a, b):
    """log(exp(a) + exp(b)) elementwise."""
    out = np.logaddexp(a, b)
    return out if np.ndim(out) else float(out)


def log_sum_exp(a) -> float:
    """log(sum(exp(a))) over all entries, shifted by the maximum.

    All -inf (or no entries) gives -inf; a +inf entry gives +inf.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return -np.inf
    m = float(np.max(a))
    if np.isinf(m):
        return m
    return m + float(np.log(np.sum(np.exp(a - m))))
