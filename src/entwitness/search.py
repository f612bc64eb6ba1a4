"""Threshold location on a monotone predicate; used for every threshold hunt.

:func:`threshold_scan` returns the midpoint of the bracket that bisection
narrows to ``tol``.  Which midpoints bisection walks depends only on the
predicate's verdicts, so the scan is free to learn a verdict any way that
gives the same answer.  A predicate may return a real *margin* instead of a
bool (``margin > 0`` is True); the scan then keeps the nearest points it
has evaluated on each side of the flip, takes the verdict of any midpoint
outside them from that bracket without a call, and narrows the bracket by
Illinois modified regula falsi (Dowell & Jarratt, BIT 11, 168 (1971)) on
the margins.  The result is the float plain bisection returns, in fewer
calls when the margin is smooth near its zero.
"""

from __future__ import annotations

from typing import Callable

# Illinois probes a midpoint may take before the midpoint itself is probed
ESTIMATES_PER_MIDPOINT = 3
# probes at estimates that leave their midpoint undecided, over the whole scan
MISSED_ESTIMATES = 6


def threshold_scan(
    predicate: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    max_iter: int = 200,
) -> float:
    """Locate the flip point of a monotone predicate on [lo, hi].

    ``predicate(s)`` returns a bool, or a real margin whose sign is the
    verdict (``margin > 0`` means True).  The verdict must be monotone on
    [lo, hi] and differ at the two endpoints.  The result is the midpoint of
    the bracket that bisection on the verdicts narrows to below ``tol``, bit
    for bit.  Bisection walks n midpoints, the least n with
    (hi - lo) / 2**n < tol, and at most ``max_iter``.

    The scan keeps [a, b], the last evaluated points with each verdict.  A
    midpoint at or outside it takes its verdict from it, which monotonicity
    makes exact.  A midpoint inside it is decided by probing at the Illinois
    estimate of the margin's zero: the regula falsi point of (a, f(a)) and
    (b, f(b)), where the f kept on one side is halved each time the other
    side moves twice in a row.  The midpoint itself is probed instead
    when the estimate is not strictly inside (a, b), after
    :data:`ESTIMATES_PER_MIDPOINT` estimates that leave it undecided, and
    for good once :data:`MISSED_ESTIMATES` estimates in all have.  Every
    other call decides a midpoint, so the predicate is called at most
    2 + n + MISSED_ESTIMATES times.  A bool reads as the margin 1 or 0, so
    its estimate falls on an end of the bracket and the midpoint is probed:
    a boolean predicate is called exactly at the 2 + n points of plain
    bisection.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if lo >= hi:
        raise ValueError(f"empty bracket [{lo}, {hi}]")
    f_lo, f_hi = predicate(lo), predicate(hi)
    p_lo = bool(f_lo > 0)
    if p_lo == bool(f_hi > 0):
        raise ValueError(
            f"predicate is {p_lo} at both endpoints of [{lo}, {hi}]; no threshold inside"
        )
    a, b, fa, fb = lo, hi, float(f_lo), float(f_hi)
    moved = 0  # the side the last probe moved: -1 for a, +1 for b
    missed = 0
    for _ in range(max_iter):
        if hi - lo < tol:
            break
        mid = 0.5 * (lo + hi)
        estimates = 0
        while a < mid < b:
            x = mid
            if estimates < ESTIMATES_PER_MIDPOINT and missed < MISSED_ESTIMATES:
                estimates += 1
                guess = (a * fb - b * fa) / (fb - fa) if fb != fa else mid
                if a < guess < b:
                    x = guess
            value = predicate(x)
            if bool(value > 0) == p_lo:
                a, fa = x, float(value)
                if moved == -1:
                    fb *= 0.5
                moved = -1
            else:
                b, fb = x, float(value)
                if moved == 1:
                    fa *= 0.5
                moved = 1
            missed += a < mid < b
        if mid <= a:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
