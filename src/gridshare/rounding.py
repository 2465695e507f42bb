"""Half-up decimal rounding of exact ratios.

A ratio is kept as its two integers until the reporting boundary, then
rounded half up (not banker's rounding: 28.125% must report as 28.13%).
"""

import math


def round_half_up(numerator: int, denominator: int, decimals: int) -> float:
    """Round numerator / denominator (denominator > 0) to `decimals` >= 0
    places, ties away from zero, in integer arithmetic: the one rounding is
    to the nearest float of the rounded decimal. The pair need not be in
    lowest terms. A negative ratio that rounds to zero gives -0.0."""
    scale = 10 ** decimals
    q, r = divmod(abs(numerator) * scale, denominator)
    q += 2 * r >= denominator
    return math.copysign(q / scale, numerator)


def pct(numerator: int, denominator: int) -> float:
    """100 * numerator / denominator, rounded half up to 2 decimals. 0/0 reports 0.0."""
    if denominator == 0:
        return 0.0
    return round_half_up(100 * numerator, denominator, 2)
