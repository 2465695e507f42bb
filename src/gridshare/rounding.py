"""Half-up decimal rounding on exact rationals.

Percentages are kept as exact fractions until the reporting boundary, then
rounded half up (not banker's rounding: 28.125% must report as 28.13%).
"""

import math
from fractions import Fraction


def round_half_up(value: Fraction, decimals: int) -> float:
    """Round an exact rational to `decimals` >= 0 places, ties away from
    zero, in integer arithmetic: the one rounding is to the nearest float of
    the rounded decimal. A negative value that rounds to zero gives -0.0."""
    scale = 10 ** decimals
    q, r = divmod(abs(value.numerator) * scale, value.denominator)
    q += 2 * r >= value.denominator
    return math.copysign(q / scale, value.numerator)


def pct(numerator: int, denominator: int) -> float:
    """100 * numerator / denominator, rounded half up to 2 decimals. 0/0 reports 0.0."""
    if denominator == 0:
        return 0.0
    return round_half_up(Fraction(100 * numerator, denominator), 2)
