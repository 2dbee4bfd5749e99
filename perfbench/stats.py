"""Statistics helpers for the DKG benchmark (pure functions, stdlib only)."""

import math
import statistics

# Tail percentiles a timing may be reported at beside its median, lowest first.
TAIL_CANDIDATES = (90.0, 99.0, 99.9)
MIN_BEYOND = 10


def _rank(n, p):
    """1-based nearest rank of the p-th percentile among n samples (rounded
    first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return math.ceil(round(p * n / 100.0, 9))


def percentile(values, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError("percentile out of range: %r" % p)
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n, p):
    """How many of n samples lie strictly above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def tail_percentile(n):
    """The highest of TAIL_CANDIDATES with at least MIN_BEYOND of n samples
    beyond it, or None when even the lowest has too few."""
    best = None
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


class Ratio:
    """A ratio that keeps its numerator and base, so a printed share always
    says what it is a share of."""

    def __init__(self, num, den):
        if den < 0 or num < 0:
            raise ValueError("negative ratio operand")
        self.num = num
        self.den = den

    @property
    def value(self):
        return self.num / self.den if self.den else 0.0

    def __str__(self):
        return "%.4f (%s of %s)" % (self.value, _fmt(self.num), _fmt(self.den))


def _fmt(x):
    return str(int(x)) if float(x).is_integer() else "%.6g" % x


def failure_fraction(failed, attempted):
    """Failures counted against attempts (not against completions)."""
    if attempted < 1:
        raise ValueError("no attempts")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return Ratio(failed, attempted)


def quartile_spread(values):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")
