"""The measure algebra with one Fraction per weight: the oracle for the integer path.

These are marginals, the dependence matrix and the variation norm as asymdep
computed them before measures held integer numerators over one denominator,
on plain tuples of Fractions, so they share no code with what they check.
"""
import math
from fractions import Fraction

ZERO = Fraction(0)


def marginals(weights):
    """Row sums and column sums of a Fraction matrix."""
    rows = tuple(sum(row, ZERO) for row in weights)
    cols = tuple(sum(col, ZERO) for col in zip(*weights))
    return rows, cols


def dependence_entries(weights):
    """w_ik - r_i c_k for the row sums r and column sums c of w."""
    rows, cols = marginals(weights)
    return tuple(
        tuple(w - r * c for w, c in zip(row, cols)) for row, r in zip(weights, rows)
    )


def variation(entries):
    """(sum of |entries|, the sign of each entry with 0 read as +1)."""
    total = sum((abs(x) for row in entries for x in row), ZERO)
    signs = tuple(tuple(1 if x >= 0 else -1 for x in row) for row in entries)
    return total, signs


def lcm_scaled(entries):
    """(N, L): L the lcm of the entries' reduced denominators and N = L entries."""
    scale = math.lcm(*(x.denominator for row in entries for x in row))
    n = [[x.numerator * (scale // x.denominator) for x in row] for row in entries]
    return n, scale
