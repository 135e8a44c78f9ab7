"""Counterexample families and finite-instance sufficient-condition checkers.

Two constructions separate the asymptotic-independence conditions:

* binary_coding_family: the binary-digit joint measure on {0..2n-1} x
  {0..2^n-1}. Its rectangle gaps vanish like 1/sqrt(n) (AI-3 holds) while a
  fixed tent-bump test function keeps an integral gap of exactly 1/4
  (AI-1 fails).
* bernoulli_perturbation_family: X_n = X + Y/n, Y_n = Y for independent fair
  bits X, Y. The joint law merges with the product of marginals (AI-1 holds,
  Prokhorov distance <= 1/n) while the rectangle {1} x {1} keeps a gap of
  exactly 1/8 (AI-2 fails).

The Markov-shift family illustrates geometric alpha decay for finite chains,
and the two checkers verify the coupling / conditional-independence
sufficient-condition bounds on exact finite instances.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import CapabilityError, InputError
from .measures import (
    JointMeasure,
    Numerators,
    as_fraction,
    dependence_matrix,
    pushforward_joint,
)
from .metrics import alpha_coefficient, gaussian_cf_gap, variation_norm, DEFAULT_CF_LATTICE
from .spaces import LINE_SPACE_MAX_POINTS, FiniteMetricSpace, line_space

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Binary coding construction
# ---------------------------------------------------------------------------

def chi(i: int, j: int) -> int:
    """The i-th binary digit of j (0 beyond the coding length)."""
    if i < 0 or j < 0:
        raise InputError("chi is defined on nonnegative integers")
    return (j >> i) & 1


def sign_fn(i: int, j: int) -> int:
    """2*chi(i,j) - 1, valued in {-1, 1}."""
    return 2 * chi(i, j) - 1


def tent(x: float, y: float) -> float:
    """The bump max{0, 1 - 4|x| - 4|y|}; support in |x|,|y| <= 1/4."""
    return max(0.0, 1.0 - 4.0 * abs(x) - 4.0 * abs(y))


def h_eval(x: float, y: float) -> float:
    """sum_{i,j} chi(i,j) tent(x-i, y-j).

    At most one tent term is nonzero, so it suffices to round (x, y) to the
    nearest lattice point; half-integer ties fall outside every tent support.
    """
    i, j = round(x), round(y)
    if i < 0 or j < 0:
        return 0.0
    t = tent(x - i, y - j)
    return chi(i, j) * t


@dataclass(frozen=True)
class FamilyInstance:
    family: str
    n: int
    joint: JointMeasure | None
    params: dict = field(default_factory=dict)


def binary_coding_weight(n: int, i: int, j: int) -> Fraction:
    """Weight of the binary-coding joint measure at the grid point (i, j)."""
    denom = n * 2 ** n
    if i < n:
        return Fraction(chi(i, j), denom)
    return Fraction(1 - chi(i - n, j), denom)


def binary_coding_family(n: int) -> FamilyInstance:
    """The AI-3-but-not-AI-1 family: support {0..2n-1} x {0..2^n-1} on the line."""
    if n < 1:
        raise InputError("binary coding level must satisfy n >= 1")
    if n >= LINE_SPACE_MAX_POINTS.bit_length():  # 2^n > LINE_SPACE_MAX_POINTS, without 2^n
        raise CapabilityError(f"binary coding n={n} has 2^{n} points, above LINE_SPACE_MAX_POINTS")
    s1 = line_space(range(2 * n))
    s2 = line_space(range(2 ** n))
    # the numerators of binary_coding_weight over n 2^n
    digits = [tuple(chi(i, j) for j in range(2 ** n)) for i in range(n)]
    num = digits + [tuple(1 - x for x in row) for row in digits]
    joint = JointMeasure(s1, s2, Numerators(num, n * 2 ** n))
    return FamilyInstance("binary_coding", n, joint)


def binary_coding_h_matrix(n: int):
    """h evaluated on the support grid: h(i,j) = chi(i,j), exact integers."""
    return tuple(
        tuple(Fraction(chi(i, j)) for j in range(2 ** n)) for i in range(2 * n)
    )


def binary_coding_sign_matrix(n: int) -> np.ndarray:
    """The 2^n x n matrix with entries sign(i,j) (rows j, columns i)."""
    return np.array(
        [[sign_fn(i, j) for i in range(n)] for j in range(2 ** n)], dtype=int
    )


# ---------------------------------------------------------------------------
# Bernoulli perturbation construction
# ---------------------------------------------------------------------------

def bernoulli_perturbation_family(n: int) -> FamilyInstance:
    """The AI-1-but-not-AI-2 family: X_n = X + Y/n, Y_n = Y for fair bits X, Y."""
    if n < 2:
        raise InputError("bernoulli perturbation needs n >= 2 (atoms collide at n = 1)")
    xs = [Fraction(0), Fraction(1, n), Fraction(1), 1 + Fraction(1, n)]
    s1 = line_space([float(x) for x in xs], labels=[str(x) for x in xs])
    s2 = line_space([0.0, 1.0], labels=["0", "1"])
    q = Fraction(1, 4)
    weights = (
        (q, ZERO),      # (0, 0)
        (ZERO, q),      # (1/n, 1)
        (q, ZERO),      # (1, 0)
        (ZERO, q),      # (1 + 1/n, 1)
    )
    joint = JointMeasure(s1, s2, weights)
    # the rectangle {X = 1} x {Y = 1} pins the AI-2 gap at 1/8
    return FamilyInstance(
        "bernoulli_perturbation", n, joint, params={"rectangle": ((2,), (1,))}
    )


# ---------------------------------------------------------------------------
# Markov shift family
# ---------------------------------------------------------------------------

def _as_fraction_matrix(rows):
    return tuple(tuple(as_fraction(x) for x in row) for row in rows)


def matrix_power(t, n: int):
    """t^n of a square matrix of Fractions as tuples, exact: numpy multiplies the entries as objects."""
    return tuple(map(tuple, np.linalg.matrix_power(np.array(t, dtype=object), n)))


def markov_shift_family(transition, stationary, n: int) -> FamilyInstance:
    """Joint law of (X_0, X_n) for a stationary finite chain, exact rationals."""
    t = _as_fraction_matrix(transition)
    pi = tuple(as_fraction(x) for x in stationary)
    size = len(t)
    if any(len(row) != size for row in t) or len(pi) != size:
        raise InputError("transition matrix and stationary vector sizes disagree")
    if any(x < 0 for row in t for x in row) or any(sum(row) != ONE for row in t):
        raise InputError("transition rows must be nonnegative and sum to 1")
    if any(x < 0 for x in pi) or sum(pi) != ONE:
        raise InputError("stationary vector must be a probability vector")
    for j in range(size):
        if sum(pi[i] * t[i][j] for i in range(size)) != pi[j]:
            raise InputError("the supplied vector is not stationary for the chain")
    if n < 0:
        raise InputError("n must be nonnegative")
    tn = matrix_power(t, n)
    space = line_space(range(size))
    weights = tuple(tuple(pi[i] * tn[i][j] for j in range(size)) for i in range(size))
    joint = JointMeasure(space, space, weights)
    return FamilyInstance(
        "markov_shift",
        n,
        joint,
        params={"transition": t, "stationary": pi, "rectangle": ((0,), (0,))},
    )


def two_state_chain(p) -> tuple[tuple, tuple]:
    """Symmetric two-state chain with flip probability p; stationary (1/2, 1/2)."""
    p = as_fraction(p)
    if not 0 <= p <= 1:
        raise InputError("flip probability must lie in [0, 1]")
    transition = ((1 - p, p), (p, 1 - p))
    return transition, (Fraction(1, 2), Fraction(1, 2))


def markov_block_family(transition, stationary, n: int, width: int) -> FamilyInstance:
    """Joint law of ((X_0..X_{w-1}), (X_n..X_{n+w-1})) via the w-step block chain.

    Realized as markov_shift_family on the product state space; width <= 3
    keeps the blown-up space at desk scale.
    """
    if not 1 <= width <= 3:
        raise InputError("block width must be between 1 and 3")
    t = _as_fraction_matrix(transition)
    pi = tuple(as_fraction(x) for x in stationary)
    size = len(t)
    states = list(itertools.product(range(size), repeat=width))
    index = {s: i for i, s in enumerate(states)}
    block_t = [[ZERO] * len(states) for _ in states]
    for s in states:
        for nxt in range(size):
            target = s[1:] + (nxt,)
            block_t[index[s]][index[target]] += t[s[-1]][nxt]
    block_pi = []
    for s in states:
        w = pi[s[0]]
        for a, b in zip(s, s[1:]):
            w *= t[a][b]
        block_pi.append(w)
    inst = markov_shift_family(block_t, block_pi, n)
    return FamilyInstance(
        "markov_block", n, inst.joint, params={"width": width, "transition": t}
    )


# ---------------------------------------------------------------------------
# Sufficient-condition checkers
# ---------------------------------------------------------------------------

def _chunks(seq, size: int) -> tuple:
    """Consecutive runs of ``size`` items of ``seq``, as tuples."""
    return tuple(tuple(seq[i:i + size]) for i in range(0, len(seq), size))


def _grouped(weights, shape: str, depth: int):
    """The sizes of a nested weight list, checked level by level (a flat count hides
    ragged rows), and its entries in row-major order."""
    sizes, level = [], [weights]
    for _ in range(depth):
        lengths = {len(x) if isinstance(x, (list, tuple)) else None for x in level}
        if len(lengths) != 1 or None in lengths:
            raise InputError(f"weights must be an {shape} array")
        sizes.append(lengths.pop())
        level = [y for x in level for y in x]
    return sizes, level


def _line_spaces(*sizes: int) -> tuple[FiniteMetricSpace, ...]:
    """line_space(range(k)) for each size k, one read-only space per distinct size."""
    built = {k: line_space(range(k)) for k in dict.fromkeys(sizes)}
    return tuple(built[k] for k in sizes)


@dataclass(frozen=True)
class ConditionalIndepInstance:
    """Three-way law over E1 x E2 x {Omega, Omega^c}.

    Conditionally on the Omega slice the pair factorizes exactly; delta is the
    mass of Omega^c. ``joint`` is the law of X and (Y, slice): column 2k is
    (k, Omega) and column 2k + 1 is (k, Omega^c). ``y_space`` is E2, the
    second space of every (X, Y) law the instance builds.
    """

    weights: tuple  # weights[i][k][0] = Omega slice, [1] = complement slice
    joint: JointMeasure = field(init=False, repr=False, compare=False)
    y_space: FiniteMetricSpace = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        (n1, n2, two), flat = _grouped(self.weights, "n1 x n2 x 2", 3)
        if two != 2:
            raise InputError("weights must be an n1 x n2 x 2 array")
        s1, s2, y_space = _line_spaces(n1, 2 * n2, n2)
        joint = JointMeasure(s1, s2, _chunks(flat, 2 * n2))
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "y_space", y_space)
        object.__setattr__(self, "weights", tuple(_chunks(row, 2) for row in joint.weights))
        omega = [row[::2] for row in joint.num]
        p_omega = sum(map(sum, omega))  # P(Omega) times joint.den
        if p_omega == 0:
            raise InputError("Omega must have positive probability (delta < 1)")
        given = JointMeasure(s1, y_space, Numerators(omega, p_omega))
        if any(map(any, dependence_matrix(given).num)):
            raise InputError("the pair is not conditionally independent given Omega")

    @property
    def delta(self) -> Fraction:
        return Fraction(sum(sum(row[1::2]) for row in self.joint.num), self.joint.den)

    def xy_marginal(self) -> JointMeasure:
        n1, n2 = len(self.weights), len(self.weights[0])
        return pushforward_joint(
            self.joint, range(n1), [c // 2 for c in range(2 * n2)],
            self.joint.space1, self.y_space,
        )


def conditional_independence_bound_check(
    inst: ConditionalIndepInstance,
) -> tuple[Fraction, Fraction, bool]:
    """alpha of the (X,Y) marginal against 2 delta (1 + 1/(1 - delta)); P(Omega) > 0 gives delta < 1."""
    delta = inst.delta
    alpha = alpha_coefficient(inst.xy_marginal()).value
    bound = 2 * delta * (1 + 1 / (1 - delta))
    return alpha, bound, alpha <= bound


@dataclass(frozen=True)
class CouplingInstance:
    """Four-way law of (X, X', Y, Y') where the primed pair is independent.

    ``joint`` is the law of (X, X') and (Y, Y'): row n1 x + x', column n2 y + y'.
    ``pair_spaces`` are E1 and E2, the spaces of the (X, Y) and (X', Y') laws.
    """

    weights: tuple  # weights[x][xp][y][yp]
    joint: JointMeasure = field(init=False, repr=False, compare=False)
    pair_spaces: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        (n1, n1p, n2, n2p), flat = _grouped(self.weights, "n1 x n1 x n2 x n2", 4)
        s1, s2, *pair_spaces = _line_spaces(n1 * n1p, n2 * n2p, n1, n2)
        joint = JointMeasure(s1, s2, _chunks(flat, n2 * n2p))
        if n1 != n1p or n2 != n2p:
            raise InputError("weights must be an n1 x n1 x n2 x n2 array")
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "pair_spaces", tuple(pair_spaces))
        rows = [_chunks(row, n2) for row in joint.weights]  # row n1 x + x' -> [y][y']
        object.__setattr__(self, "weights", _chunks(rows, n1))
        if any(map(any, dependence_matrix(self._pair(primed=True)).num)):
            raise InputError("the primed pair (X', Y') must be independent")

    def _pair(self, primed: bool) -> JointMeasure:
        """The law of (X', Y') if primed, else of (X, Y): index n x + x' splits by divmod."""
        n1, n2 = len(self.weights), len(self.weights[0][0])
        u = [divmod(r, n1)[primed] for r in range(n1 * n1)]
        v = [divmod(c, n2)[primed] for c in range(n2 * n2)]
        return pushforward_joint(self.joint, u, v, *self.pair_spaces)

    def xy_marginal(self) -> JointMeasure:
        return self._pair(primed=False)

    def mismatch_probabilities(self) -> tuple[Fraction, Fraction, Fraction]:
        """(P{(X,Y) != (X',Y')}, P{X != X'}, P{Y != Y'}), each 1 minus the mass where they agree."""
        n1, n2 = len(self.weights), len(self.weights[0][0])
        rows, cols = range(0, n1 * n1, n1 + 1), range(0, n2 * n2, n2 + 1)  # x = x', y = y'
        num, den = self.joint.num, self.joint.den
        return (
            1 - Fraction(sum(num[r][c] for r in rows for c in cols), den),
            1 - Fraction(sum(sum(num[r]) for r in rows), den),
            1 - Fraction(sum(row[c] for row in num for c in cols), den),
        )


def coupling_tv_bound_check(inst: CouplingInstance) -> tuple[Fraction, Fraction, bool]:
    """Total variation of the (X,Y) dependence vs the coupling mismatch bound."""
    tv = variation_norm(dependence_matrix(inst.xy_marginal())).value
    p_pair, p_x, p_y = inst.mismatch_probabilities()
    bound = 2 * p_pair + 2 * p_x + 2 * p_y
    return tv, bound, tv <= bound


# ---------------------------------------------------------------------------
# Random instance generators (fixed seed schedule for reproducibility)
# ---------------------------------------------------------------------------

# the random checker instances live on E1 = E2 = {0, 1, 2}; random_joint's
# weights are multiples of 1/RANDOM_JOINT_DENOM
RANDOM_INSTANCE_SIDE = 3
RANDOM_JOINT_DENOM = 48


def _random_prob_vector(rng: random.Random, n: int, denom: int = 64) -> list[Fraction]:
    cuts = sorted(rng.randint(0, denom) for _ in range(n - 1))
    parts = [a - b for a, b in zip(cuts + [denom], [0] + cuts)]
    return [Fraction(p, denom) for p in parts]


def random_conditional_indep_instance(seed: int) -> ConditionalIndepInstance:
    n = RANDOM_INSTANCE_SIDE
    rng = random.Random(seed)
    delta = Fraction(rng.randint(0, 31), 64)  # keep delta < 1/2
    ax = _random_prob_vector(rng, n)
    ay = _random_prob_vector(rng, n)
    rest = _random_prob_vector(rng, n * n)
    return ConditionalIndepInstance([
        [((1 - delta) * ax[i] * ay[k], delta * rest[i * n + k]) for k in range(n)]
        for i in range(n)
    ])


def random_coupling_instance(seed: int) -> CouplingInstance:
    n = RANDOM_INSTANCE_SIDE
    rng = random.Random(seed)
    q1 = _random_prob_vector(rng, n)
    q2 = _random_prob_vector(rng, n)
    w = [[[[ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for xp, yp in itertools.product(range(n), repeat=2):
        mass = q1[xp] * q2[yp]
        if mass:
            kernel = _random_prob_vector(rng, n * n)
            for x, y in itertools.product(range(n), repeat=2):
                w[x][xp][y][yp] = mass * kernel[x * n + y]
    return CouplingInstance(w)


def random_joint(seed: int, n1: int, n2: int) -> JointMeasure:
    """A random exact joint measure on two integer line spaces."""
    rng = random.Random(seed)
    s1, s2 = line_space(range(n1)), line_space(range(n2))
    flat = _random_prob_vector(rng, n1 * n2, denom=RANDOM_JOINT_DENOM)
    w = tuple(tuple(flat[i * n2 + k] for k in range(n2)) for i in range(n1))
    return JointMeasure(s1, s2, w)


# ---------------------------------------------------------------------------
# Gaussian family check
# ---------------------------------------------------------------------------

# gaussian_family_check: a term is bounded while its second moments and mean
# entries stay at most GAUSSIAN_MOMENT_CAP; the cross-covariance vanishes when
# its largest entry over the last quarter of the terms is below GAUSSIAN_CROSS_TOL
GAUSSIAN_MOMENT_CAP = 100.0
GAUSSIAN_CROSS_TOL = 0.05


def gaussian_family_check(means1, means2, covs):
    """Check boundedness and vanishing cross-covariance along a Gaussian sequence.

    covs is a sequence of (cov11, cov22, cov12) blocks. Returns
    (bounded, cross_vanishes, traces) where traces holds per-term max cf gaps
    on DEFAULT_CF_LATTICE.
    """
    terms = len(covs)
    if terms == 0 or len(means1) != terms or len(means2) != terms:
        raise InputError("means and covariance sequences must have equal positive length")
    bounded = True
    traces = []
    max_cross_tail = 0.0
    tail_start = terms - max(1, terms // 4)
    for idx, (a, b, blocks) in enumerate(zip(means1, means2, covs)):
        cov11 = np.atleast_2d(np.asarray(blocks[0], dtype=float))
        cov22 = np.atleast_2d(np.asarray(blocks[1], dtype=float))
        cov12 = np.asarray(blocks[2], dtype=float).reshape(cov11.shape[0], cov22.shape[0])
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        second_x = float(np.trace(cov11) + a @ a)
        second_y = float(np.trace(cov22) + b @ b)
        largest = max(second_x, second_y, np.abs(a).max(initial=0), np.abs(b).max(initial=0))
        if largest > GAUSSIAN_MOMENT_CAP:
            bounded = False
        if idx >= tail_start:
            max_cross_tail = max(max_cross_tail, float(np.abs(cov12).max()))
        best = 0.0
        for t in itertools.product(DEFAULT_CF_LATTICE, repeat=cov11.shape[0]):
            for s in itertools.product(DEFAULT_CF_LATTICE, repeat=cov22.shape[0]):
                best = max(best, gaussian_cf_gap(a, b, cov11, cov22, cov12, t, s))
        traces.append(best)
    return bounded, max_cross_tail < GAUSSIAN_CROSS_TOL, traces
