import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from asymdep import (
    CapabilityError,
    ConditionalIndepInstance,
    CouplingInstance,
    FiniteMetricSpace,
    InputError,
    alpha_coefficient,
    bernoulli_perturbation_family,
    binary_coding_family,
    binary_coding_h_matrix,
    chi,
    conditional_independence_bound_check,
    coupling_tv_bound_check,
    dependence_matrix,
    gaussian_family_check,
    h_eval,
    integral_gap,
    line_space,
    marginals,
    markov_block_family,
    markov_shift_family,
    rectangle_gap,
    sign_fn,
    tent,
    two_state_chain,
    variation_norm,
)
from asymdep import families, spaces
from asymdep.families import (
    binary_coding_weight,
    matrix_power,
    random_conditional_indep_instance,
    random_coupling_instance,
)

F = Fraction


# ---------------------------------------------------------------------------
# Pointwise building blocks
# ---------------------------------------------------------------------------

def test_chi_and_sign_values():
    # 5 = 101 in binary
    assert [chi(i, 5) for i in range(4)] == [1, 0, 1, 0]
    assert [sign_fn(i, 5) for i in range(3)] == [1, -1, 1]
    with pytest.raises(InputError):
        chi(-1, 0)


def test_tent_values():
    assert tent(0.0, 0.0) == 1.0
    assert tent(0.125, 0.0) == pytest.approx(0.5)
    assert tent(0.25, 0.0) == 0.0
    assert tent(0.1, 0.1) == pytest.approx(0.2)
    assert tent(1.0, 1.0) == 0.0


def test_h_eval_picks_the_single_active_tent():
    # near (0, 5): chi(0,5) = 1, so h follows the tent
    assert h_eval(0.1, 5.05) == pytest.approx(0.4)
    # near (1, 5): chi(1,5) = 0, so h vanishes
    assert h_eval(1.05, 5.1) == 0.0
    # outside all tent supports
    assert h_eval(0.5, 5.5) == 0.0
    assert h_eval(-3.0, 2.0) == 0.0


# ---------------------------------------------------------------------------
# Binary coding family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_binary_coding_marginals_are_uniform(n):
    inst = binary_coding_family(n)
    mx, my = marginals(inst.joint)
    assert mx.weights == (F(1, 2 * n),) * (2 * n)
    assert my.weights == (F(1, 2 ** n),) * (2 ** n)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_binary_coding_dependence_entries(n):
    d = dependence_matrix(binary_coding_family(n).joint).entries
    unit = F(1, n * 2 ** (n + 1))
    assert all(abs(x) == unit for row in d for x in row)


@pytest.mark.parametrize("n", range(1, 7))
def test_binary_coding_integral_gap_is_exactly_one_quarter(n):
    inst = binary_coding_family(n)
    assert integral_gap(inst.joint, binary_coding_h_matrix(n)) == F(1, 4)


def test_binary_coding_weight_formula():
    # weight rows i < n carry chi, rows i >= n its complement
    assert binary_coding_weight(3, 0, 5) == F(1, 24)
    assert binary_coding_weight(3, 1, 5) == 0
    assert binary_coding_weight(3, 3, 5) == 0
    assert binary_coding_weight(3, 4, 5) == F(1, 24)


def test_binary_coding_rejects_out_of_range_level():
    with pytest.raises(InputError):
        binary_coding_family(0)
    with pytest.raises(CapabilityError):
        binary_coding_family(17)


@pytest.mark.parametrize("n", [13, 16, 64, 10 ** 9])
def test_binary_coding_above_the_line_space_cap_fails_at_once(n):
    # 2^13 > LINE_SPACE_MAX_POINTS = 4096; nothing of size 2^n is built
    tracemalloc.start()
    try:
        with pytest.raises(CapabilityError, match="LINE_SPACE_MAX_POINTS"):
            binary_coding_family(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


# ---------------------------------------------------------------------------
# Bernoulli perturbation family
# ---------------------------------------------------------------------------

def test_bernoulli_perturbation_structure():
    inst = bernoulli_perturbation_family(4)
    j = inst.joint
    assert [float(w) for row in j.weights for w in row if w] == [0.25] * 4
    mx, my = marginals(j)
    assert mx.weights == (F(1, 4),) * 4
    assert my.weights == (F(1, 2), F(1, 2))
    a, b = inst.params["rectangle"]
    assert rectangle_gap(j, a, b) == F(1, 8)


def test_bernoulli_perturbation_needs_distinct_atoms():
    with pytest.raises(InputError):
        bernoulli_perturbation_family(1)


# ---------------------------------------------------------------------------
# Markov shift family
# ---------------------------------------------------------------------------

def test_matrix_power_exact():
    t = ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))
    t3 = matrix_power(t, 3)
    expected = t
    for _ in range(2):
        expected = tuple(
            tuple(sum(expected[i][k] * t[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )
    assert t3 == expected
    assert matrix_power(t, 0) == ((F(1), F(0)), (F(0), F(1)))


@pytest.mark.parametrize("n", range(1, 9))
def test_two_state_chain_alpha_is_geometric(n):
    p = F(1, 4)
    t, pi = two_state_chain(p)
    inst = markov_shift_family(t, pi, n)
    assert alpha_coefficient(inst.joint).value == (1 - 2 * p) ** n / 4


def test_markov_shift_marginals_are_stationary():
    t, pi = two_state_chain(F(1, 3))
    inst = markov_shift_family(t, pi, 5)
    mx, my = marginals(inst.joint)
    assert mx.weights == pi
    assert my.weights == pi


def test_markov_shift_rejects_non_stationary_vector():
    t, _ = two_state_chain(F(1, 4))
    with pytest.raises(InputError):
        markov_shift_family(t, (F(1, 3), F(2, 3)), 2)
    with pytest.raises(InputError):
        markov_shift_family(((F(1, 2), F(1, 3)), (F(1, 2), F(1, 2))), (F(1, 2), F(1, 2)), 1)


def test_three_state_chain_alpha_rate_matches_second_eigenvalue():
    # doubly stochastic chain with eigenvalues 1, 1/4, 1/4
    q = F(1, 4)
    t = ((F(1, 2), q, q), (q, F(1, 2), q), (q, q, F(1, 2)))
    pi = (F(1, 3),) * 3
    alphas = [
        alpha_coefficient(markov_shift_family(t, pi, n).joint).value for n in range(3, 9)
    ]
    ratios = [float(b / a) for a, b in zip(alphas, alphas[1:])]
    for r in ratios:
        assert abs(r - 0.25) < 0.05 * 0.25


def test_markov_block_family_matches_block_stationary_law():
    t, pi = two_state_chain(F(1, 4))
    inst = markov_block_family(t, pi, 6, width=2)
    mx, my = marginals(inst.joint)
    # stationary law of (X_0, X_1): pi_i t_ij over the 4 product states
    expected = tuple(pi[i] * t[i][j] for i in range(2) for j in range(2))
    assert mx.weights == expected
    assert my.weights == expected
    assert inst.params["width"] == 2


def test_markov_block_alpha_decays_with_n():
    t, pi = two_state_chain(F(1, 4))
    a = [
        alpha_coefficient(markov_block_family(t, pi, n, width=2).joint).value
        for n in (2, 4, 6)
    ]
    assert a[0] > a[1] > a[2]


# ---------------------------------------------------------------------------
# Sufficient-condition checkers
# ---------------------------------------------------------------------------

def test_conditional_independence_zero_delta_means_zero_alpha():
    inst = random_conditional_indep_instance(0)
    # rebuild with the complement slice emptied, all mass on the factorizing slice
    w = tuple(
        tuple((a / (1 - inst.delta), F(0)) for a, _ in row) for row in inst.weights
    )
    clean = type(inst)(w)
    assert clean.delta == 0
    alpha, bound, holds = conditional_independence_bound_check(clean)
    assert alpha == 0 and bound == 0 and holds


@pytest.mark.parametrize("seed", range(20))
def test_conditional_independence_bound_holds(seed):
    inst = random_conditional_indep_instance(seed)
    alpha, bound, holds = conditional_independence_bound_check(inst)
    assert holds
    assert alpha <= bound


@pytest.mark.parametrize("seed", range(20))
def test_coupling_tv_bound_holds(seed):
    inst = random_coupling_instance(seed)
    tv, bound, holds = coupling_tv_bound_check(inst)
    assert holds
    assert tv == variation_norm(dependence_matrix(inst.xy_marginal())).value


# Independent oracles: the checkers derive these from one JointMeasure of
# grouped variables; here they are nested sums over the four or three indices.

def _oracle_coupling(w):
    """(X, Y) law and (P{(X,Y) != (X',Y')}, P{X != X'}, P{Y != Y'}) by nested sums."""
    n1, n2 = len(w), len(w[0][0])
    cells = [
        (x, xp, y, yp)
        for x in range(n1) for xp in range(n1) for y in range(n2) for yp in range(n2)
    ]
    xy = tuple(
        tuple(sum(w[x][xp][y][yp] for xp in range(n1) for yp in range(n2)) for y in range(n2))
        for x in range(n1)
    )
    p_pair = sum(w[x][xp][y][yp] for x, xp, y, yp in cells if (x, y) != (xp, yp))
    p_x = sum(w[x][xp][y][yp] for x, xp, y, yp in cells if x != xp)
    p_y = sum(w[x][xp][y][yp] for x, xp, y, yp in cells if y != yp)
    return xy, (p_pair, p_x, p_y)


def _oracle_conditional(w):
    """(X, Y) law and delta by nested sums."""
    xy = tuple(tuple(cell[0] + cell[1] for cell in row) for row in w)
    return xy, sum(cell[1] for row in w for cell in row)


@pytest.mark.parametrize("seed", range(50))
def test_checker_laws_match_nested_sum_oracles(seed):
    coupling = random_coupling_instance(seed)
    xy, mismatch = _oracle_coupling(coupling.weights)
    assert coupling.xy_marginal().weights == xy
    assert coupling.mismatch_probabilities() == mismatch
    conditional = random_conditional_indep_instance(seed)
    xy, delta = _oracle_conditional(conditional.weights)
    assert conditional.xy_marginal().weights == xy
    assert conditional.delta == delta


def test_checkers_reuse_their_line_spaces(monkeypatch):
    coupling, conditional = random_coupling_instance(3), random_conditional_indep_instance(3)

    def rebuilt(*args, **kwargs):
        raise AssertionError("a checker built a line space after its constructor")

    monkeypatch.setattr(families, "line_space", rebuilt)
    for inst in (coupling, conditional):
        a, b = inst.xy_marginal(), inst.xy_marginal()
        assert a.space1 is b.space1 and a.space2 is b.space2
    # E1 = E2 = {0, 1, 2}: one space serves both factors
    assert coupling.pair_spaces[0] is coupling.pair_spaces[1]
    assert conditional.y_space is conditional.joint.space1


def test_checker_weights_stay_nested_fractions():
    coupling = CouplingInstance(_coupling_weights({**_GOOD_COUPLING, (0, 0, 0, 0): "1/4"}))
    assert coupling.weights[0][0][0][0] == F(1, 4)
    assert coupling.weights[1][1][1][1] == F(1, 4)
    assert all(type(v) is F for a in coupling.weights for b in a for c in b for v in c)
    row = (("1/4", 0), ("1/4", 0))
    conditional = ConditionalIndepInstance([row, row])
    assert conditional.weights == (((F(1, 4), F(0)), (F(1, 4), F(0))),) * 2
    # the stored joint law takes no part in equality
    assert conditional == ConditionalIndepInstance(conditional.weights)


def _coupling_weights(cells, n1=2, n2=2):
    """weights[x][xp][y][yp], zero outside ``cells``."""
    return [
        [[[cells.get((x, xp, y, yp), 0) for yp in range(n2)] for y in range(n2)]
         for xp in range(n1)]
        for x in range(n1)
    ]


# X = X' and Y = Y', with (X', Y') uniform on {0, 1}^2
_GOOD_COUPLING = {(x, x, y, y): F(1, 4) for x in range(2) for y in range(2)}


def _ragged_coupling(hidden):
    w = _coupling_weights(_GOOD_COUPLING)
    w[1][1][0].pop()  # a zero weight: the weights still sum to 1
    if hidden:  # and the flat count is 16 again
        w[1][1][1].append(0)
    return w


@pytest.mark.parametrize("weights,message", [
    (_coupling_weights({**_GOOD_COUPLING, (0, 0, 0, 0): F(3, 8), (0, 1, 0, 0): F(-1, 8)}),
     "nonnegative"),
    (_coupling_weights({**_GOOD_COUPLING, (0, 0, 0, 0): F(1, 2)}), "sum to exactly 1"),
    (_coupling_weights({**_GOOD_COUPLING, (0, 0, 0, 0): "abc"}), "not a finite rational"),
    (_coupling_weights({**_GOOD_COUPLING, (0, 0, 0, 0): "1/0"}), "not a finite rational"),
    (_ragged_coupling(hidden=False), "n1 x n1 x n2 x n2 array"),
    (_ragged_coupling(hidden=True), "n1 x n1 x n2 x n2 array"),
    (_coupling_weights({(0, 0, 0, 0): F(1)})[:1], "n1 x n1 x n2 x n2 array"),  # 1 x 2 x 2 x 2
    ([[[[F(1, 4)]]]] * 4, "n1 x n1 x n2 x n2 array"),  # 4 x 1 x 1 x 1
    ([[[F(1)]]], "n1 x n1 x n2 x n2 array"),  # three levels
    # X' = Y', so the primed pair is dependent
    (_coupling_weights({(x, x, x, x): F(1, 2) for x in range(2)}), "must be independent"),
], ids=["negative", "sum_not_one", "not_rational", "zero_denominator", "ragged",
        "hidden_ragged", "x_not_square", "not_square", "too_shallow", "dependent_primed"])
def test_coupling_instance_rejects_bad_weights(weights, message):
    with pytest.raises(InputError, match=message):
        CouplingInstance(weights)


_Q = F(1, 4)


@pytest.mark.parametrize("weights,message", [
    ([[(_Q, F(-1, 8)), (_Q, F(1, 8))], [(_Q, 0), (_Q, 0)]], "nonnegative"),
    ([[(_Q, F(1, 8)), (_Q, 0)], [(_Q, 0), (_Q, 0)]], "sum to exactly 1"),
    ([[("abc", 0), (_Q, 0)], [(_Q, 0), (_Q, 0)]], "not a finite rational"),
    ([[(_Q, 0), (_Q, 0)], [(F(1, 2), 0)]], "n1 x n2 x 2 array"),
    ([[(_Q, 0), (_Q, 0), (_Q, 0)], [(_Q, 0)]], "n1 x n2 x 2 array"),  # 8 entries, ragged
    ([[(_Q, 0, 0), (_Q, 0, 0)], [(_Q, 0, 0), (_Q, 0, 0)]], "n1 x n2 x 2 array"),
    ([[(_Q, 0), "00"], [(_Q, _Q), (_Q, 0)]], "n1 x n2 x 2 array"),  # a string is no cell
    ([[(0, _Q), (0, _Q)], [(0, _Q), (0, _Q)]], "positive probability"),
    ([[(F(1, 2), 0), (0, 0)], [(0, 0), (F(1, 2), 0)]], "not conditionally independent"),
], ids=["negative", "sum_not_one", "not_rational", "ragged", "hidden_ragged",
        "three_slices", "string_cell", "empty_omega", "omega_dependent"])
def test_conditional_instance_rejects_bad_weights(weights, message):
    with pytest.raises(InputError, match=message):
        ConditionalIndepInstance(weights)


# ---------------------------------------------------------------------------
# Gaussian family check
# ---------------------------------------------------------------------------

def test_gaussian_family_with_vanishing_cross_covariance():
    terms = 8
    means = [0.0] * terms
    covs = [(1.0, 1.0, 1.0 / (n + 1) ** 2) for n in range(terms)]
    bounded, vanishes, traces = gaussian_family_check(means, means, covs)
    assert bounded and vanishes
    assert traces[0] > traces[-1]


def test_gaussian_family_with_persistent_correlation():
    terms = 8
    means = [0.0] * terms
    covs = [(1.0, 1.0, 0.5)] * terms
    bounded, vanishes, traces = gaussian_family_check(means, means, covs)
    assert bounded and not vanishes
    assert min(traces) > 0.1


def test_gaussian_family_with_exploding_moments():
    terms = 6
    means1 = [float(4 ** n) for n in range(terms)]
    means2 = [0.0] * terms
    covs = [(1.0, 1.0, 0.0)] * terms
    bounded, vanishes, _ = gaussian_family_check(means1, means2, covs)
    assert not bounded and vanishes


def _spaces_of(obj):
    if isinstance(obj, FiniteMetricSpace):
        yield obj
    for name in ("joint", "space1", "space2", "y_space"):
        if hasattr(obj, name):
            yield from _spaces_of(getattr(obj, name))
    for s in getattr(obj, "pair_spaces", ()):
        yield s


def test_family_and_grid_spaces_are_certified_without_a_matrix(monkeypatch):
    # certificate (a) (integers) or (b) (diameter <= 2^11) holds for each of
    # them, so neither the full check nor the triangle scan runs, and no
    # space builds its distance matrix
    def never(*args):
        raise AssertionError("a certified coordinate line took the full check")

    monkeypatch.setattr(FiniteMetricSpace, "_check", never)
    monkeypatch.setattr(spaces, "_check_triangles", never)
    built = [
        *(binary_coding_family(n) for n in range(1, 13)),
        *(bernoulli_perturbation_family(n) for n in (2, 3, 7, 100, 10 ** 6)),
        *(markov_shift_family(*two_state_chain(F(1, 3)), n) for n in (0, 1, 5)),
        markov_block_family(*two_state_chain(F(2, 5)), 3, 3),
        random_coupling_instance(1), random_conditional_indep_instance(1),
        families.random_joint(2, 5, 7),
        # the weak-geometry grids {0, 1/g, ..., (g-1)/g}
        *(line_space([F(i, g) for i in range(g)]) for g in range(1, 65)),
    ]
    found = [s for obj in built for s in _spaces_of(obj)]
    assert len(found) > 100
    assert all(s._line and s._dist is None for s in found)
