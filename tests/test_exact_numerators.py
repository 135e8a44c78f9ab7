"""The integer-numerator measure algebra against the per-entry Fraction oracle."""
import copy
import math
import pickle
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from asymdep import (
    DependenceMatrix,
    DiscreteMeasure,
    InputError,
    JointMeasure,
    Numerators,
    ProductMetricKind,
    dependence_matrix,
    joint_and_product_on_product,
    line_space,
    marginals,
    metrics,
    variation_norm,
)
from asymdep import io
from fraction_oracle import dependence_entries, lcm_scaled, variation
from fraction_oracle import marginals as oracle_marginals

F = Fraction

# raw weights up to 2^70 over denominators both shared (a few small ones) and
# distinct (up to 2^70); normalizing mixes the denominators further
raw_weights = st.builds(
    F,
    st.integers(min_value=0, max_value=2 ** 70),
    st.one_of(st.sampled_from([1, 2, 3, 6, 2 ** 70]), st.integers(min_value=1, max_value=2 ** 70)),
)


@st.composite
def joint_weights(draw):
    """A Fraction probability matrix of 1..5 x 1..5, some rows and columns zero."""
    m, k = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    raw = draw(st.lists(st.lists(raw_weights, min_size=k, max_size=k), min_size=m, max_size=m))
    zero_rows = draw(st.sets(st.integers(0, m - 1), max_size=m - 1))
    zero_cols = draw(st.sets(st.integers(0, k - 1), max_size=k - 1))
    raw = [
        [F(0) if i in zero_rows or c in zero_cols else x for c, x in enumerate(row)]
        for i, row in enumerate(raw)
    ]
    total = sum(map(sum, raw))
    assume(total > 0)
    return tuple(tuple(x / total for x in row) for row in raw)


def joint_of(w) -> JointMeasure:
    return JointMeasure(line_space(range(len(w))), line_space(range(len(w[0]))), w)


def assert_lowest_terms(num_rows, den, want):
    """num / den is the Fraction matrix want, and num and den share no factor."""
    assert den > 0
    assert all(type(x) is int for row in num_rows for x in row)
    assert [[F(x, den) for x in row] for row in num_rows] == [list(row) for row in want]
    assert math.gcd(den, *(x for row in num_rows for x in row)) == 1


@settings(max_examples=150, deadline=None)
@given(w=joint_weights())
def test_measures_hold_lowest_terms_numerators_and_their_views(w):
    j = joint_of(w)
    assert j.weights == w
    assert_lowest_terms(j.num, j.den, w)
    again = JointMeasure(j.space1, j.space2, Numerators([[3 * x for x in r] for r in j.num], 3 * j.den))
    assert (again.num, again.den) == (j.num, j.den)
    assert again.weights == w
    rows, cols = oracle_marginals(w)
    mx, my = marginals(j)
    assert (mx.weights, my.weights) == (rows, cols)
    assert_lowest_terms([mx.num], mx.den, [rows])
    assert_lowest_terms([my.num], my.den, [cols])


@settings(max_examples=150, deadline=None)
@given(w=joint_weights())
def test_dependence_matrix_and_variation_match_the_oracle(w):
    want = dependence_entries(w)
    d = dependence_matrix(joint_of(w))
    assert d.entries == want
    assert_lowest_terms(d.num, d.den, want)
    mv = variation_norm(d)
    total, signs = variation(want)
    assert mv.value == total
    assert mv.certificate["signs"] == signs


@settings(max_examples=100, deadline=None)
@given(w=joint_weights())
def test_best_signs_hands_the_kernel_the_lcm_scaled_matrix(w):
    seen = []
    kernel = metrics.hypercube_bilinear_max

    def spy(inst, mode="exact"):
        seen.append(inst.matrix)
        return kernel(inst, mode=mode)

    with mock.patch.object(metrics, "hypercube_bilinear_max", spy):
        f, agg, scale = metrics._best_signs(dependence_matrix(joint_of(w)), "exact")
    n, want_scale = lcm_scaled(dependence_entries(w))
    assert scale == want_scale
    (matrix,) = seen
    assert matrix.tolist() == n
    assert all(type(x) is int for x in matrix.flat)
    assert agg == [sum(s * x for s, x in zip(f, col)) for col in zip(*n)]


@settings(max_examples=100, deadline=None)
@given(w=joint_weights())
def test_product_laws_and_files_match_the_oracle(w):
    j = joint_of(w)
    rows, cols = oracle_marginals(w)
    law, prod = joint_and_product_on_product(j, ProductMetricKind.SUM)
    assert law.weights == tuple(x for row in w for x in row)
    assert prod.weights == tuple(r * c for r in rows for c in cols)
    assert_lowest_terms([prod.num], prod.den, [prod.weights])
    d = io.joint_to_dict(j)
    assert d["weights"] == [[str(x) for x in row] for row in w]
    back = io.measure_from_dict(d)
    assert back.weights == w and (back.num, back.den) == (j.num, j.den)


def test_numerators_are_checked():
    s = line_space([0.0, 1.0])
    assert DiscreteMeasure(s, Numerators([2, 6], 8)).weights == (F(1, 4), F(3, 4))
    for bad in (Numerators([1, 1], 0), Numerators([1, 1], -2), Numerators([F(1), 1], 2),
                Numerators([1, 1], 3), Numerators([-1, 3], 2), Numerators([1], 1)):
        with pytest.raises(InputError):
            DiscreteMeasure(s, bad)
    with pytest.raises(InputError):
        DependenceMatrix(s, s, Numerators([[1, -1], [0, 0]], 4))  # columns sum to +-1/4


def test_measures_are_immutable_and_copy_and_pickle():
    s = line_space([0.0, 1.0])
    j = JointMeasure(s, s, ((F(1, 2), 0), (0, F(1, 2))))
    for m in (j, marginals(j)[0], dependence_matrix(j)):
        with pytest.raises(AttributeError):
            m.den = 2
        for again in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert type(again) is type(m)
            assert (again.num, again.den) == (m.num, m.den)
