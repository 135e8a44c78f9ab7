from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymdep import (
    DiscreteMeasure,
    InputError,
    JointMeasure,
    ProductMetricKind,
    delta,
    dependence_matrix,
    joint_and_product_on_product,
    line_space,
    marginals,
    product_measure,
    pushforward,
    pushforward_joint,
    uniform,
)
from asymdep.families import random_joint

F = Fraction


def weight_vectors(n):
    """Exact probability vectors of length n via random nonnegative integers."""
    return (
        st.lists(st.integers(min_value=0, max_value=9), min_size=n, max_size=n)
        .filter(lambda ws: sum(ws) > 0)
        .map(lambda ws: tuple(F(w, sum(ws)) for w in ws))
    )


def test_weights_must_sum_to_one_exactly():
    s = line_space([0.0, 1.0])
    with pytest.raises(InputError):
        DiscreteMeasure(s, (F(1, 2), F(1, 3)))
    with pytest.raises(InputError):
        JointMeasure(s, s, ((F(1, 2), F(0)), (F(0), F(1, 3))))


def test_negative_weights_rejected():
    s = line_space([0.0, 1.0])
    with pytest.raises(InputError):
        DiscreteMeasure(s, (F(3, 2), F(-1, 2)))


def test_marginals_of_explicit_joint():
    s1 = line_space([0.0, 1.0])
    s2 = line_space([0.0, 1.0, 2.0])
    j = JointMeasure(
        s1, s2, ((F(1, 6), F(1, 6), F(1, 6)), (F(1, 2), F(0), F(0)))
    )
    mx, my = marginals(j)
    assert mx.weights == (F(1, 2), F(1, 2))
    assert my.weights == (F(2, 3), F(1, 6), F(1, 6))


def test_product_measure_has_zero_dependence():
    s1 = line_space([0.0, 1.0, 2.0])
    s2 = line_space([0.0, 1.0])
    m1 = DiscreteMeasure(s1, (F(1, 2), F(1, 3), F(1, 6)))
    m2 = DiscreteMeasure(s2, (F(1, 4), F(3, 4)))
    p = product_measure(m1, m2)
    d = dependence_matrix(p)
    assert all(x == 0 for row in d.entries for x in row)
    px, py = marginals(p)
    assert px.weights == m1.weights
    assert py.weights == m2.weights


@pytest.mark.parametrize("seed", range(5))
def test_dependence_matrix_rows_and_columns_sum_to_zero(seed):
    j = random_joint(seed, 4, 3)
    d = dependence_matrix(j).entries
    for row in d:
        assert sum(row) == 0
    for k in range(3):
        assert sum(row[k] for row in d) == 0


def test_pushforward_merges_mass_exactly():
    s = line_space([0.0, 1.0, 2.0])
    t = line_space([0.0, 1.0])
    m = DiscreteMeasure(s, (F(1, 2), F(1, 3), F(1, 6)))
    out = pushforward(m, [0, 1, 1], t)
    assert out.weights == (F(1, 2), F(1, 2))


def test_pushforward_rejects_bad_index_map():
    s = line_space([0.0, 1.0])
    t = line_space([0.0])
    m = uniform(s)
    with pytest.raises(InputError):
        pushforward(m, [0, 5], t)
    with pytest.raises(InputError):
        pushforward(m, [0], t)


def test_pushforward_joint_commutes_with_marginals():
    j = random_joint(7, 4, 4)
    t1 = line_space([0.0, 1.0])
    t2 = line_space([0.0, 1.0, 2.0])
    u, v = [0, 0, 1, 1], [0, 2, 2, 1]
    pushed = pushforward_joint(j, u, v, t1, t2)
    mx, my = marginals(j)
    px, py = marginals(pushed)
    assert px.weights == pushforward(mx, u, t1).weights
    assert py.weights == pushforward(my, v, t2).weights


def test_joint_and_product_share_one_product_space():
    j = random_joint(11, 3, 2)
    law_joint, law_prod = joint_and_product_on_product(j, ProductMetricKind.SUM)
    assert law_joint.space is law_prod.space
    assert sum(law_joint.weights) == 1
    assert sum(law_prod.weights) == 1
    # the joint law is j's weights flattened row-major
    assert law_joint.weights == tuple(w for row in j.weights for w in row)


def test_delta_and_uniform():
    s = line_space([0.0, 1.0, 2.0])
    d = delta(s, 1)
    assert d.weights == (F(0), F(1), F(0))
    u = uniform(s)
    assert u.weights == (F(1, 3),) * 3


@settings(max_examples=50, deadline=None)
@given(w1=weight_vectors(3), w2=weight_vectors(2))
def test_product_measure_marginals_round_trip(w1, w2):
    s1 = line_space([0.0, 1.0, 2.0])
    s2 = line_space([0.0, 1.0])
    p = product_measure(DiscreteMeasure(s1, w1), DiscreteMeasure(s2, w2))
    mx, my = marginals(p)
    assert mx.weights == w1
    assert my.weights == w2


@settings(max_examples=50, deadline=None)
@given(flat=weight_vectors(6))
def test_total_mass_preserved_by_pushforward(flat):
    s1 = line_space([0.0, 1.0, 2.0])
    s2 = line_space([0.0, 1.0])
    j = JointMeasure(s1, s2, (flat[0:2], flat[2:4], flat[4:6]))
    t = line_space([0.0])
    pushed = pushforward_joint(j, [0, 0, 0], [0, 0], t, t)
    assert pushed.weights[0][0] == 1
