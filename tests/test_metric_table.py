"""The metric table: every metric name maps to a certified MetricValue, and
the metrics asked of one joint share its dependence matrix and its sign
enumeration."""
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from asymdep import (
    DependenceMatrix,
    JointMeasure,
    ProductMetricKind,
    SweepSpec,
    evaluate_certificate,
    joint_and_product_on_product,
    line_space,
    sweep,
)
from asymdep import analysis, measures, metrics
from asymdep.cli import main
from asymdep.metrics import METRICS, JointCase
from fraction_oracle import dependence_entries

F = Fraction
SUM = ProductMetricKind.SUM


@st.composite
def joints(draw):
    """A joint law of 1..5 x 1..5 with raw weights up to 2^40, some zero."""
    m, k = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    raw = draw(st.lists(st.lists(st.integers(0, 2 ** 40), min_size=k, max_size=k),
                        min_size=m, max_size=m))
    total = sum(map(sum, raw))
    assume(total > 0)
    weights = tuple(tuple(F(x, total) for x in row) for row in raw)
    return JointMeasure(line_space(range(m)), line_space(range(k)), weights)


def value(name, case):
    return METRICS[name].compute(case).value


@settings(max_examples=100, deadline=None)
@given(j=joints())
def test_table_beta_is_half_the_variation(j):
    case = JointCase(j, SUM, None)
    assert value("beta", case) == value("variation", case) / 2


@settings(max_examples=100, deadline=None)
@given(j=joints())
def test_table_cov_sup_is_four_alpha(j):
    case = JointCase(j, SUM, None)
    assert value("cov_sup", case) == 4 * value("alpha", case)


def test_table_names_every_metric_once_with_its_condition():
    assert {name: m.condition for name, m in METRICS.items()} == {
        "variation": "AI-4", "beta": "AI-4", "alpha": "AI-3", "cov_sup": "AI-3",
        "rectangle": "AI-2", "prokhorov": "AI-1", "bl": "AI-1", "cf": "AI-0",
    }
    assert analysis.METRICS is METRICS


def test_a_joint_without_a_declared_rectangle_has_no_rectangle_metric():
    case = JointCase(analysis.build_family("binary_coding", 2).joint, SUM, None)
    with pytest.raises(metrics.CapabilityError, match="no AI-2 rectangle"):
        METRICS["rectangle"].compute(case)


# The four sweeps of the benchmark, at full size.
BENCHMARK_SWEEPS = [
    pytest.param("binary_coding", range(1, 7), ("variation", "alpha", "cov_sup", "prokhorov"),
                 {}, id="binary_coding"),
    pytest.param("bernoulli_perturbation", range(2, 10),
                 ("variation", "alpha", "beta", "cov_sup", "rectangle"), {}, id="bernoulli-exact"),
    pytest.param("bernoulli_perturbation", range(2, 10), ("prokhorov", "bl", "rectangle", "cf"),
                 {}, id="bernoulli-weak"),
    pytest.param("markov_shift", range(1, 9), ("prokhorov", "bl", "rectangle", "cf"),
                 {"p": F(1, 3)}, id="markov_shift"),
]


@pytest.mark.parametrize("family, ns, select, params", BENCHMARK_SWEEPS)
def test_every_sweep_value_carries_a_certificate_that_reevaluates(family, ns, select, params):
    report = sweep(SweepSpec(family, tuple(ns), select, family_params=params))
    assert len(report.rows) == len(ns) * len(select)
    for n in ns:
        j = analysis.build_family(family, n, params).joint
        # the Fraction oracle's dependence matrix, not the one the metrics used
        dep = DependenceMatrix(j.space1, j.space2, dependence_entries(j.weights))
        mu, nu = joint_and_product_on_product(j, SUM)
        for r in (r for r in report.rows if r.n == n):
            assert r.result is not None and r.result.name == r.metric, r
            again = evaluate_certificate(r.result, dep=dep, m1=mu, m2=nu)
            if r.exact:
                assert again == r.value, r
            else:
                assert abs(again - r.value) <= 1e-9, r


def spy(monkeypatch, module, name):
    """Count the calls of module.name under every asymdep name bound to it."""
    original, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("asymdep") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize(
    "family, ns, select",
    [
        ("bernoulli_perturbation", range(2, 10), ("variation", "beta", "alpha", "cov_sup", "rectangle")),
        ("binary_coding", range(1, 7), ("variation", "alpha", "cov_sup", "prokhorov")),
        ("markov_shift", range(1, 5), ("alpha",)),
        ("markov_shift", range(1, 5), ("cov_sup", "beta")),
        ("markov_shift", range(1, 5), ("variation", "rectangle", "prokhorov", "bl", "cf")),
    ],
)
def test_a_sweep_builds_one_dependence_matrix_and_one_enumeration_per_joint(
    monkeypatch, family, ns, select
):
    deps = spy(monkeypatch, measures, "dependence_matrix")
    kernel = spy(monkeypatch, metrics, "hypercube_bilinear_max")
    report = sweep(SweepSpec(family, tuple(ns), select))
    assert all(r.result is not None for r in report.rows)
    asks_kernel = {"alpha", "cov_sup"} & set(select)
    asks_dep = asks_kernel | {"variation", "beta", "rectangle"} & set(select)
    assert len(deps) == (len(ns) if asks_dep else 0)
    assert len(kernel) == (len(ns) if asks_kernel else 0)


def test_cli_metrics_builds_one_dependence_matrix_and_one_enumeration(monkeypatch, tmp_path, capsys):
    path = tmp_path / "joint.json"
    assert main(["gen", "--family", "bernoulli_perturbation", "--n", "8", "--out", str(path)]) == 0
    deps = spy(monkeypatch, measures, "dependence_matrix")
    kernel = spy(monkeypatch, metrics, "hypercube_bilinear_max")
    argv = ["metrics", "--joint", str(path), "--select", "variation,beta,alpha,cov_sup"]
    assert main(argv) == 0
    assert (len(deps), len(kernel)) == (1, 1)
    assert "cov_sup: 1 (exact=True)" in capsys.readouterr().out
