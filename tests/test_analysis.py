import math
from fractions import Fraction

import pytest

from asymdep import (
    CapabilityError,
    InputError,
    SweepSpec,
    classify_decay,
    report_markdown,
    sweep,
)
from asymdep import families
from asymdep.analysis import METRICS, build_family, FAMILY_NAMES
from asymdep.cli import main
from asymdep.io import read_report_csv

F = Fraction


# ---------------------------------------------------------------------------
# Decay classification
# ---------------------------------------------------------------------------

def test_classify_power_law_decay_converges():
    series = [(n, 1.0 / n) for n in range(1, 9)]
    v = classify_decay(series)
    assert v.verdict == "CONVERGES"
    assert v.model == "power"
    assert v.rate == pytest.approx(-1.0, abs=1e-6)


def test_classify_exponential_decay_converges():
    series = [(n, 0.5 ** n) for n in range(1, 9)]
    v = classify_decay(series)
    assert v.verdict == "CONVERGES"
    assert v.model == "exponential"
    assert v.rate == pytest.approx(math.log(0.5), abs=1e-6)


def test_classify_constant_series_stalls():
    assert classify_decay([(n, 0.25) for n in range(1, 9)]).verdict == "STALLS"


def test_classify_slow_inverse_sqrt_converges_from_four_points():
    series = [(1, 0.25), (2, 0.125), (3, 0.125), (4, 0.09375)]
    assert classify_decay(series).verdict == "CONVERGES"


def test_classify_alternating_series_is_inconclusive():
    for phase in (0, 1):
        series = [(n, 0.1 if (n + phase) % 2 else 0.9) for n in range(1, 9)]
        assert classify_decay(series).verdict == "INCONCLUSIVE"


def test_classify_zero_tail_converges():
    v = classify_decay([(1, 0.5), (2, 0.1), (3, 0.0), (4, 0.0)])
    assert v.verdict == "CONVERGES"
    assert v.model == "zero-tail"


def test_classify_needs_at_least_four_points():
    with pytest.raises(InputError):
        classify_decay([(1, 1.0), (2, 0.5), (3, 0.25)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_classify_refuses_a_non_finite_value(bad):
    with pytest.raises(InputError, match=f"classify_decay needs finite values, got {bad} at n = 2"):
        classify_decay([(1, 0.5), (2, bad), (3, 0.2), (4, 0.1)])


def test_classify_refuses_a_repeated_n():
    with pytest.raises(InputError, match="classify_decay needs distinct n, got n = 1 twice"):
        classify_decay([(1, 0.5), (1, 0.4), (2, 0.2), (3, 0.1), (4, 0.05)])


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_sweep_spec_validation():
    with pytest.raises(InputError):
        SweepSpec("markov_shift", (3, 2), ("alpha",))
    with pytest.raises(InputError):
        SweepSpec("markov_shift", (1, 2, 3, 4), ("no_such_metric",))


def test_sweep_spec_refuses_a_repeated_metric_before_any_cell_runs():
    # the spec itself refuses it, so sweep never computes a cell twice
    with pytest.raises(InputError, match=r"more than once: \['bl'\]"):
        SweepSpec("bernoulli_perturbation", (2, 3, 4, 5), ("bl", "alpha", "bl"))


def test_build_family_rejects_unknown_name():
    with pytest.raises(InputError):
        build_family("mystery", 3)
    assert set(FAMILY_NAMES) == {"binary_coding", "bernoulli_perturbation", "markov_shift"}


@pytest.mark.parametrize("name,params,message", [
    ("markov_shift", {"P": Fraction(1, 3)}, "family 'markov_shift' takes no parameter 'P'; it takes 'p'"),
    ("binary_coding", {"p": Fraction(1, 3)},
     "family 'binary_coding' takes no parameter 'p'; it takes no parameters"),
    ("bernoulli_perturbation", {"n": 3},
     "family 'bernoulli_perturbation' takes no parameter 'n'; it takes no parameters"),
])
def test_build_family_refuses_a_parameter_the_family_does_not_take(name, params, message):
    with pytest.raises(InputError) as exc:
        build_family(name, 2, params)
    assert str(exc.value) == message
    with pytest.raises(InputError) as exc:
        sweep(SweepSpec(name, (2, 3, 4, 5), ("variation",), family_params=params))
    assert str(exc.value) == message


def test_binary_coding_sweep_separates_rectangle_and_integral_scales():
    spec = SweepSpec(
        family="binary_coding",
        n_values=(1, 2, 3, 4),
        metrics=("variation", "alpha", "bl"),
    )
    report = sweep(spec)
    assert report.verdicts["AI-3"].verdict == "CONVERGES"
    assert report.verdicts["AI-1"].verdict == "STALLS"
    assert report.verdicts["AI-4"].verdict == "STALLS"
    # variation stays pinned at 1 for every n
    assert all(v == 1.0 for _, v in report.series("variation"))


def test_bernoulli_sweep_separates_prokhorov_and_rectangle_scales():
    spec = SweepSpec(
        family="bernoulli_perturbation",
        n_values=(2, 4, 8, 16),
        metrics=("rectangle", "prokhorov"),
    )
    report = sweep(spec)
    assert report.verdicts["AI-2"].verdict == "STALLS"
    assert report.verdicts["AI-1"].verdict == "CONVERGES"
    assert all(v == 0.125 for _, v in report.series("rectangle"))


def test_markov_sweep_converges_in_every_condition():
    spec = SweepSpec(
        family="markov_shift",
        n_values=tuple(range(1, 9)),
        metrics=("variation", "beta", "alpha", "rectangle", "prokhorov", "bl", "cov_sup", "cf"),
        family_params={"p": F(1, 4)},
    )
    report = sweep(spec)
    for condition in ("AI-4", "AI-3", "AI-2", "AI-1", "AI-0"):
        verdict = report.verdicts[condition]
        assert verdict.verdict == "CONVERGES", condition
    # flip probability 1/4 gives exact rate log(1/2) for the exact metrics
    assert report.verdicts["AI-3"].rate == pytest.approx(math.log(0.5), abs=1e-6)


def test_bernoulli_sweep_takes_ai0_from_fixed_test_functions():
    # the family satisfies AI-1, hence AI-0, but not AI-2: cov_sup = 4 alpha is
    # a rectangle functional (AI-3) and stalls, the fixed cf lattice converges
    spec = SweepSpec(
        family="bernoulli_perturbation",
        n_values=(2, 4, 8, 16),
        metrics=("alpha", "cov_sup", "cf"),
    )
    report = sweep(spec)
    assert report.verdicts["AI-3"].verdict == "STALLS"
    assert report.verdicts["AI-0"].verdict == "CONVERGES"


def test_sweep_reports_capability_gaps_without_aborting():
    # binary_coding declares no fixed AI-2 rectangle
    spec = SweepSpec(
        family="binary_coding",
        n_values=(1, 2, 3, 4),
        metrics=("alpha", "rectangle"),
    )
    report = sweep(spec)
    rect_rows = [r for r in report.rows if r.metric == "rectangle"]
    assert len(rect_rows) == 4
    capped = [r for r in rect_rows if r.value is None]
    assert capped and all(r.note for r in capped)
    # alpha still produced a full series and a verdict
    assert len(report.series("alpha")) == 4
    assert report.verdicts["AI-3"].verdict == "CONVERGES"


def test_sweep_reports_a_family_it_cannot_build_as_gap_rows(monkeypatch):
    # binary_coding n is refused once 2^n exceeds the cap: n >= 4 under a cap of 8
    monkeypatch.setattr(families, "LINE_SPACE_MAX_POINTS", 8)
    with pytest.raises(CapabilityError) as refused:
        build_family("binary_coding", 4)
    spec = SweepSpec("binary_coding", (1, 2, 3, 4, 5), ("variation", "alpha", "prokhorov"))
    report = sweep(spec)
    assert len(report.rows) == 15
    for r in report.rows:
        if r.n <= 3:
            assert r.value is not None and not r.note
        else:
            assert r.value is None and not r.exact
            assert r.mode == METRICS[r.metric].mode
    assert {r.note for r in report.rows if r.n == 4} == {str(refused.value)}
    assert {r.note for r in report.rows if r.n == 5} == {"binary coding n=5 has 2^5 points, above LINE_SPACE_MAX_POINTS"}
    assert report.series("variation") == [(1, 1.0), (2, 1.0), (3, 1.0)]


def test_cli_sweep_past_an_unbuildable_n_exits_zero_with_gap_rows(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(families, "LINE_SPACE_MAX_POINTS", 8)
    out = tmp_path / "report.csv"
    argv = ["sweep", "--family", "binary_coding", "--n-from", "3", "--n-to", "4",
            "--select", "variation", "--out", str(out)]
    assert main(argv) == 0
    rows = read_report_csv(str(out))
    assert [(r["n"], r["value"]) for r in rows] == [(3, 1), (4, None)]
    assert "LINE_SPACE_MAX_POINTS" in rows[1]["certificate_ref"]
    assert "| binary_coding | 4 | variation | - |" in capsys.readouterr().out


def test_sweep_is_deterministic():
    spec = SweepSpec(
        family="markov_shift",
        n_values=(1, 2, 3, 4),
        metrics=("alpha", "variation"),
        family_params={"p": F(1, 3)},
    )
    r1, r2 = sweep(spec), sweep(spec)
    assert r1.rows == r2.rows
    assert r1.verdicts == r2.verdicts


def test_report_markdown_mentions_each_metric_and_verdict():
    spec = SweepSpec("markov_shift", (1, 2, 3, 4), ("alpha",), family_params={"p": F(1, 4)})
    text = report_markdown(sweep(spec))
    assert "alpha" in text
    assert "AI-3" in text
    assert "CONVERGES" in text


def test_sweep_and_classify_from_n_zero_return_a_verdict(capsys):
    spec = SweepSpec("markov_shift", (0, 1, 2, 3, 4), ("variation", "alpha"))
    report = sweep(spec)
    assert report.verdicts["AI-4"].verdict == "CONVERGES"
    assert report.verdicts["AI-3"].verdict == "CONVERGES"
    # the power model is fitted on n >= 1 only; the exponential one on every point
    v = classify_decay([(0, 1.0), (1, 1.0), (2, 0.5), (3, 1 / 3), (4, 0.25)])
    assert (v.verdict, v.model) == ("CONVERGES", "power")
    assert v.rate == pytest.approx(-1.0, abs=1e-6)
    v = classify_decay([(0, 1.0), (1, 0.5), (2, 0.25), (3, 0.125)])
    assert (v.verdict, v.model) == ("CONVERGES", "exponential")
    argv = ["sweep", "--family", "markov_shift", "--n-from", "0", "--n-to", "4",
            "--select", "variation,alpha"]
    assert main(argv) == 0
    assert "| markov_shift | 0 | variation | 1 |" in capsys.readouterr().out
