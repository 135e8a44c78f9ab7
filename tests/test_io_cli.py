import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymdep import (
    CapabilityError,
    DiscreteMeasure,
    FiniteMetricSpace,
    InputError,
    JointMeasure,
    LPResult,
    LPStatus,
    SweepSpec,
    line_space,
    sweep,
)
from asymdep import io, metrics, spaces
from asymdep.analysis import build_family
from asymdep.cli import main
from asymdep.families import bernoulli_perturbation_family, random_joint
from asymdep.spaces import LINE_SPACE_MAX_POINTS

F = Fraction


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------

def test_measure_json_round_trip_is_exact(tmp_path):
    s = line_space([0.0, 0.5, 1.0])
    m = DiscreteMeasure(s, (F(1, 3), F(1, 3), F(1, 3)))
    path = tmp_path / "m.json"
    io.save_measure(m, str(path))
    back = io.load_measure(str(path))
    assert isinstance(back, DiscreteMeasure)
    assert back.weights == m.weights
    assert list(back.space.labels) == list(s.labels)


def test_joint_json_round_trip_is_exact(tmp_path):
    j = random_joint(4, 3, 4)
    path = tmp_path / "j.json"
    io.save_measure(j, str(path))
    back = io.load_measure(str(path))
    assert isinstance(back, JointMeasure)
    assert back.weights == j.weights


def _float_distance_joint():
    s1, s2 = line_space([0.1, 0.7, 2 / 3]), line_space([-1.25, 0.3])
    raw = [[1, 2], [3, 0], [5, 1]]
    return JointMeasure(s1, s2, tuple(tuple(F(x, 12) for x in row) for row in raw))


@pytest.mark.parametrize("joint", [True, False])
def test_saved_json_is_compact_and_parses_to_the_dict(tmp_path, joint):
    j = _float_distance_joint()
    obj = j if joint else DiscreteMeasure(j.space1, (F(1, 2), F(0), F(1, 2)))
    d = io.joint_to_dict(obj) if joint else io.measure_to_dict(obj)
    path = tmp_path / "j.json"
    io.save_measure(obj, str(path))
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(d) + "\n"
    assert json.loads(text) == d


def _assert_bit_identical(back, j):
    assert back.weights == j.weights
    for mine, theirs in [(back.space1, j.space1), (back.space2, j.space2)]:
        assert mine.labels == theirs.labels
        assert (mine.coords is None) == (theirs.coords is None)
        for a, b in [(mine.dist, theirs.dist), (mine.coords, theirs.coords)]:
            if b is None:
                continue
            assert a.dtype == b.dtype == np.float64
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _dyadic_joint():
    s1, s2 = line_space([k / 8 for k in (-9, 0, 1, 5)]), line_space([0.375, 3.0])
    return JointMeasure(s1, s2, ((F(1, 8),) * 2,) * 4)


@pytest.mark.parametrize("joint", [
    pytest.param(lambda: build_family("binary_coding", 4, {}).joint, id="binary_coding"),
    pytest.param(lambda: build_family("markov_shift", 3, {"p": F(1, 3)}).joint, id="markov_shift"),
    pytest.param(_dyadic_joint, id="dyadic"),
    pytest.param(_float_distance_joint, id="inexact_difference"),
])
def test_exact_line_spaces_are_written_without_dist(tmp_path, joint):
    j = joint()
    path = tmp_path / "j.json"
    io.save_measure(j, str(path))
    saved = json.loads(path.read_text(encoding="utf-8"))
    assert "dist" not in saved["space1"] and "dist" not in saved["space2"]
    _assert_bit_identical(io.load_measure(str(path)), j)


def _nudged_line():
    x = np.array([0.0, 0.5, 2.0])
    d = np.abs(x[:, None] - x[None, :])
    d[0, 2] = d[2, 0] = np.nextafter(2.0, 3.0)
    return FiniteMetricSpace(("a", "b", "c"), d, coords=x)


def _tenths_with_a_moved_entry():
    # one entry of the 0.1 k line metric 1 ulp up, on rows of the first and last blocks of 64
    x = 0.1 * np.arange(130)
    d = np.abs(x[:, None] - x[None, :])
    d[3, 129] = d[129, 3] = np.nextafter(d[3, 129], np.inf)
    return FiniteMetricSpace(tuple(map(str, range(130))), d, coords=x)


def _square():
    d = np.array([[0.0, 1.0, 2 ** 0.5], [1.0, 0.0, 1.0], [2 ** 0.5, 1.0, 0.0]])
    return FiniteMetricSpace(("a", "b", "c"), d, coords=[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])


def _diagonal_joint(s):
    return JointMeasure(s, s, tuple(tuple(F(int(r == c), len(s)) for c in range(len(s)))
                                    for r in range(len(s))))


def _old_format_tenths_file(path):
    """A file of an earlier version: a 130-point 0.1 k line written with its "dist"."""
    x = 0.1 * np.arange(130)
    space = {"labels": [str(k) for k in range(130)],
             "dist": np.abs(x[:, None] - x[None, :]).tolist(), "coords": x.tolist()}
    path.write_text(json.dumps({"space1": space, "space2": space,
                                "weights": [["1/16900"] * 130] * 130}), encoding="utf-8")
    return path


@pytest.mark.parametrize("joint", [
    pytest.param(lambda path: build_family("binary_coding", 4, {}).joint, id="family_line"),
    pytest.param(lambda path: _diagonal_joint(_square()), id="2d_coords"),
    pytest.param(lambda path: io.load_measure(str(_old_format_tenths_file(path))),
                 id="old_format_line_dist"),
])
def test_a_saved_file_is_one_json_dumps_of_its_dict(tmp_path, joint):
    j = joint(tmp_path / "old.json")
    path = tmp_path / "j.json"
    io.save_measure(j, str(path))
    assert path.read_bytes() == (json.dumps(io.joint_to_dict(j)) + "\n").encode()


@pytest.mark.parametrize("space", [
    {"labels": ["a", "b"]},
    {"labels": ["a", "b"], "coords": None},
    {"labels": ["a", "b"], "coords": [[0.0, 0.0], [1.0, 0.0]]},
])
def test_a_space_without_dist_or_1d_coords_is_the_constructors_input_error(space):
    with pytest.raises(InputError) as exc:
        io.space_from_dict(space)
    assert str(exc.value) == "a space without a distance matrix needs 1-D coords"


def test_a_loaded_matrix_space_holds_the_matrix_read_without_a_copy(monkeypatch):
    given = []
    cls = io.FiniteMetricSpace
    monkeypatch.setattr(io, "FiniteMetricSpace",
                        lambda labels, dist, **kw: given.append(dist) or cls(labels, dist, **kw))
    s = io.space_from_dict(io.space_to_dict(_square()))
    assert s.dist is given[0] and not s.dist.flags.writeable


@pytest.mark.parametrize("space", [
    pytest.param(_nudged_line, id="mismatched_entry"),
    pytest.param(_tenths_with_a_moved_entry, id="mismatched_entry_130"),
    pytest.param(_square, id="2d_coords"),
    pytest.param(lambda: FiniteMetricSpace(("a", "b"), [[0.0, 1.0], [1.0, 0.0]]), id="no_coords"),
])
def test_other_spaces_keep_their_dist(tmp_path, space):
    s = space()
    assert not s._line and io.space_to_dict(s)["dist"] == s.dist.tolist()
    j = _diagonal_joint(s)
    path = tmp_path / "j.json"
    io.save_measure(j, str(path))
    _assert_bit_identical(io.load_measure(str(path)), j)


def _checked_on_the_built_matrix(labels, coords, scan=False):
    """The space, or the InputError message, of the constructor given the
    full matrix |fl(x_i - x_j)| built from coords; with ``scan``, of the full
    check run on it, scan included, where a certificate would pass it."""
    x = np.array(coords, dtype=float).reshape(-1)
    with np.errstate(invalid="ignore", over="ignore"):
        full = np.abs(np.subtract.outer(x, x))
    try:
        with np.errstate(over="ignore"):
            s = FiniteMetricSpace(labels, full, coords=coords, validate=not scan)
            if scan:
                s._check(s.dist, s.coords)
            return s
    except InputError as exc:
        return str(exc)


_rng = np.random.default_rng(3)
LOADER_CORPUS = {
    "ints": list(range(-40, 200, 3)),
    "ints_wide": [0, 1, 5000, 2 ** 40, -(2 ** 45)],
    "dyadics": [k / 64 for k in (-900, -3, 0, 1, 77, 2 ** 20)],
    "tenths": [0.1 * k for k in range(90)],
    "tenths_wide": [0.1 * k for k in range(90)] + [1e5],
    "large_spread_inexact": [-0.8122808264515302, 303.18594544552593, 786634.0851152702],
    "uniform_1e6": list(_rng.uniform(0.0, 1e6, 80)),
    "uniform_1e4": list(_rng.uniform(0.0, 1e4, 80)),
    "exact_without_unit": [1.0 - 2.0 ** 53, 2.0 ** 53 - 1.0],
    "zero_and_2^100": [0.0, 2.0 ** 100],
    "spread_squared_overflows": [0.0, 2.0 ** 600],
    "duplicates": [0.0, 1.0, 2.0, 1.0],
    "signed_zeros": [0.0, -0.0, 3.0],
    "duplicates_wide": [0.1, 1e6, 0.1],
    "inf": [0.0, float("inf"), 1.0],
    "-inf": [float("-inf"), 0.0],
    "nan": [0.0, float("nan"), 1.0],
    "nan_and_duplicates": [float("nan"), 1.0, 1.0],
    "spread_overflows": [-1e308, 1e308],
    "spread_overflows_with_duplicates": [-1e308, 1e308, 1e308],
    "single": [5.0],
    "empty": [],
    "column": [[0.0], [0.5], [3.0]],
}


@pytest.mark.parametrize("name", LOADER_CORPUS)
def test_a_coords_only_space_loads_as_the_check_on_its_built_matrix_does(name):
    coords = LOADER_CORPUS[name]
    labels = [str(i) for i in range(len(coords))]
    want = _checked_on_the_built_matrix(tuple(labels), coords)
    try:
        got = io.space_from_dict({"labels": labels, "coords": coords})
    except InputError as exc:
        got = str(exc)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got._line and got.labels == want.labels
    assert got.coords.tobytes() == want.coords.tobytes()
    assert got.dist.tobytes() == want.dist.tobytes()


@pytest.mark.parametrize("name", LOADER_CORPUS)
def test_a_line_given_its_matrix_gets_the_verdict_of_the_full_check(name):
    coords = LOADER_CORPUS[name]
    labels = tuple(str(i) for i in range(len(coords)))
    want = _checked_on_the_built_matrix(labels, coords, scan=True)
    got = _checked_on_the_built_matrix(labels, coords)
    if isinstance(want, str):
        assert got == want
        return
    assert got._line and got.dist.tobytes() == want.dist.tobytes()


def test_a_coords_only_space_with_fewer_labels_keeps_the_shape_message():
    with pytest.raises(InputError, match=r"distance matrix shape \(3, 3\) does not match 2 labels"):
        io.space_from_dict({"labels": ["a", "b"], "coords": [0, 1, 2]})


@pytest.mark.parametrize("name", ["ints_wide", "dyadics", "tenths", "exact_without_unit"])
def test_a_coords_only_space_is_saved_as_the_built_matrix_is(name):
    coords = LOADER_CORPUS[name]
    labels = tuple(str(i) for i in range(len(coords)))
    line = FiniteMetricSpace(labels, None, coords=coords)
    assert io.space_to_dict(line) == io.space_to_dict(_checked_on_the_built_matrix(labels, coords))


def test_the_binary_coding_n12_file_loads_without_a_distance_matrix(tmp_path):
    path = tmp_path / "bc12.json"
    io.save_measure(build_family("binary_coding", 12, {}).joint, str(path))
    tracemalloc.start()
    try:
        j = io.load_measure(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20  # the 4096-point dist alone takes 128 MB
    assert j.space2._dist is None and j.space2.dist.shape == (4096, 4096)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=12, unique=True))
def test_every_line_space_built_can_be_saved_and_loaded(tmp_path_factory, points):
    try:
        s = line_space(points)
    except InputError:
        return
    j = _diagonal_joint(s)
    path = tmp_path_factory.mktemp("line") / "j.json"
    io.save_measure(j, str(path))
    _assert_bit_identical(io.load_measure(str(path)), j)


def test_a_file_with_the_dist_of_an_exact_line_loads_to_the_same_space():
    j = _dyadic_joint()
    d = io.joint_to_dict(j)
    for key, space in [("space1", j.space1), ("space2", j.space2)]:
        d[key] = {"labels": d[key]["labels"], "dist": space.dist.tolist(),
                  "coords": d[key]["coords"]}
    _assert_bit_identical(io.measure_from_dict(d), j)


def test_a_file_with_the_dist_of_a_tenths_line_loads_as_that_line(tmp_path, monkeypatch):
    # a file of an earlier version: 0.1 k, 130 points, with "dist" and 1-D coords
    x = 0.1 * np.arange(130)
    d = np.abs(x[:, None] - x[None, :])
    labels = [str(k) for k in range(130)]
    space = {"labels": labels, "dist": d.tolist(), "coords": x.tolist()}
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"space1": space, "weights": ["1/130"] * 130}), encoding="utf-8")
    scans = []
    scan = spaces._check_triangles
    monkeypatch.setattr(spaces, "_check_triangles", lambda dist: scans.append(1) or scan(dist))
    m = io.load_measure(str(path))
    assert m.space._line and scans == []
    io.save_measure(m, str(path))
    assert json.loads(path.read_text(encoding="utf-8"))["space1"] == {
        "labels": labels, "coords": x[:, None].tolist()}
    back = io.load_measure(str(path)).space
    assert back._line and back.coords.tobytes() == x.tobytes()
    assert back.dist.tobytes() == d.tobytes()


def test_indented_json_from_earlier_versions_loads(tmp_path):
    j = _float_distance_joint()
    path = tmp_path / "j.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(io.joint_to_dict(j), fh, indent=2)
    assert io.joint_to_dict(io.load_measure(str(path))) == io.joint_to_dict(j)


def test_float_weights_renormalize_within_tolerance(tmp_path):
    s = line_space([0.0, 1.0, 2.0])
    d = io.measure_to_dict(DiscreteMeasure(s, (F(1, 3),) * 3))
    d["weights"] = [0.333333333, 0.333333333, 0.333333334]
    m = io.measure_from_dict(d)
    assert sum(m.weights) == 1


def test_badly_normalized_weights_are_rejected(tmp_path):
    s = line_space([0.0, 1.0])
    d = io.measure_to_dict(DiscreteMeasure(s, (F(1, 2), F(1, 2))))
    d["weights"] = [0.7, 0.7]
    with pytest.raises(InputError):
        io.measure_from_dict(d)


def test_malformed_json_raises_input_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InputError):
        io.load_measure(str(path))


def _two_by_one_dict(weights):
    s1, s2 = line_space([0.0, 1.0]), line_space([0.0])
    j = JointMeasure(s1, s2, ((F(1, 2),), (F(1, 2),)))
    d = io.joint_to_dict(j)
    d["weights"] = weights
    return d


@pytest.mark.parametrize("weights", [
    [["1/2"], ["1/2", "0"]],        # a long row: was truncated to its first entry
    [["1/2", "1/2"], ["0"]],        # a short row: was a bare IndexError
    [["1/2"], "1/2"],               # a row that is not a list
])
def test_ragged_weight_rows_are_rejected_by_row(weights):
    with pytest.raises(InputError, match="weights row 1 "):
        io.measure_from_dict(_two_by_one_dict(weights))


@pytest.mark.parametrize("weights", [[[True], [False]], [["1/2"], [False]]])
def test_bool_weights_are_rejected(weights):
    with pytest.raises(InputError, match="is not a number"):
        io.measure_from_dict(_two_by_one_dict(weights))


@pytest.mark.parametrize("entry", ["1/0", "abc", float("nan"), float("inf")])
def test_unparseable_weights_are_input_errors(entry):
    with pytest.raises(InputError, match="is not a finite rational"):
        io.measure_from_dict(_two_by_one_dict([["1/2"], [entry]]))


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------

def test_report_csv_round_trip(tmp_path):
    report = sweep(SweepSpec("bernoulli_perturbation", (2, 3, 4, 5), ("rectangle", "prokhorov")))
    path = tmp_path / "report.csv"
    io.write_report_csv(report.rows, str(path))
    rows = io.read_report_csv(str(path))
    assert len(rows) == len(report.rows)
    by_key = {(r["n"], r["metric"]): r for r in rows}
    assert by_key[(2, "rectangle")]["value"] == F(1, 8)
    assert by_key[(2, "rectangle")]["exact"] is True
    assert by_key[(3, "prokhorov")]["exact"] is False


def test_plot_data_and_series_csv(tmp_path):
    report = sweep(SweepSpec("bernoulli_perturbation", (2, 3, 4, 5), ("prokhorov",)))
    path = tmp_path / "plot.csv"
    io.write_plot_data(report, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == ["n", "prokhorov"]
    assert len(lines) == 5
    series = io.read_series_csv(str(path))
    assert [n for n, _ in series] == [2, 3, 4, 5]


def test_value_round_trip_formats():
    assert io.parse_value(io.value_to_str(F(3, 7), True)) == F(3, 7)
    assert io.parse_value(io.value_to_str(0.125, False)) == 0.125


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------

def test_cli_gen_then_metrics(tmp_path, capsys):
    joint_path = tmp_path / "joint.json"
    assert main(["gen", "--family", "bernoulli_perturbation", "--n", "4",
                 "--out", str(joint_path)]) == 0
    assert joint_path.exists()
    back = io.load_measure(str(joint_path))
    assert back.weights == bernoulli_perturbation_family(4).joint.weights

    out_csv = tmp_path / "metrics.csv"
    code = main(["metrics", "--joint", str(joint_path),
                 "--select", "variation,alpha,cov_sup", "--out", str(out_csv)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "variation: 1" in printed
    assert "alpha: 1/4" in printed
    rows = io.read_report_csv(str(out_csv))
    assert {r["metric"] for r in rows} == {"variation", "alpha", "cov_sup"}


def test_cli_missing_file_is_input_error(tmp_path, capsys):
    assert main(["metrics", "--joint", str(tmp_path / "nope.json")]) == 1
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "binary_coding", "--n", "abc", "--out", "x.json"],
    ["metrics", "--joint", "x.json", "--product-metric", "foo"],
    ["sweep", "--family", "binary_coding", "--n-from", "1", "--n-to", "2",
     "--product-metric", "foo"],
    ["gen", "--family", "binary_coding", "--n", "3"],  # no --out
    ["frobnicate"],
    [],
])
def test_cli_usage_errors_exit_one(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--help"], ["gen", "--help"], ["metrics", "--help"]])
def test_cli_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: asymdep" in capsys.readouterr().out


def test_cli_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2", encoding="utf-8")
    assert main(["metrics", "--joint", str(path)]) == 1


def _bad_joint_files():
    """(name, JSON text) of joint files that must load as input errors."""
    good = io.joint_to_dict(_float_distance_joint())
    out = []
    for name, entry in [("zero_denominator", "1/0"), ("not_a_number", "abc"),
                        ("nan", float("nan"))]:
        d = json.loads(json.dumps(good))
        d["weights"][0][0] = entry
        out.append((name, d))
    for name, key, value in [
        ("ragged_dist", "dist", [[0.0, 1.0], [1.0]]),
        ("text_dist", "dist", [["0", "x"], ["x", "0"]]),
        ("ragged_coords", "coords", [[0.0], [1.0, 2.0]]),
        ("text_coords", "coords", ["a", "b"]),
        ("nan_coords", "coords", [[float("nan")], [0.3]]),
    ]:
        d = json.loads(json.dumps(good))
        d["space2"][key] = value
        out.append((name, d))
    # space2 stored by its coords alone, as the writer stores an exact line
    for name, coords in [
        ("no_dist_no_coords", None),
        ("no_dist_2d_coords", [[0.0, 0.0], [1.0, 0.0]]),
        ("no_dist_repeated_coords", [0.0, 0.0]),
        ("no_dist_ragged_coords", [[0.0], [1.0, 2.0]]),
        ("no_dist_text_coords", ["a", "b"]),
        ("no_dist_nan_coords", [[float("nan")], [0.3]]),
    ]:
        d = json.loads(json.dumps(good))
        d["space2"] = {"labels": d["space2"]["labels"]}
        if coords is not None:
            d["space2"]["coords"] = coords
        out.append((name, d))
    # JSON values that are not objects where an object is expected
    out.append(("top_level_number", 5))
    out.append(("top_level_list", [good]))
    for key in ("space1", "space2"):
        d = json.loads(json.dumps(good))
        d[key] = [1, 2]
        out.append((f"list_{key}", d))
    d = json.loads(json.dumps(good))
    d["space1"]["labels"] = 5
    out.append(("number_labels", d))
    out.append(("number_measure_weights", {"space1": good["space1"], "weights": 5}))
    return [(name, json.dumps(d)) for name, d in out]


@pytest.mark.parametrize("name,text", _bad_joint_files(), ids=[n for n, _ in _bad_joint_files()])
def test_cli_unparseable_joint_is_input_error(tmp_path, capsys, name, text):
    path = tmp_path / f"{name}.json"
    path.write_text(text, encoding="utf-8")
    assert main(["metrics", "--joint", str(path), "--select", "variation"]) == 1
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("value", ["abc", "1/0"])
def test_cli_gen_with_a_non_rational_param_is_input_error(tmp_path, capsys, value):
    out = tmp_path / "joint.json"
    argv = ["gen", "--family", "markov_shift", "--n", "2", "--param", f"p={value}",
            "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("input error: ")
    assert not out.exists()


@pytest.mark.parametrize("family,param,takes", [
    ("markov_shift", "P=1/3", "'p'"),
    ("binary_coding", "p=1/3", "no parameters"),
    ("bernoulli_perturbation", "p=1/3", "no parameters"),
])
def test_cli_gen_with_a_param_the_family_does_not_take_is_input_error(
        tmp_path, capsys, family, param, takes):
    out = tmp_path / "joint.json"
    assert main(["gen", "--family", family, "--n", "2", "--param", param, "--out", str(out)]) == 1
    key = param.split("=")[0]
    assert capsys.readouterr().err == (
        f"input error: family {family!r} takes no parameter {key!r}; it takes {takes}\n")
    assert not out.exists()


def test_cli_sweep_with_a_param_the_family_does_not_take_is_input_error(capsys):
    argv = ["sweep", "--family", "markov_shift", "--n-from", "1", "--n-to", "4",
            "--select", "variation", "--param", "P=1/3"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "input error: family 'markov_shift' takes no parameter 'P'; it takes 'p'\n")


@pytest.mark.parametrize("rows,message", [
    ("1,0.5\n2,nan\n3,0.2\n4,0.1\n", "needs finite values, got nan at n = 2"),
    ("1,0.5\n1,0.4\n2,0.2\n3,0.1\n4,0.05\n", "needs distinct n, got n = 1 twice"),
])
def test_cli_classify_of_a_nan_or_a_repeated_n_is_input_error(tmp_path, capsys, rows, message):
    path = tmp_path / "series.csv"
    path.write_text(rows, encoding="utf-8")
    assert main(["classify", "--in", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("row", ["1,abc", "x,0.5", "1", "1,1/0",
                                 pytest.param("1," + "9" * 400, id="1,beyond_float")])
def test_cli_classify_with_an_unparseable_row_is_input_error(tmp_path, capsys, row):
    path = tmp_path / "series.csv"
    path.write_text(f"n,value\n2,0.5\n{row}\n", encoding="utf-8")
    assert main(["classify", "--in", str(path)]) == 1
    assert capsys.readouterr().err.startswith("input error: ")


def test_cli_classify_refuses_plot_data_of_two_metrics(tmp_path, capsys):
    # variation is constant 1 (STALLS) and alpha decays: one verdict cannot stand for both
    plot_csv = tmp_path / "plot.csv"
    assert main([
        "sweep", "--family", "binary_coding", "--n-from", "1", "--n-to", "6",
        "--select", "variation,alpha", "--emit-plot-data", str(plot_csv),
    ]) == 0
    capsys.readouterr()
    assert main(["classify", "--in", str(plot_csv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "line 1 has 3 columns, not (n, value)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("missing", ["-", ""])
def test_cli_classify_skips_rows_with_a_missing_value(tmp_path, capsys, missing):
    path = tmp_path / "series.csv"
    path.write_text(f"1,1/4\n2,1/4\n3,1/4\n4,1/4\n5,{missing}\n", encoding="utf-8")
    assert io.read_series_csv(str(path)) == [(n, 0.25) for n in range(1, 5)]
    assert main(["classify", "--in", str(path)]) == 0
    assert capsys.readouterr().out == "STALLS\n"


def _coords_only_joint(n):
    """A joint file whose first space is an n-point line stored by its coords alone."""
    return {
        "space1": {"labels": [str(i) for i in range(n)], "coords": list(range(n))},
        "space2": {"labels": ["0"], "coords": [0.0]},
        "weights": [[f"1/{n}"] for _ in range(n)],
    }


@pytest.mark.parametrize("n", [LINE_SPACE_MAX_POINTS + 1, 2 ** 16])
def test_loading_coords_above_the_line_space_cap_fails_before_allocating(n):
    d = _coords_only_joint(n)["space1"]
    tracemalloc.start()
    try:
        with pytest.raises(CapabilityError, match="LINE_SPACE_MAX_POINTS"):
            io.space_from_dict(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # linear in the input (labels and coords), where the rebuilt dist takes 8 n^2 bytes
    assert peak < max(2 ** 20, 32 * n)


def test_cli_metrics_on_coords_above_the_line_space_cap_is_exit_code_two(tmp_path, capsys):
    path = tmp_path / "joint.json"
    path.write_text(json.dumps(_coords_only_joint(LINE_SPACE_MAX_POINTS + 1)), encoding="utf-8")
    assert main(["metrics", "--joint", str(path), "--select", "variation"]) == 2
    assert capsys.readouterr().err.startswith("capability error: ")


def test_cli_gen_above_the_line_space_cap_is_exit_code_two(tmp_path, capsys):
    out = tmp_path / "joint.json"
    assert main(["gen", "--family", "binary_coding", "--n", "13", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("capability error: ")
    assert not out.exists()


def test_cli_capability_cutoff_is_exit_code_two(tmp_path, capsys):
    # the 12 x 64 product support has 768 points, above BL_SUPPORT_CUTOFF
    joint_path = tmp_path / "joint.json"
    main(["gen", "--family", "binary_coding", "--n", "6", "--out", str(joint_path)])
    assert main(["metrics", "--joint", str(joint_path), "--select", "bl"]) == 2
    assert "capability error" in capsys.readouterr().err


def test_cli_prokhorov_cutoff_is_exit_code_two(tmp_path, capsys):
    # the 18 x 512 product support has 9216 points, above PROKHOROV_SUPPORT_CUTOFF
    joint_path = tmp_path / "joint.json"
    main(["gen", "--family", "binary_coding", "--n", "9", "--out", str(joint_path)])
    assert main(["metrics", "--joint", str(joint_path), "--select", "prokhorov"]) == 2
    assert "capability error" in capsys.readouterr().err


def test_cli_bl_of_an_independent_joint_prints_zero(tmp_path, capsys):
    # p = 1/2 makes X_0 and X_1 independent, and the LP optimum can be -0.0
    joint_path = tmp_path / "joint.json"
    main(["gen", "--family", "markov_shift", "--n", "1", "--param", "p=1/2",
          "--out", str(joint_path)])
    capsys.readouterr()
    assert main(["metrics", "--joint", str(joint_path), "--select", "bl"]) == 0
    assert capsys.readouterr().out.split() == ["bl:", "0.0", "(exact=False)"]


def test_cli_solver_failure_is_exit_code_four(tmp_path, capsys, monkeypatch):
    joint_path = tmp_path / "joint.json"
    main(["gen", "--family", "bernoulli_perturbation", "--n", "2", "--out", str(joint_path)])
    monkeypatch.setattr(metrics, "solve_lp", lambda lp: LPResult(LPStatus.INFEASIBLE, None, None))
    assert main(["metrics", "--joint", str(joint_path), "--select", "bl"]) == 4
    assert "solver error" in capsys.readouterr().err


def test_cli_sweep_and_classify(tmp_path, capsys):
    report_csv = tmp_path / "report.csv"
    plot_csv = tmp_path / "plot.csv"
    code = main([
        "sweep", "--family", "markov_shift", "--n-from", "1", "--n-to", "6",
        "--select", "alpha", "--param", "p=1/4",
        "--out", str(report_csv), "--emit-plot-data", str(plot_csv),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "CONVERGES" in printed
    assert report_csv.exists() and plot_csv.exists()

    assert main(["classify", "--in", str(plot_csv)]) == 0
    assert "CONVERGES" in capsys.readouterr().out


def test_cli_verify_filter_runs_single_criterion(capsys):
    assert main(["verify", "--filter", "matrix"]) == 0
    printed = capsys.readouterr().out
    assert "[PASS]" in printed
    assert "1/1 criteria passed" in printed


def test_cli_rejects_unknown_metric(tmp_path, capsys):
    joint_path = tmp_path / "joint.json"
    main(["gen", "--family", "bernoulli_perturbation", "--n", "2", "--out", str(joint_path)])
    assert main(["metrics", "--joint", str(joint_path), "--select", "entropy"]) == 1


@pytest.mark.parametrize("n", [20, 30])
def test_alpha_and_cov_sup_stay_exact_beyond_the_float_range(n, tmp_path, capsys):
    # with p = 1/(2^61 - 1) the dependence matrix's numerators pass 2^1024
    p = Fraction(1, 2 ** 61 - 1)
    alpha = abs(1 - 2 * p) ** n / 4
    joint = build_family("markov_shift", n, {"p": p}).joint
    assert metrics.alpha_coefficient(joint).value == alpha
    assert metrics.cov_sup_pm1(joint).value == 4 * alpha
    path = tmp_path / "ms.json"
    assert main(["gen", "--family", "markov_shift", "--n", str(n),
                 "--param", f"p={p}", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["metrics", "--joint", str(path), "--select", "alpha,cov_sup"]) == 0
    printed = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert printed == {"alpha": f"{alpha} (exact=True)", "cov_sup": f"{4 * alpha} (exact=True)"}
