import ast
import json
import re
import shlex
import warnings
from pathlib import Path

import pytest

from plurikernel.cli import main, parse_point

import oracle


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_point_forms():
    import numpy as np

    assert np.allclose(parse_point("e1", 2), [1, 0])
    assert np.allclose(parse_point("0", 2), [0, 0])
    assert np.allclose(parse_point("0.3,0", 2), [0.3, 0])
    assert np.allclose(parse_point("1+2i,0.5", 2), [1 + 2j, 0.5])


def test_kernel_subcommand_json(capsys):
    code, out, err = run_cli(capsys, [
        "kernel", "--domain", '{"kind":"unit_ball","n":2}',
        "--pole", "e1", "--point", "0", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"value": -1.0, "provenance": "closed_form"}


def test_kernel_multiple_points_csv(capsys):
    code, out, _ = run_cli(capsys, [
        "kernel", "--domain", "unit_ball:2", "--pole", "e1",
        "--point", "0", "0.5,0", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "re_z1,re_z2,im_z1,im_z2,lo,hi"
    assert float(lines[1].split(",")[-1]) == pytest.approx(-1.0)
    assert float(lines[2].split(",")[-1]) == pytest.approx(-3.0)


def test_kernel_subcommand_interval(capsys):
    code, out, _ = run_cli(capsys, [
        "kernel", "--domain", "ellipsoid:1,2",
        "--pole", "e1", "--point", "0.5,0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["provenance"] == "sandwich_interval"
    assert payload["lo"] == pytest.approx(-3.0)
    assert payload["hi"] == pytest.approx(-2.0)


def test_reproduce_subcommand_csv(capsys):
    code, out, _ = run_cli(capsys, [
        "reproduce", "--domain", "unit_ball:2", "--f", "re(z1)",
        "--z", "0.3,0", "0,0", "--resolution", "64", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].endswith("reproduced")
    row1 = [float(x) for x in lines[1].split(",")]
    row2 = [float(x) for x in lines[2].split(",")]
    assert row1[-1] == pytest.approx(0.3, abs=1e-6)
    assert row2[-1] == pytest.approx(0.0, abs=1e-8)


def test_reproduce_riesz_flags(capsys):
    argv = ["reproduce", "--domain", "disc", "--f", "z1*conj(z1)", "--laplacian", "4",
            "--resolution", "64", "--radial-grid", "120", "--angular-grid", "120", "--z"]
    points = ["0", "0.3+0.2i"]
    code, out, _ = run_cli(capsys, argv + points)
    assert code == 0
    values = json.loads(out)["values"]
    assert values[0]["value"] == pytest.approx(0.0, abs=1e-5)
    assert values[1]["value"] == pytest.approx(0.13, abs=1e-4)
    # each point prints what a run on that point alone prints
    for z, got in zip(points, values):
        _, single, _ = run_cli(capsys, argv + [z])
        assert json.loads(single) == got


def test_julia_subcommand(capsys):
    code, out, _ = run_cli(capsys, [
        "julia", "--map", '{"blaschke":{"a":0.5}}', "--p", "1", "--q", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda"] == pytest.approx(1.0 / 3.0, abs=1e-4)
    assert not payload["diverged"]


def test_julia_with_inclusion_and_equivalence(capsys):
    code, out, _ = run_cli(capsys, [
        "julia", "--map", '{"blaschke":{"a":0.5}}', "--p", "1", "--q", "1",
        "--radii", "0.5", "2", "--samples", "50", "--equivalence"])
    assert code == 0
    payload = json.loads(out)
    assert payload["inclusion"]["violations"] == 0
    assert payload["equivalence"]["all_finite"]


def test_geodesic_subcommand(capsys):
    code, out, _ = run_cli(capsys, [
        "geodesic", "--domain", "unit_ball:2", "--pole", "e1",
        "--through", "0.4,0.2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["chl"]
    assert payload["restriction_deviation"] < 1e-8


def test_green_subcommand(capsys):
    code, out, _ = run_cli(capsys, [
        "green", "--domain", "unit_ball:2", "--pole", "e1", "--point", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["normal_derivative"] == pytest.approx(-1.0, abs=1e-8)
    assert payload["deviation"] < 1e-8


def test_plotdata_format(capsys):
    code, out, _ = run_cli(capsys, [
        "green", "--domain", "disc", "--pole", "1", "--point", "0",
        "--format", "plotdata"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# h quotient")
    h, q = lines[1].split()
    assert float(h) == pytest.approx(1e-3)


def test_determinism_byte_identical(capsys):
    argv = ["julia", "--map", '{"blaschke":{"a":0.5}}', "--p", "1", "--q", "1",
            "--seed", "11"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_validation_error_exit_code(capsys):
    code, out, err = run_cli(capsys, [
        "kernel", "--domain", '{"kind":"nope"}', "--pole", "1", "--point", "0"])
    assert code == 2
    blob = json.loads(err)
    assert blob["code"] == "validation"
    assert "message" in blob and "context" in blob


def test_numerical_error_exit_code(capsys):
    code, _, err = run_cli(capsys, [
        "kernel", "--domain", '{"kind":"custom","psi":"z1*conj(z1)-1","n":1}',
        "--pole", "1", "--point", "0"])
    assert code == 3
    assert json.loads(err)["code"] == "numerical"


def test_disc_pole_inside_circle_is_json_error(capsys):
    code, out, err = run_cli(capsys, [
        "kernel", "--domain", "disc", "--pole", "0.9999999995", "--point", "0.9999999995"])
    assert (code, out) == (2, "")
    blob = json.loads(err)
    assert blob["code"] == "validation"
    assert blob["message"] == "kernel evaluated at its pole"


def test_resolution_validation(capsys):
    code, _, err = run_cli(capsys, [
        "reproduce", "--domain", "disc", "--f", "re(z1)", "--z", "0",
        "--resolution", "2"])
    assert code == 2
    assert json.loads(err)["code"] == "validation"


def test_negative_point_component(capsys):
    code, out, err = run_cli(capsys, [
        "kernel", "--domain", "unit_ball:2", "--pole", "e1", "--point", "-0.3,0"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["provenance"] == "closed_form"
    assert payload["value"] == pytest.approx(-0.91 / 1.69, rel=1e-15)


def test_negative_point_after_positive(capsys):
    code, out, err = run_cli(capsys, [
        "kernel", "--domain", "unit_ball:2", "--pole", "e1",
        "--point", "0.1,0", "-0.3,0", "-.5i,0"])
    assert (code, err) == (0, "")
    values = [v["value"] for v in json.loads(out)["values"]]
    assert values == pytest.approx([-0.99 / 0.81, -0.91 / 1.69, -0.75 / 1.25], rel=1e-15)


def test_usage_error_is_json(capsys):
    code, out, err = run_cli(capsys, ["kernel", "--domain", "unit_ball:2", "--point", "0"])
    assert (code, out) == (2, "")
    blob = json.loads(err)
    assert blob["code"] == "validation"
    assert "--pole" in blob["message"]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, [
        "kernel", "--domain", "disc", "--pole", "1", "--point", "0",
        "--output", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["value"] == -1.0


def test_bounds_subcommand(capsys):
    code, out, _ = run_cli(capsys, [
        "bounds", "--domain", "ellipsoid:1,2", "--pole", "e1",
        "--point", "0.5,0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["lo"] == pytest.approx(-3.0)
    assert payload["hi"] == pytest.approx(-2.0)
    assert payload["lower_envelope"] <= payload["hi"]


def test_rule_export(tmp_path, capsys):
    target = tmp_path / "rule.csv"
    code, _, _ = run_cli(capsys, [
        "reproduce", "--domain", "disc", "--f", "re(z1)", "--z", "0",
        "--resolution", "8", "--export-rule", str(target)])
    assert code == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "re_z1,im_z1,weight"
    assert len(lines) == 9


@pytest.mark.parametrize("flag, argv", [
    ("--output", ["kernel", "--domain", "disc", "--pole", "1", "--point", "0.3"]),
    ("--export-rule", ["reproduce", "--domain", "disc", "--f", "re(z1)", "--z", "0",
                       "--resolution", "8"]),
])
def test_unwritable_output_path_is_json(tmp_path, capsys, flag, argv):
    target = tmp_path / "missing" / "out"
    code, out, err = run_cli(capsys, argv + [flag, str(target)])
    assert (code, out) == (2, "")
    blob = json.loads(err)
    assert blob["code"] == "validation"
    assert blob["context"] == {"command": argv[0]}
    assert str(target) in blob["message"]


@pytest.mark.parametrize("argv", [
    ["--domain", "disc", "--f", "log(abs(z1-1))", "--z", "0.2", "--resolution", "8"],
    ["--domain", "unit_ball:2", "--f", "sqrt(re(z1))", "--z", "0.2,0", "--resolution", "8"],
    ["--domain", "disc", "--f", "z1*conj(z1)", "--laplacian", "1/im(z1)", "--z", "0",
     "--resolution", "16"],
], ids=["log_at_node", "sqrt_of_negative", "laplacian_pole"])
def test_reproduce_non_finite_field_is_json_error(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, ["reproduce"] + argv)
    assert (code, out, caught) == (2, "", [])
    blob = json.loads(err)
    assert blob["code"] == "validation"
    assert "not finite" in blob["message"]


@pytest.mark.parametrize("domain, z", [("disc", "0.3"), ("unit_ball:2", "0.3,0")])
def test_reproduce_constant_field(capsys, domain, z):
    code, out, err = run_cli(capsys, [
        "reproduce", "--domain", domain, "--f", "1", "--z", z, "--resolution", "32"])
    assert (code, err) == (0, "")
    assert json.loads(out)["reproduced"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("argv", [
    ["julia", "--map", '{"blaschke":{}}', "--p", "1", "--q", "1"],
    ["julia", "--map", '{"power":"x"}', "--p", "1", "--q", "1"],
    ["julia", "--map", "not_json", "--p", "1", "--q", "1"],
    ["kernel", "--domain", '{"kind":"unit_ball"}', "--pole", "e1", "--point", "0"],
    ["kernel", "--domain", "{bad", "--pole", "e1", "--point", "0"],
    ["julia", "--map", '{"unitary":[[[1,0],[1,0]]]}', "--p", "1", "--q", "1"],
    ["julia", "--map", '{"power":2.5}', "--p", "1", "--q", "1"],
    ["julia", "--map", '{"identity":true}', "--p", "1", "--q", "1"],
    ["kernel", "--domain", '{"kind":"unit_ball","n":2.7}', "--pole", "e1", "--point", "0"],
], ids=["missing_key", "bad_type", "map_not_json", "missing_n", "domain_not_json",
        "non_square_unitary", "float_count", "bool_count", "float_n"])
def test_malformed_spec_is_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    blob = json.loads(err)
    assert blob["code"] == "validation"
    assert blob["context"] == {"command": argv[0]}


_GEODESIC = ["geodesic", "--domain", "unit_ball:2", "--pole", "e1", "--through", "0.3,0"]
_JULIA = ["julia", "--map", '{"blaschke":{"a":0.5}}', "--p", "1", "--q", "1"]
_RIESZ = ["reproduce", "--domain", "disc", "--f", "re(z1)", "--z", "0.3", "--laplacian", "0"]
_GREEN = ["green", "--domain", "unit_ball:2", "--pole", "e1", "--point", "0.3,0"]
#: A ball in C^2 whose radius is a JSON constant Python's json module reads (NaN, Infinity).
_NONFINITE_BALL = '{"kind":"ball","center":[[0,0],[0,0]],"radius":%s}'


@pytest.mark.parametrize("argv, subject", [
    (_GEODESIC + ["--grid", "-5"], "grid"),
    (_GEODESIC + ["--grid", "0"], "grid"),
    (_JULIA + ["--radii", "0"], "radii"),
    (_JULIA + ["--radii", "-0.5"], "radii"),
    (_JULIA + ["--radii", "-1"], "radii"),
    (_JULIA + ["--radii", "inf"], "radii"),
    (_JULIA + ["--radii", "1", "--samples", "0"], "samples_per_radius"),
    (_JULIA + ["--radii", "1", "--samples", "-4"], "samples_per_radius"),
    (_JULIA + ["--grid-count", "0"], "grid_count"),
    (_RIESZ + ["--radial-grid", "0"], "polar grid"),
    (_RIESZ + ["--angular-grid", "-1"], "polar grid"),
    (_GREEN + ["--h0", "nan"], "initial step"),
    (_GREEN + ["--h0", "0"], "initial step"),
    (_JULIA + ["--seed", "-1"], "seed"),
    (_RIESZ[:-2] + ["--resolution", "100000000000"], "cap of 2^24"),
    (["reproduce", "--domain", "unit_ball:2", "--f", "re(z1)", "--z", "0.3,0",
      "--resolution", "257"], "cap of 2^24"),
    *[([command, "--domain", f"ellipsoid:1,{a}", "--pole", "e1", "--point", "0.5,0"],
       "ellipsoid coefficients") for command in ("kernel", "bounds") for a in ("nan", "inf")],
    *[([command, "--domain", _NONFINITE_BALL % r, "--pole", "e1", option, "0.5,0"], "ball radius")
      for command, option in (("kernel", "--point"), ("geodesic", "--through"),
                              ("green", "--point"))
      for r in ("NaN", "Infinity")],
    # the real Hessian diag(2a) of these coefficients overflows
    *[([command, "--domain", "ellipsoid:1e308,1", "--pole", "0,1", "--point", "0.6,0.8j"],
       "ellipsoid coefficients must be at most") for command in ("kernel", "bounds")],
], ids=["grid_negative", "grid_zero", "radius_zero", "radius_negative_fraction",
        "radius_minus_one", "radius_inf", "samples_zero", "samples_negative",
        "grid_count_zero", "radial_grid_zero", "angular_grid_negative", "h0_nan", "h0_zero", "seed_negative",
        "resolution_above_cap_disc", "resolution_above_cap_ball",
        "kernel_ellipsoid_nan", "kernel_ellipsoid_inf",
        "bounds_ellipsoid_nan", "bounds_ellipsoid_inf",
        "kernel_ball_nan", "kernel_ball_inf", "geodesic_ball_nan", "geodesic_ball_inf",
        "green_ball_nan", "green_ball_inf",
        "kernel_ellipsoid_hessian_overflow", "bounds_ellipsoid_hessian_overflow"])
def test_out_of_range_sizes_are_json(capsys, argv, subject):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    blob = json.loads(err)
    assert blob["code"] == "validation"
    assert blob["context"] == {"command": argv[0]}
    assert subject in blob["message"]


@pytest.mark.parametrize("domain", [
    "unit_ball:2",
    '{"kind":"ball","center":[[0.2,0],[0,-0.1]],"radius":0.6}',
])
def test_geodesic_csv_rows_are_kernel_values(capsys, domain):
    import numpy as np

    from plurikernel import domain_from_json, geodesic_through, kernel_value

    dom = domain_from_json(domain)
    pole = "e1" if dom.radius == 1.0 else "0.8,-0.1i"
    code, out, _ = run_cli(capsys, ["geodesic", "--domain", domain, "--pole", pole,
                                    "--through", "0.3,0", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,omega_on_geodesic"
    g = geodesic_through(parse_point("0.3,0", 2), parse_point(pole, 2),
                         center=dom.center, radius=dom.radius)
    ts = np.linspace(-0.95, 0.95, 97)
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert table[:, 0].tolist() == ts.tolist()
    # the kernel at the rows of one phi call, within 3 eps / (1 - |w|^2) relative
    # of the point calls there and within 8 of those units of the mpmath kernel
    rows = g.phi(ts)
    points = [kernel_value(dom, g.boundary_point, w).value for w in rows]
    between, truth = oracle.kernel_row_errors(dom, g.boundary_point, rows, (table[:, 1],), (points,), None)
    assert between <= 3 and truth <= 8


def _readme_cli_examples():
    """(command line, JSON shown in the comment below it or None) from the README's sh blocks."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        lines = block.splitlines() + [""]
        for line, after in zip(lines, lines[1:]):
            if line.startswith("plurikernel "):
                examples.append((line, after[2:] if after.startswith("# {") else None))
    return examples


def test_readme_cli_examples(capsys):
    examples = _readme_cli_examples()
    assert len(examples) >= 7
    for line, shown in examples:
        code, out, err = run_cli(capsys, shlex.split(line)[1:])
        assert (code, err) == (0, ""), line
        if shown is not None:
            # "..." in the README stands for a value it does not show
            want = json.loads(shown.replace("...", '"..."'))
            got = json.loads(out)
            assert set(got) == set(want), line
            assert {k: got[k] for k in want if want[k] != "..."} == \
                {k: v for k, v in want.items() if v != "..."}, line


#: A comment that is a single number: the value of the statement on its line.
_NUMBER_COMMENT = re.compile(r"#\s*(-?\d+(?:\.\d+)?(?:e[+-]?\d+)?)\s*$")


def test_readme_python_examples():
    """Runs the README's python blocks statement by statement and checks every `# <number>`."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    compared = 0
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        lines = block.splitlines()
        namespace = {}
        for stmt in ast.parse(block).body:
            shown = _NUMBER_COMMENT.search(lines[stmt.end_lineno - 1])
            if shown is None:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
                continue
            assert isinstance(stmt, ast.Expr), lines[stmt.end_lineno - 1]
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert got == float(shown.group(1)), lines[stmt.end_lineno - 1]
            compared += 1
    assert compared >= 3


def test_bounds_refused_above_the_frame_dimension_cap(capsys):
    # refused before any n x n array is built; the ball's kernel needs no frame
    argv = ["--domain", "unit_ball:100000", "--pole", "e1", "--point", "0"]
    code, out, err = run_cli(capsys, ["bounds", *argv])
    assert (code, out) == (2, "")
    blob = json.loads(err)
    assert blob["code"] == "validation"
    assert "up to dimension n = 128" in blob["message"]
    code, out, _ = run_cli(capsys, ["kernel", *argv])
    assert code == 0 and json.loads(out)["value"] == -1.0
