import json
import re
import shlex
from pathlib import Path

import pytest

from plurikernel.cli import main, parse_point


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
    code, out, _ = run_cli(capsys, [
        "reproduce", "--domain", "disc", "--f", "z1*conj(z1)",
        "--laplacian", "4", "--z", "0", "--resolution", "64",
        "--radial-grid", "120", "--angular-grid", "120"])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(0.0, abs=1e-5)


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


@pytest.mark.parametrize("argv", [
    ["julia", "--map", '{"blaschke":{}}', "--p", "1", "--q", "1"],
    ["julia", "--map", '{"power":"x"}', "--p", "1", "--q", "1"],
    ["julia", "--map", "not_json", "--p", "1", "--q", "1"],
    ["kernel", "--domain", '{"kind":"unit_ball"}', "--pole", "e1", "--point", "0"],
    ["kernel", "--domain", "{bad", "--pole", "e1", "--point", "0"],
    ["julia", "--map", '{"unitary":[[[1,0],[1,0]]]}', "--p", "1", "--q", "1"],
], ids=["missing_key", "bad_type", "map_not_json", "missing_n", "domain_not_json",
        "non_square_unitary"])
def test_malformed_spec_is_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    blob = json.loads(err)
    assert blob["code"] == "validation"
    assert blob["context"] == {"command": argv[0]}


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
