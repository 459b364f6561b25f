"""Command-line behavior: reports, formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from ordercone import lattices
from ordercone.braids import clear_caches
from ordercone.cli import build_parser, main, parse_cone, report_emit
from ordercone.cones import cone_from_json
from ordercone.errors import UsageError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_sign_example(capsys):
    code, out = run_cli(capsys, "sign", "--cone", "dehornoy:3",
                        "--word", "s1 S2")
    assert code == 0
    assert json.loads(out) == {"sign": "+", "seed": 0}


def test_compare(capsys):
    code, out = run_cli(capsys, "compare", "--cone", "klein:++",
                        "--left", "0,-1", "--right", "1,0")
    assert code == 0
    assert json.loads(out)["relation"] == "<"


def test_census_klein(capsys):
    code, out = run_cli(capsys, "census", "--group", "klein", "--radius", "2")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 4
    assert len(report["vectors"]) == 4


def test_census_csv_table(capsys):
    code, out = run_cli(capsys, "census", "--group", "z", "--radii", "1..4",
                        "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "radius,count"
    assert lines[1:] == ["1,2", "2,2", "3,2", "4,2"]
    code, out = run_cli(capsys, "census", "--group", "z2", "--radii", "1..3",
                        "--pin", "1,0", "--pin", "0,1", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[1:] == ["1,1", "2,2", "3,4"]


@pytest.mark.parametrize("argv, message", [
    (("--radii", "3..1"), "range a..b"),
    (("--radii", "3"), "range a..b"),
    (("--radii", "1..3", "--pin", "2,0"), "outside the ball"),
    (("--radius", "2", "--radii", "1..3"), "one of --radius and --radii"),
], ids=["descending", "no-range", "pin-outside-row", "radius-and-radii"])
def test_census_radii_usage_errors(capsys, argv, message):
    code = main(["census", "--group", "z2", *argv, "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage error: ") and message in captured.err


def test_csv_rejected_for_non_tabular(capsys):
    code, _ = run_cli(capsys, "sign", "--cone", "dehornoy:3", "--word", "s1",
                      "--format", "csv")
    assert code == 2


def test_distance_report(capsys):
    code, out = run_cli(capsys, "distance", "--cone-a", "klein:++",
                        "--cone-b", "klein:+-", "--resolution", "4")
    assert code == 0
    report = json.loads(out)
    assert report["agree_radius"] == 0
    assert report["distance"] == "2^-0"
    assert report["exact"] is True


def test_convexity_exit_codes(capsys):
    code, out = run_cli(capsys, "convexity", "--cone", "dehornoy:3",
                        "--predicate", '{"type": "braid_shift", "n": 3, "r": 1}',
                        "--radius", "3")
    assert code == 0
    code, out = run_cli(capsys, "convexity", "--cone", "dehornoy:3",
                        "--predicate",
                        '{"type": "cyclic_braid", "n": 3, "word": "s1"}',
                        "--radius", "2")
    assert code == 1
    report = json.loads(out)
    assert report["kind"] == "convexity_counterexample"
    assert report["replays"] is True


def test_ball_budget_exit_code(capsys):
    code, _ = run_cli(capsys, "ball", "--group", "braid:3", "--radius", "9")
    assert code == 3


def test_usage_error_exit_code(capsys):
    code, _ = run_cli(capsys, "sign", "--cone", "nonsense:9", "--word", "s1")
    assert code == 2


_LATTICE_SPEC = json.dumps({"k": 2, "normals": [
    [{"a": "0", "b": "0"}, {"a": "1", "b": "0"}],
    [{"a": "1", "b": "0"}, {"a": "0", "b": "0"}]]})
_LATTICE_CONE = {"type": "lattice", "spec": json.loads(_LATTICE_SPEC)}
_Z_CONE = {"type": "lattice",
           "spec": {"k": 1, "normals": [[{"a": "1", "b": "0"}]]}}
_TRIVIAL_SUBLATTICE = {"type": "lattice_sublattice", "k": 2, "basis": []}


@pytest.mark.parametrize("text, descriptor", [
    ("dehornoy:3", {"type": "dehornoy", "n": 3}),
    ("dd:4", {"type": "dd", "n": 4}),
    ("klein:+-", {"type": "klein_tararin", "sx": "+", "sy": "-"}),
    ("lattice:" + _LATTICE_SPEC, _LATTICE_CONE),
], ids=["dehornoy", "dd", "klein", "lattice"])
def test_short_cone_forms_are_descriptors(text, descriptor):
    assert parse_cone(text) == cone_from_json(descriptor)


@pytest.mark.parametrize("text, message", [
    ("dehornoy:x", "invalid literal for int()"),
    ("klein:+", "klein cone wants two signs"),
    ("klein:+x", "must be '+' or '-'"),
    ("foo:1", "unknown cone descriptor 'foo:1'"),
], ids=["dehornoy-x", "klein-one-sign", "klein-bad-sign", "unknown"])
def test_bad_short_cone_forms_are_usage_errors(capsys, text, message):
    code = main(["sign", "--cone", text, "--word", "s1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage error: ") and message in captured.err


@pytest.mark.parametrize("argv", [
    ("sign", "--cone", '{"type": "dehornoy"}', "--word", "s1"),
    ("sign", "--cone", '{"type": "klein_tararin", "sx": "x", "sy": "+"}',
     "--word", "1,0"),
    ("sign", "--cone", '{"type": "conjugate", "base": {"type": "dehornoy", '
     '"n": 3}}', "--word", "s1"),
    ("convexity", "--cone", "dehornoy:3", "--predicate", "[1]",
     "--radius", "1"),
    ("soul", "--cone", "dehornoy:3", "--chain", '{"a": 1}', "--radius", "1"),
    ("convexity", "--cone", "dehornoy:3", "--predicate",
     '{"type": "whole", "group": {"family": "braid"}}', "--radius", "1"),
    ("ball", "--group", "z", "--radius", "1", "--budget", "[1]"),
    ("ball", "--group", "z", "--radius", "1", "--budget",
     '{"braid_ball": 5}'),
    ("convexity", "--cone", "dehornoy:3", "--predicate",
     '{"type": "lattice_sublattice", "basis": 5}', "--radius", "1"),
    ("sign", "--cone", '{"type": "conjugate", "base": {"type": "dehornoy", '
     '"n": 3}, "g": 5}', "--word", "s1"),
    ("sign", "--cone", '{"type": "dehornoy", "n": 3.9}', "--word", "s1"),
    ("sign", "--cone", '{"type": "dehornoy", "n": "3"}', "--word", "s1"),
    ("convexity", "--cone", "dehornoy:3", "--predicate",
     '{"type": "braid_shift", "n": 3, "r": true}', "--radius", "1"),
    ("sign", "--cone", '{"type": "conjugate", "base": {"type": '
     '"klein_tararin", "sx": "+", "sy": "-"}, "g": [true, 1]}',
     "--word", "0,1"),
    ("classify", "--spec", _LATTICE_SPEC.replace('"k": 2', '"k": 2.7')),
    ("classify", "--spec",
     '{"k": true, "normals": [[{"a": "1", "b": "0"}]]}'),
    ("classify", "--spec", '{"k": 1, "normals": [[{"a": true, "b": "0"}]]}'),
    ("convexity", "--cone", "lattice:" + _LATTICE_SPEC, "--predicate",
     '{"type": "lattice_sublattice", "basis": [[1.9, 0]]}', "--radius", "1"),
    ("ball", "--group", "z", "--radius", "1", "--budget",
     '{"braid_ball": {"3": 6.9}}'),
    ("ball", "--group", "z", "--radius", "1", "--budget",
     '{"handle_steps": 1.5}'),
    ("ball", "--group", "z", "--radius", "1", "--budget",
     '{"census_braid_radius": true}'),
    ("convexity", "--cone", "lattice:" + _LATTICE_SPEC, "--predicate",
     '{"type": "lattice_sublattice", "basis": [[0, 1], [0, 2]]}',
     "--radius", "1"),
    ("sign", "--cone", json.dumps({
        "type": "replace_on_convex", "base": _LATTICE_CONE,
        "predicate": _TRIVIAL_SUBLATTICE, "inner": _Z_CONE, "radius": 1}),
     "--word", "1,0"),
    ("sign", "--cone", json.dumps({
        "type": "lex_extension", "convex": _TRIVIAL_SUBLATTICE,
        "inner": _Z_CONE, "quotient": _LATTICE_CONE}), "--word", "1,0"),
    ("convexity", "--cone", "lattice:" + _LATTICE_SPEC, "--predicate",
     '{"type": "lattice_sublattice", "k": 3, "basis": [[1, 0]]}',
     "--radius", "1"),
    ("convexity", "--cone", "dehornoy:3", "--predicate",
     '{"type": "cyclic_braid", "n": 3, "word": "s1 S2"}', "--radius", "2"),
], ids=["cone-no-n", "klein-bad-sign", "conjugate-no-g", "predicate-list",
        "chain-object", "whole-no-n", "budget-list", "budget-ball-number",
        "basis-number", "conjugate-g-number", "n-float", "n-string",
        "r-bool", "g-bool", "spec-k-float", "spec-k-bool", "spec-entry-bool",
        "basis-float",
        "budget-ball-float", "budget-steps-float", "budget-radius-bool",
        "basis-dependent", "replace-trivial-sublattice",
        "lex-trivial-sublattice", "basis-k-mismatch", "cyclic-exponent-zero"])
def test_malformed_descriptor_is_usage_error(capsys, argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage error: ")


@pytest.mark.parametrize("argv", [
    ("sign", "--cone", "dehornoy:3", "--word", "s1"),
    ("compare", "--cone", "klein:++", "--left", "0,-1", "--right", "1,0"),
    ("ball", "--group", "klein", "--radius", "1"),
    ("census", "--group", "klein", "--radius", "1"),
    ("census", "--group", "z", "--radii", "1..2"),
    ("distance", "--cone-a", "klein:++", "--cone-b", "klein:+-",
     "--resolution", "2"),
    ("orbit-scan", "--cone", "klein:++", "--conjugator-radius", "1",
     "--target-radius", "1", "--resolution", "2"),
    ("orbit-scan", "--cone", "dehornoy:3", "--conjugator-radius", "3",
     "--target-radius", "1", "--resolution", "3"),
    ("dd-witness", "--n", "3", "--radius", "1", "--max-len", "4"),
    ("convexity", "--cone", "klein:++", "--predicate", '{"type": "klein_y"}',
     "--radius", "2"),
    ("convexity", "--cone", "dehornoy:3", "--predicate",
     '{"type": "cyclic_braid", "n": 3, "word": "s1"}', "--radius", "2"),
    ("classify", "--spec", _LATTICE_SPEC),
    ("perturb", "--spec", _LATTICE_SPEC, "--require", "0,1"),
    ("soul", "--cone", "klein:++", "--chain", '[{"type": "klein_y"}]',
     "--radius", "2"),
    ("props", "--cone", "klein:++", "--radius", "2"),
], ids=["sign", "compare", "ball", "census", "census-table", "distance",
        "orbit-scan-none", "orbit-scan-found", "dd-witness", "convexity-pass",
        "convexity-fail", "classify", "perturb", "soul", "props"])
def test_every_report_records_the_seed(capsys, argv):
    code, out = run_cli(capsys, *argv, "--seed", "7")
    assert code in (0, 1)
    assert json.loads(out)["seed"] == 7


def test_classify_and_perturb(capsys):
    spec = json.dumps({"k": 2, "normals": [
        [{"a": "0", "b": "0"}, {"a": "1", "b": "0"}],
        [{"a": "1", "b": "0"}, {"a": "0", "b": "0"}]]})
    code, out = run_cli(capsys, "classify", "--spec", spec)
    assert code == 0
    assert json.loads(out)["verdict"] == "discrete"
    code, out = run_cli(capsys, "perturb", "--spec", spec,
                        "--require", "0,1", "--require", "3,1")
    assert code == 0
    report = json.loads(out)
    assert report["delta"] == "1/8"
    assert report["witness"]


def test_perturb_error_names_the_witness_radius(capsys):
    # delta = 1/16 keeps (-6, 1) positive and is dense, but its witnesses
    # need |x| >= 12 and |y| >= 1, outside the radius-12 probe.
    code = main(["perturb", "--spec", _LATTICE_SPEC, "--require=-6,1"])
    err = capsys.readouterr().err
    assert code == 3
    assert "perturbation failed" in err
    assert "difference witness within radius 12" in err
    assert "precision" not in err
    # Neither limit is a budget field, so no --budget retry is suggested.
    assert err.startswith("perturbation failed: ")
    assert "budget" not in err


def test_perturb_small_pin_keeps_first_delta(capsys):
    code, out = run_cli(capsys, "perturb", "--spec", _LATTICE_SPEC,
                        "--require=-5,1")
    assert code == 0
    report = json.loads(out)
    assert (report["coordinate"], report["delta"], report["witness"]) == (
        1, "1/8", [6, -1])


def test_orbit_scan(capsys):
    code, out = run_cli(capsys, "orbit-scan", "--cone", "dehornoy:3",
                        "--conjugator-radius", "3", "--target-radius", "1",
                        "--resolution", "3")
    assert code == 0
    report = json.loads(out)
    assert report["found"] is True and report["replays"] is True
    code, out = run_cli(capsys, "orbit-scan", "--cone", "klein:++",
                        "--conjugator-radius", "3", "--target-radius", "2",
                        "--resolution", "4")
    assert code == 0
    assert json.loads(out)["found"] is False


def test_dd_witness(capsys):
    code, out = run_cli(capsys, "dd-witness", "--n", "3", "--radius", "2",
                        "--max-len", "12")
    assert code == 0
    report = json.loads(out)
    witnesses = {w["element"]: w["witness"] for w in report["witnesses"]}
    assert witnesses["S2"] == ["y2"]


def test_props_exit_code(capsys):
    code, out = run_cli(capsys, "props", "--cone", "dehornoy:3",
                        "--radius", "2")
    assert code == 1  # violations reported
    lattice = json.dumps({"type": "lattice",
                          "spec": {"k": 1,
                                   "normals": [[{"a": "1", "b": "0"}]]}})
    code, out = run_cli(capsys, "props", "--cone", lattice, "--radius", "3")
    assert code == 0
    report = json.loads(out)
    assert report["biorder_violations"] == []


_FLIP_CYCLIC_R1 = json.dumps({"type": "flip_on_convex",
                              "base": {"type": "dehornoy", "n": 3},
                              "predicate": {"type": "cyclic_braid", "n": 3,
                                            "word": "s1 s2"},
                              "radius": 1})


@pytest.mark.parametrize("command", [
    ("props",), ("soul", "--chain", '[{"type": "braid_shift", "n": 3, "r": 1}]'),
], ids=["props", "soul"])
def test_scan_refuses_a_cone_certified_below_its_radius(capsys, command):
    # The subgroup <s1 s2> is not convex at radius 3, yet a certificate of
    # radius 1 loads; a scan at radius 3 is refused, not reported.
    code = main([*command, "--cone", _FLIP_CYCLIC_R1, "--radius", "3"])
    assert code == 2
    assert "below the scan radius 3" in capsys.readouterr().err
    code, _ = run_cli(capsys, *command, "--cone", _FLIP_CYCLIC_R1,
                      "--radius", "1")
    assert code in (0, 1)


@pytest.mark.parametrize("argv", [
    ("props", "--cone", "dehornoy:3", "--radius", "2"),
    ("soul", "--cone", "dehornoy:3", "--radius", "2", "--chain",
     '[{"type": "braid_shift", "n": 3, "r": 1}]'),
    ("soul", "--cone", "dehornoy:3", "--radius", "2", "--chain", "[]"),
], ids=["props", "soul", "soul-empty-chain"])
@pytest.mark.parametrize("n_max", ["0", "-3"])
def test_n_max_below_one_is_usage_error(capsys, argv, n_max):
    # With no power g^m to test, every positive pair would "fail".
    for flag in (("--n-max", n_max), (f"--n-max={n_max}",)):
        code = main([*argv, *flag])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "n_max must be at least 1" in captured.err


def test_soul_command(capsys):
    chain = json.dumps([{"type": "braid_shift", "n": 3, "r": 1},
                        {"type": "whole", "group": {"family": "braid", "n": 3}}])
    code, out = run_cli(capsys, "soul", "--cone", "dehornoy:3",
                        "--chain", chain, "--radius", "3")
    assert code == 0
    report = json.loads(out)
    assert report["best_biorder_level"] == 0


def test_determinism(capsys):
    args = ("census", "--group", "klein", "--radius", "3")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_config_file(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"group": "klein", "radius": 2}))
    code, out = run_cli(capsys, "census", "--config", str(config))
    assert code == 0
    assert json.loads(out)["count"] == 4
    # --config supplies required flags too: --spec, --predicate, --chain.
    spec = json.dumps({"k": 2, "normals": [
        [{"a": "0", "b": "0"}, {"a": "1", "b": "0"}],
        [{"a": "1", "b": "0"}, {"a": "0", "b": "0"}]]})
    config.write_text(json.dumps({"spec": spec}))
    code, out = run_cli(capsys, "classify", "--config", str(config))
    assert code == 0
    assert json.loads(out)["verdict"] == "discrete"
    config.write_text(json.dumps(
        {"predicate": '{"type": "braid_shift", "n": 3, "r": 1}'}))
    code, out = run_cli(capsys, "convexity", "--cone", "dehornoy:3",
                        "--radius", "3", "--config", str(config))
    assert code == 0
    assert json.loads(out)["kind"] == "convexity_pass"
    config.write_text(json.dumps({"chain": json.dumps(
        [{"type": "braid_shift", "n": 3, "r": 1},
         {"type": "whole", "group": {"family": "braid", "n": 3}}])}))
    code, out = run_cli(capsys, "soul", "--cone", "dehornoy:3",
                        "--radius", "3", "--config", str(config))
    assert code == 0
    assert json.loads(out)["best_biorder_level"] == 0
    # Keys may spell a flag with "-" or "_".
    config.write_text(json.dumps({"cone-a": "klein:++", "cone_b": "klein:+-"}))
    code, out = run_cli(capsys, "distance", "--resolution", "4",
                        "--config", str(config))
    assert code == 0
    assert json.loads(out)["distance"] == "2^-0"


def test_config_fills_flags_that_have_defaults(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": 7, "n_max": 1}))
    argv = ("props", "--cone", "dehornoy:3", "--radius", "2",
            "--config", str(config))
    _, out = run_cli(capsys, *argv)
    report = json.loads(out)
    assert (report["seed"], report["n_max"]) == (7, 1)
    _, out = run_cli(capsys, *argv, "--seed", "3")
    assert json.loads(out)["seed"] == 3  # an explicit flag beats the config
    config.write_text(json.dumps({"format": "csv"}))
    code, out = run_cli(capsys, "census", "--group", "z", "--radii", "1..3",
                        "--config", str(config))
    assert code == 0
    assert out == "radius,count\n1,2\n2,2\n3,2\n"


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    assert build_parser() is build_parser()
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": 7, "format": "csv"}))
    plain = [("census", "--group", "z2", "--radius", "2"),
             ("perturb", "--spec", _LATTICE_SPEC),
             ("census", "--group", "z", "--radii", "1..3")]
    flagged = [(*plain[0], "--pin", "1,0"),
               (*plain[1], "--require", "0,1", "--require=-6,1"),
               (*plain[2], "--config", str(config))]
    # Each run comes both before and after runs of the other kind.
    runs = [run_cli(capsys, *argv) for argv in plain + flagged + plain + flagged]
    assert runs[:6] == runs[6:]
    assert all(runs[i] != runs[i + 3] for i in range(3))


@pytest.mark.parametrize("argv, flag, value", [
    (("census", "--group", "z2", "--radius", "1"), "--pin", "-1,0"),
    (("perturb", "--spec", _LATTICE_SPEC), "--require", "-2,1"),
    (("compare", "--cone", "klein:++", "--right", "1,0"), "--left", "-1,0"),
    (("compare", "--cone", "klein:++", "--left", "1,0"), "--right", "-1,0"),
    (("sign", "--cone", "klein:++"), "--word", "-1,0"),
    (("sign", "--cone", "klein:++"), "--element", "-1,1"),
], ids=["pin", "require", "left", "right", "word", "element"])
def test_spaced_negative_values_match_the_equals_form(capsys, argv, flag,
                                                      value):
    spaced = run_cli(capsys, *argv, flag, value)
    assert spaced[0] == 0
    assert spaced == run_cli(capsys, *argv, f"{flag}={value}")


def test_missing_command_is_usage_error(capsys):
    assert main([]) == 2
    assert "required: command" in capsys.readouterr().err


def test_cross_check_disagreement_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(lattices, "least_positive_in_ball",
                        lambda spec, radius: (5, 5))
    code = main(["classify", "--spec", _LATTICE_SPEC])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith("internal error: ")


@pytest.mark.parametrize("config, argv, named", [
    ({"budget": {"handle_steps": 5}},
     ("sign", "--cone", "dehornoy:3", "--word", "s1"), "'budget'"),
    ({"radius": "3"}, ("ball", "--group", "z"), "'radius'"),
    (["radius", 3], ("ball", "--group", "z"), "JSON object"),
], ids=["budget-object", "radius-string", "config-list"])
def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys, config,
                                                   argv, named):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code = main([*argv, "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage error: ")
    assert named in err


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["sign", "--cone", "dd:3", "--word", "S2",
                 "--out", str(out_path)])
    assert code == 0
    assert json.loads(out_path.read_text())["sign"] == "+"


def test_budget_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ORDERCONE_BUDGET", json.dumps({"braid_ball": {"3": 2}}))
    code, _ = run_cli(capsys, "ball", "--group", "braid:3", "--radius", "3")
    assert code == 3
    monkeypatch.setenv("ORDERCONE_BUDGET", "not json")
    code, _ = run_cli(capsys, "ball", "--group", "braid:3", "--radius", "1")
    assert code == 2


_LONG_WORD = "s1 s2 s1 s2 S1 S2 S1 S2 s1 s2 S1 s2 s2 S1 S1 s2 s1 S2 S2 s1"
_FLIP_R5 = json.dumps({"type": "flip_on_convex",
                       "base": {"type": "dehornoy", "n": 3},
                       "predicate": {"type": "braid_shift", "n": 3, "r": 1},
                       "radius": 5})


@pytest.mark.parametrize("argv, expected", [
    (("sign", "--cone", "dehornoy:3", "--word", _LONG_WORD,
      "--budget", '{"handle_steps": 1}'), 3),
    (("sign", "--cone", _FLIP_R5, "--word", "s1",
      "--budget", '{"braid_ball": {"3": 5}}'), 0),
], ids=["handle-steps", "replay-ball"])
def test_budget_flag_reaches_calls_without_budget(capsys, argv, expected):
    clear_caches()  # a cached reduction would skip the handle-step limit
    code, _ = run_cli(capsys, *argv)
    assert code == expected


_README_CHAIN = ('[{"type":"braid_shift","n":3,"r":1},'
                 '{"type":"whole","group":{"family":"braid","n":3}}]')


@pytest.mark.parametrize("argv, code, digest", [
    (("sign", "--cone", "dehornoy:3", "--word", "s1 S2"), 0,
     "2a011610d06b522dd36577c20bb5db9a7c090097f324e0dbf2fd6e6014fb9e6a"),
    (("compare", "--cone", "klein:++", "--left", "0,-1", "--right", "1,0"), 0,
     "2d20ed0c0658b689895909a159379595c596149f2b9cfffaaf2d76f2a323c61a"),
    (("ball", "--group", "braid:3", "--radius", "2"), 0,
     "983b913300d9427d9f7d0870e9d7c4a19ae544b75acf284d02323ecbba99d2d7"),
    (("census", "--group", "klein", "--radius", "2"), 0,
     "8f7b4e0fb69faa549b770a62ecdc8628c4fc52c7f2e8cd64fc3bc247f8e0884b"),
    (("census", "--group", "z", "--radii", "1..6", "--format", "csv"), 0,
     "fc12a0bebba2816af79e3b69a76b67f3391ee87d3e6ca83abcfb79101e0e16ee"),
    (("distance", "--cone-a", "klein:++", "--cone-b", "klein:+-",
      "--resolution", "4"), 0,
     "1616b35eb2e121b20a6de2217a2be267c352b7ab6efd1d61a4b5cd738d44e95e"),
    (("orbit-scan", "--cone", "dehornoy:3", "--conjugator-radius", "6",
      "--target-radius", "3", "--resolution", "4",
      "--budget", '{"braid_ball": {"3": 6}}'), 0,
     "ed03a15ffd169e81f442ee393c5d3256feb561ea43d1297e3cfc7acd400ec725"),
    (("dd-witness", "--n", "3", "--radius", "3", "--max-len", "12"), 0,
     "cf7c1ccf205af841f24debff4cb3e85b92d3446d87c4eebdd4760c3e3ef6075f"),
    (("convexity", "--cone", "dehornoy:3", "--predicate",
      '{"type": "braid_shift", "n": 3, "r": 1}', "--radius", "3"), 0,
     "655082dccf9b01ca865579014601d99998b4fdde74b3ddd1db9eeb152858b1ed"),
    (("classify", "--spec", '{"k":2,"normals":[[{"a":"0","b":"0"},'
      '{"a":"1","b":"0"}],[{"a":"1","b":"0"},{"a":"0","b":"0"}]]}'), 0,
     "f65198a668077e809de2d426abdd60623641512a28294dc762396d8f26a54a26"),
    (("soul", "--cone", "dehornoy:3", "--radius", "3",
      "--chain", _README_CHAIN), 0,
     "e575f99b0ae066c803bda19491aaae1c687d1b877573d8add261069e462c5546"),
    (("props", "--cone", "dehornoy:3", "--radius", "3"), 1,
     "c864035f07de151de4835e486608b3a5e8a51031ed01896f141c35821cfdd35a"),
], ids=["sign", "compare", "ball", "census", "census-csv", "distance",
        "orbit-scan", "dd-witness", "convexity", "classify", "soul", "props"])
def test_readme_example_report_bytes(capsys, argv, code, digest):
    """The README's CLI examples keep their exit codes and exact report
    bytes (sha256 of stdout); ``perturb --spec @spec.json`` is left out
    because it reads a file."""
    got, out = run_cli(capsys, *argv)
    assert got == code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_report_emit_rejects_unknown_format():
    with pytest.raises(UsageError):
        report_emit({"x": 1}, "yaml")


def test_console_entry_point():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = [os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run(
        [sys.executable, "-m", "ordercone.cli", "sign", "--cone",
         "dehornoy:3", "--word", "s1 S2"],
        capture_output=True, text=True, check=False, cwd=root,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))))
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"sign": "+", "seed": 0}
