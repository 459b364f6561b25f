"""Command-line behavior: reports, formats, exit codes, determinism."""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys

import pytest

from ordercone import Budget, lattices
from ordercone.braids import clear_caches
from ordercone.cli import (_COMMANDS, build_parser, main, parse_cone,
                           parse_group, report_emit)
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
    ("dehornoy:x", "dehornoy cone wants an integer n"),
    ("dd:2.5", "dd cone wants an integer n"),
    ("dehornoy:", "dehornoy cone wants an integer n"),
    ("dd:1", "braid group n must be at least 2"),
    ("klein:+", "klein cone wants two signs"),
    ("klein:+x", "must be '+' or '-'"),
    ("foo:1", "unknown cone descriptor 'foo:1'"),
], ids=["dehornoy-x", "dd-float", "dehornoy-empty", "dd-one",
        "klein-one-sign", "klein-bad-sign", "unknown"])
def test_bad_short_cone_forms_are_usage_errors(capsys, text, message):
    code = main(["sign", "--cone", text, "--word", "s1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage error: ") and message in captured.err
    with pytest.raises(UsageError, match=re.escape(message)):
        parse_cone(text)


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
     '{"type": "lattice_sublattice", "k": 2, "basis": 5}', "--radius",
     "1"),
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
     '{"type": "lattice_sublattice", "k": 2, "basis": [[1.9, 0]]}',
     "--radius", "1"),
    ("ball", "--group", "z", "--radius", "1", "--budget",
     '{"braid_ball": {"3": 6.9}}'),
    ("ball", "--group", "z", "--radius", "1", "--budget",
     '{"handle_steps": 1.5}'),
    ("ball", "--group", "z", "--radius", "1", "--budget",
     '{"census_braid_radius": true}'),
    ("convexity", "--cone", "lattice:" + _LATTICE_SPEC, "--predicate",
     '{"type": "lattice_sublattice", "k": 2, "basis": [[0, 1], [0, 2]]}',
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
    # The scans test the one power g^-1 h g^2; there is no bound to set,
    # so --n-max is refused whatever its value, the old default 4 too.
    for flag in (("--n-max", n_max), (f"--n-max={n_max}",),
                 ("--n-max", "4")):
        code = main([*argv, *flag])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "unrecognized arguments: --n-max" in captured.err


@pytest.mark.parametrize("argv, message", [
    (("dd-witness", "--n", "3", "--radius", "2", "--max-len", "0"),
     "max_len must be at least 1"),
    (("dd-witness", "--n", "3", "--radius", "2", "--max-len", "-5"),
     "max_len must be at least 1"),
    (("orbit-scan", "--cone", "dehornoy:3", "--conjugator-radius", "1",
      "--target-radius", "-3", "--resolution", "2"),
     "target radius must be a nonnegative integer"),
    (("orbit-scan", "--cone", "dehornoy:3", "--conjugator-radius", "1",
      "--target-radius", "-1"), "target radius must be a nonnegative integer"),
    (("orbit-scan", "--cone", "dehornoy:3", "--conjugator-radius", "-2",
      "--target-radius", "1"),
     "conjugator radius must be a nonnegative integer"),
], ids=["max-len-0", "max-len-negative", "target-negative-resolution",
        "target-negative", "conjugator-negative"])
def test_search_bounds_below_range_are_usage_errors(capsys, argv, message):
    # These used to exit 3 ("budget exhausted") or 0 with a report.
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


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


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert build_parser() is build_parser()
    plain = [("census", "--group", "z2", "--radius", "2"),
             ("perturb", "--spec", _LATTICE_SPEC),
             ("census", "--group", "z", "--radii", "1..3")]
    flagged = [(*plain[0], "--pin", "1,0"),
               (*plain[1], "--require", "0,1", "--require=-6,1"),
               (*plain[2], "--format", "csv", "--seed", "7")]
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
], ids=["pin", "require", "left", "right", "word"])
def test_spaced_negative_values_match_the_equals_form(capsys, argv, flag,
                                                      value):
    spaced = run_cli(capsys, *argv, flag, value)
    assert spaced[0] == 0
    assert spaced == run_cli(capsys, *argv, f"{flag}={value}")


def test_missing_command_is_usage_error(capsys):
    assert main([]) == 2
    assert "required: command" in capsys.readouterr().err


_REQUIRED = [(command, name) for command, (_, required, _) in _COMMANDS.items()
             for name in required]


@pytest.mark.parametrize("command, missing", _REQUIRED,
                         ids=[f"{c}-{n}" for c, n in _REQUIRED])
def test_each_missing_required_flag_is_named(capsys, command, missing):
    # Argparse reads "1" for every flag type, so the full argv parses and
    # only the dropped flag is refused.
    argv = [command]
    for name in _COMMANDS[command][1]:
        argv += ["--" + name.replace("_", "-"), "1"]
    assert build_parser().parse_args(argv).command == command
    flag = "--" + missing.replace("_", "-")
    at = argv.index(flag)
    assert main(argv[:at] + argv[at + 2:]) == 2
    assert f"required: {flag}" in capsys.readouterr().err


def test_config_flag_is_unrecognized(tmp_path, capsys):
    # Flags come only from the command line.
    config = tmp_path / "x.json"
    config.write_text("{}")
    assert main(["census", "--group", "z", "--radius", "1",
                 "--config", str(config)]) == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--out", "x"), ("--element", "s1")],
                         ids=["out", "element"])
def test_removed_flags_are_unrecognized(capsys, flag, value):
    # Reports go to stdout, and the element of sign is --word.
    argv = ["sign", "--cone", "dd:3", "--word", "S2", flag, value]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} {value}" in captured.err


@pytest.mark.parametrize("field", ["lattice_check_radius",
                                   "braid_ball_default"])
def test_removed_budget_fields_are_usage_errors(capsys, field):
    with pytest.raises(UsageError, match=field):
        Budget().with_overrides({field: 3})
    assert main(["ball", "--group", "z", "--radius", "1",
                 "--budget", json.dumps({field: 3})]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and field in err


@pytest.mark.parametrize("text, message", [
    *((text, f"unknown group {text!r} (try z, z2, klein, braid:3)")
      for text in ("braid:x", "braid:", "z^x", "z^2.5")),
    ("braid:-3", "braid group n must be at least 2"),
    ("z^0", "free abelian rank k must be at least 1"),
], ids=["braid-x", "braid-empty", "z-x", "z-float", "braid-negative", "z-0"])
def test_bad_group_parameter_is_usage_error(capsys, text, message):
    # A parameter that is not an integer is an unknown group, not int()'s
    # message; an integer out of range keeps the group's own message.
    with pytest.raises(UsageError, match=re.escape(message)):
        parse_group(text)
    assert main(["ball", "--group", text, "--radius", "1"]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_cross_check_disagreement_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(lattices, "least_positive_in_ball",
                        lambda spec, radius: (5, 5))
    code = main(["classify", "--spec", _LATTICE_SPEC])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith("internal error: ")


def test_budget_env_override(capsys, monkeypatch):
    # The environment is not a budget source: neither a lower cap nor a
    # malformed value reaches the command; only --budget does.
    for value in (json.dumps({"braid_ball": {"3": 2}}), "not json"):
        monkeypatch.setenv("ORDERCONE_BUDGET", value)
        code, _ = run_cli(capsys, "ball", "--group", "braid:3", "--radius",
                          "3")
        assert code == 0


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


_README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def _readme_commands() -> list[list[str]]:
    """The argv of every ``ordercone`` line in the README's ``sh`` blocks,
    ``\\`` continuations joined, split as the shell splits them."""
    with open(_README, encoding="utf-8") as f:
        blocks = re.findall(r"^```sh\n(.*?)^```", f.read(), re.S | re.M)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("ordercone ")]


# Exit code and sha256 of stdout of each README example, in README order.
_README_REPORTS = {
    "sign":
        (0, "2a011610d06b522dd36577c20bb5db9a7c090097f324e0dbf2fd6e6014fb9e6a"),
    "compare":
        (0, "2d20ed0c0658b689895909a159379595c596149f2b9cfffaaf2d76f2a323c61a"),
    "ball":
        (0, "983b913300d9427d9f7d0870e9d7c4a19ae544b75acf284d02323ecbba99d2d7"),
    "census":
        (0, "8f7b4e0fb69faa549b770a62ecdc8628c4fc52c7f2e8cd64fc3bc247f8e0884b"),
    "census-csv":
        (0, "fc12a0bebba2816af79e3b69a76b67f3391ee87d3e6ca83abcfb79101e0e16ee"),
    "distance":
        (0, "1616b35eb2e121b20a6de2217a2be267c352b7ab6efd1d61a4b5cd738d44e95e"),
    "orbit-scan":
        (0, "ed03a15ffd169e81f442ee393c5d3256feb561ea43d1297e3cfc7acd400ec725"),
    "dd-witness":
        (0, "cf7c1ccf205af841f24debff4cb3e85b92d3446d87c4eebdd4760c3e3ef6075f"),
    "convexity":
        (0, "655082dccf9b01ca865579014601d99998b4fdde74b3ddd1db9eeb152858b1ed"),
    "classify":
        (0, "f65198a668077e809de2d426abdd60623641512a28294dc762396d8f26a54a26"),
    "perturb":
        (0, "2d8497a6691e03d93172d7b2638c6f51f2aaea49f1a1ccc0d500cf8c96337bab"),
    "soul":
        (0, "fd4cc3bc0527db943ae8b1a6f88747786f9e997b4ed30a455fea0e5d34a6fe00"),
    "props":
        (1, "db50e7eb8a1268edc57b8e3399eb9b7ff13b78810906dd35f61e4336cf1f206d"),
    "ball-budget":
        (0, "b300398f6876d7d7fbd84de0b95d0f454d97d94655dfea4a6866956945ca53c4"),
}
_README_COMMANDS = _readme_commands()


def test_every_readme_example_has_a_report():
    assert len(_README_COMMANDS) == len(_README_REPORTS)


@pytest.mark.parametrize("name, argv", zip(_README_REPORTS, _README_COMMANDS),
                         ids=list(_README_REPORTS))
def test_readme_example_report_bytes(capsys, tmp_path, monkeypatch, name,
                                     argv):
    """The README's CLI examples keep their exit codes and exact report
    bytes.  They run in a directory whose ``spec.json`` holds the
    ``classify`` example's spec, as the README says."""
    assert name.startswith(argv[0])
    classify = next(c for c in _README_COMMANDS if c[0] == "classify")
    (tmp_path / "spec.json").write_text(
        classify[classify.index("--spec") + 1], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, *argv)
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (
        _README_REPORTS[name])


def test_readme_python_blocks_run():
    """Every ```python block of README.md runs as written; the blocks
    assert what they show."""
    with open(_README, encoding="utf-8") as f:
        blocks = re.findall(r"^```python\n(.*?)^```", f.read(), re.S | re.M)
    assert len(blocks) >= 3  # free reduction, a refused flip, budget_scope
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


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
