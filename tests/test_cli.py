"""Scenario runner: registry, parameter handling, outputs, determinism."""

import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from univcert import certify, cli

import report_parity
import report_tree
import thm32_oracle


def _summary(out: Path, name: str) -> dict:
    return json.loads((out / name / "summary.json").read_text(encoding="utf-8"))


def test_registry_is_complete():
    assert len(cli.REGISTRY) == 16
    listing = cli.list_scenarios()
    assert all(name in listing for name in cli.REGISTRY)


# every scenario's defaults, written out once more so that a value mistyped in
# a body's signature fails here and not only through a verdict
DEFAULTS = {
    "thm22-eigenfield": {"K": 8, "d": 4, "z": 0.25 + 0.15j},
    "prop21-block": {"n": 24},
    "ex25-notC": {"ladder": (32, 64, 128)},
    "ex26-perturbation": {"trunc": 128, "n_max": 10},
    "multiplicativity-failure": {"n": 16},
    "annulus": {"r": 0.5},
    "ex31-falsify-dirichlet": {"r": 0.5, "ladder": (64, 128, 256), "n_radial": 5,
                               "n_angular": 12},
    "thm32-adjoint-certify": {"r": 0.5, "lam": 3.0 ** 0.25, "ladder": (256, 512, 1024),
                              "index_max": 64},
    "cor34-heller": {"r": 0.5, "trunc": 512, "count": 64},
    "mzstar-adjoint-compare": {"trunc": 12},
    "prop35-halfplane": {"mu": 4.0, "alphas": (0.0, 2.0)},
    "prop41-falsifiers": {"n": 32},
    "ex43-diagonal": {"ladder": (8, 16, 32)},
    "thm44-scalar-pair": {"ladder": (8, 16, 32)},
    "thm44-block-pair": {"ladder": ((4, 4), (6, 6), (8, 8))},
    "ex46-common-zeros": {"r": 0.5, "s": 2.0 - 3.0 ** 0.5, "lam": 1.0 + 0j,
                          "mu": 1.0 + 0j, "k_max": 20},
}


@pytest.mark.parametrize("name", sorted(DEFAULTS))
def test_registry_defaults_are_pinned(name):
    defaults = cli.REGISTRY[name].defaults
    assert defaults == DEFAULTS[name]
    # repr tells 8 from 8.0 and 1.0 from (1+0j), down to each rung's parts:
    # the kind of a default decides how a given value is parsed
    assert repr(defaults) == repr(DEFAULTS[name])


def test_parse_value_types():
    assert cli._parse_value("3") == 3
    assert cli._parse_value("0.5") == 0.5
    assert cli._parse_value("1+2j") == 1 + 2j
    assert cli._parse_value("both") == "both"


def test_parse_ladder_scalar_and_block():
    assert cli._parse_ladder("64,128,256") == (64, 128, 256)
    assert cli._parse_ladder("4x4, 6x6, 8x8") == ((4, 4), (6, 6), (8, 8))


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = annulus\nparam = r=0.25  # comment\nformat = json\n",
                   encoding="utf-8")
    parsed = cli._read_config(cfg)
    assert parsed["scenario"] == "annulus"
    assert parsed["param"] == ["r=0.25"]
    assert parsed["format"] == "json"
    bad = tmp_path / "bad.cfg"
    bad.write_text("no separator here\n", encoding="utf-8")
    with pytest.raises(ValueError):
        cli._read_config(bad)


def test_validate_catches_bad_parameters():
    assert cli.validate("annulus", {}) == []
    assert cli.validate("nope", {}) == ["unknown scenario 'nope'"]
    assert any("unknown parameter" in p
               for p in cli.validate("annulus", {"bogus": 1}))
    assert cli.validate("annulus", {"r": 2.0}) != []
    assert cli.validate("thm32-adjoint-certify", {"lam": 9.0}) != []
    assert cli.validate("ex25-notC", {"ladder": (8, 16)}) != []


def test_main_param_values_parse_by_default_kind(tmp_path, capsys):
    assert cli.main(["--scenario", "ex25-notC", "--param", "ladder=32,64,128",
                     "--out", str(tmp_path), "--format", "json"]) == 0
    sizes = [r["size"] for r in _summary(tmp_path, "ex25-notC")["check_C"]["ladder"]]
    assert sizes == [32, 64, 128]
    # integers given for float defaults are read as doubles
    assert cli.main(["--scenario", "prop35-halfplane", "--param", "alphas=0,1",
                     "--out", str(tmp_path), "--format", "json"]) == 0
    assert _summary(tmp_path, "prop35-halfplane")["bergman_radii"] == {
        "0.0": 0.25, "1.0": 0.125}
    # thm32's lambda takes a complex value
    assert cli.main(["--scenario", "thm32-adjoint-certify", "--param",
                     "lam=1.1+0.2j", "--validate"]) == 0


@pytest.mark.parametrize("argv", [
    ["--scenario", "annulus", "--param", "r=1j"],
    ["--scenario", "thm22-eigenfield", "--param", "K=4.5"],
    ["--scenario", "ex25-notC", "--param", "ladder=64,32,128"],
    ["--scenario", "nope"],
    ["--scenario", "prop41-falsifiers", "--param", "n=1"],
    ["--scenario", "annulus", "--scenario", "prop41-falsifiers",
     "--param", "n=1", "--jobs", "2"],
    ["--scenario", "annulus", "--scenario", "ex25-notC", "--param", "r=0.4"],
    ["--scenario", "cor34-heller", "--param", "count=8"],
    ["--scenario", "cor34-heller", "--param", "trunc=16"],
    ["--scenario", "annulus", "--param", "foo"],
    ["--scenario", "annulus", "--jobs", "two"],
    ["--scenario", "annulus", "--jobs", "0"],
    ["--scenario", "annulus", "--jobs", "-3"],
    ["--scenario", "annulus", "--format", "xml"],
    ["--scenario", "annulus", "--bogus"],
    [],
    ["--scenario", "annulus", "--format", "xml", "--validate"],
    ["--config", "no-such-dir/run.cfg"],
])
def test_main_bad_input_exits_2_with_one_line(argv, tmp_path, capsys):
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err
    # every scenario is resolved before any runs: bad input writes nothing
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("ladder", ["4x4x4,6x6x6,8x8x8", "4x4,6x6x6,8x8"])
def test_block_rung_with_the_wrong_number_of_parts_fails_validate_and_run_alike(
        ladder, tmp_path, capsys):
    argv = ["--scenario", "thm44-block-pair", "--ladder", ladder]
    assert cli.main(argv + ["--validate"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("thm44-block-pair: ladder: each rung needs 2 parts")
    assert len(out.splitlines()) == 1
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("univcert-lab: error: ladder: each rung needs 2 parts")
    assert len(captured.err.splitlines()) == 1
    assert not (tmp_path / "thm44-block-pair").exists()


@pytest.mark.parametrize("name, key, value, floor", [
    ("ex31-falsify-dirichlet", "n_angular", 0, 1),
    ("ex31-falsify-dirichlet", "n_radial", -2, 1),
    ("ex26-perturbation", "n_max", 0, 1),
    ("ex46-common-zeros", "k_max", -2, 0),
    ("thm22-eigenfield", "K", 1, 2),
    ("thm22-eigenfield", "d", 0, 1),
    ("prop21-block", "n", 0, 2),
    ("ex26-perturbation", "trunc", 1, 2),
    ("multiplicativity-failure", "n", 0, 2),
    ("prop41-falsifiers", "n", 1, 2),
    ("thm32-adjoint-certify", "index_max", -1, 0),
    ("mzstar-adjoint-compare", "trunc", 0, 1),
])
def test_integer_below_its_floor_fails_validate_and_run_alike(name, key, value, floor,
                                                              tmp_path, capsys):
    message = f"{key} must be at least {floor}, got {value}"
    argv = ["--scenario", name, "--param", f"{key}={value}"]
    assert cli.main(argv + ["--validate"]) == 2
    assert capsys.readouterr().out == f"{name}: {message}\n"
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"univcert-lab: error: {message}\n"
    assert not (tmp_path / name).exists()


@pytest.mark.parametrize("name, below, message, at_floor", [
    ("ex25-notC", "2,3,4", "at least 3, got 2,3,4", "3,4,5"),
    ("ex31-falsify-dirichlet", "0,1,2", "at least 1, got 0,1,2", "1,2,3"),
    ("thm32-adjoint-certify", "4,5,6", "at least 5, got 4,5,6", "5,6,7"),
    ("ex43-diagonal", "1,2,3", "at least 2, got 1,2,3", "2,3,4"),
    ("thm44-scalar-pair", "1,2,3", "at least 2, got 1,2,3", "2,3,4"),
    ("thm44-block-pair", "1x1,2x2,3x3", "at least 2x1, got 1x1,2x2,3x3", "2x1,3x1,4x2"),
    ("thm44-block-pair", "2x0,3x1,4x2", "at least 2x1, got 2x0,3x1,4x2", "2x1,3x1,4x2"),
], ids=["ex25", "ex31", "thm32", "ex43", "thm44-scalar", "thm44-block-K", "thm44-block-d"])
def test_ladder_below_its_floor_fails_validate_and_run_alike(name, below, message,
                                                             at_floor, tmp_path, capsys):
    message = f"ladder rungs must be {message}"
    argv = ["--scenario", name, "--ladder", below]
    assert cli.main(argv + ["--validate"]) == 2
    assert capsys.readouterr().out == f"{name}: {message}\n"
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"univcert-lab: error: {message}\n"
    assert not (tmp_path / name).exists()
    # the floor itself validates and runs
    argv = ["--scenario", name, "--ladder", at_floor]
    assert cli.main(argv + ["--validate"]) == 0
    assert capsys.readouterr().out == f"{name}: ok\n"
    assert cli.main(argv + ["--out", str(tmp_path), "--format", "json"]) == 0
    assert (tmp_path / name / "summary.json").exists()


@pytest.mark.parametrize("config", [
    "scenario = annulus\njobs = two\n",
    "scenario = annulus\nno separator here\n",
    "scenario = annulus\nformat = xml\n",
    "scenario = annulus\nparam = bogus\n",
    "scenario = annulus\njobs = 0\n",
    "scenario = annulus\nfromat = json\n",
    "scenario = prop21-block\nscenario = annulus\n",
], ids=["jobs-not-an-integer", "malformed-line", "format-not-json-csv-both",
        "param-not-K=V", "jobs-below-1", "unknown-key", "repeated-key"])
def test_main_bad_config_exits_2_with_one_line(config, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config + f"out = {tmp_path}\n", encoding="utf-8")
    assert cli.main(["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("name, params, message", [
    ("prop35-halfplane", {"mu": "1.0"}, "dilation factor must be positive, finite and != 1"),
    ("prop35-halfplane", {"mu": "nan"}, "dilation factor must be positive, finite and != 1"),
    ("prop35-halfplane", {"alphas": "-2"}, "bergman requires a finite alpha > -1"),
    ("prop35-halfplane", {"alphas": "nan"}, "bergman requires a finite alpha > -1"),
    ("thm22-eigenfield", {"z": "1.0"}, "z must satisfy |z| < 1, got 1.0"),
    ("thm32-adjoint-certify", {"lam": "-1"}, "lam must lie off the unit circle, got -1.0"),
    ("prop35-halfplane", {"mu": "1e-300"},
     "the bergman radius mu^-2.0 does not fit a double at mu=1e-300"),
    ("prop35-halfplane", {"mu": "0.5", "alphas": "3000"},
     "the bergman radius mu^-1501.0 does not fit a double at mu=0.5"),
    # zero sets past the work bound: each would run for minutes or hours
    ("ex46-common-zeros", {"r": "1e-9"},
     "the 41 covering-map zeros at parameter 1e-09 need 1.03e+11 digits each: "
     "zeros x digits^2 must stay <= 1e+09"),
    ("ex46-common-zeros", {"s": "1e-9"},
     "the 21 covering-map zeros at parameter 1e-09 need 5.14e+10 digits each: "
     "zeros x digits^2 must stay <= 1e+09"),
    ("ex46-common-zeros", {"k_max": "1000"},
     "the 2001 covering-map zeros at parameter 0.5 need 9.39e+03 digits each: "
     "zeros x digits^2 must stay <= 1e+09"),
], ids=["mu-1.0", "mu-nan", "alphas--2", "alphas-nan", "z-1.0", "lam--1",
        "mu-1e-300", "mu-0.5-alphas-3000", "r-1e-9", "s-1e-9", "k_max-1000"])
def test_domain_rule_of_the_run_fails_validate_too(name, params, message,
                                                   tmp_path, capsys):
    assert cli.validate(name, params) == [message]
    argv = ["--scenario", name]
    for key, value in params.items():
        argv += ["--param", f"{key}={value}"]
    assert cli.main(argv + ["--validate"]) == 2
    assert capsys.readouterr().out == f"{name}: {message}\n"
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"univcert-lab: error: {message}\n"
    assert not (tmp_path / name).exists()


# 10**23 is past 64 bits; 10**400 parses as an int that no double holds
PAST_INT64, PAST_DOUBLE = "1" + "0" * 23, "1" + "0" * 400


@pytest.mark.parametrize("name, key, value, message", [
    ("thm32-adjoint-certify", "index_max", PAST_INT64,
     f"index_max: expected an integer in [-2**63, 2**63), got {PAST_INT64}"),
    ("prop35-halfplane", "mu", PAST_DOUBLE, f"mu: {PAST_DOUBLE} does not fit a double"),
], ids=["index_max-past-int64", "mu-past-double"])
def test_number_too_large_for_its_kind_fails_validate_and_run_alike(name, key, value,
                                                                    message, tmp_path,
                                                                    capsys):
    assert cli.validate(name, {key: value}) == [message]
    argv = ["--scenario", name, "--param", f"{key}={value}"]
    assert cli.main(argv + ["--validate"]) == 2
    assert capsys.readouterr().out == f"{name}: {message}\n"
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"univcert-lab: error: {message}\n"
    assert not (tmp_path / name).exists()


def test_an_integer_for_a_float_default_writes_the_bytes_of_its_double(tmp_path):
    for value in ("4", "4.0"):
        assert cli.main(["--scenario", "prop35-halfplane", "--param", f"mu={value}",
                         "--out", str(tmp_path / value), "--format", "json"]) == 0
    written = [(tmp_path / value / "prop35-halfplane" / "summary.json").read_bytes()
               for value in ("4", "4.0")]
    assert written[0] == written[1]
    assert repr(cli._as_kind(0.25 + 0.15j, "0")) == "0.0"
    # a complex value for a float default stays complex
    assert cli._as_kind(3.0 ** 0.25, "1.1+0.2j") == 1.1 + 0.2j


@pytest.mark.parametrize("name, numpy_params, python_params", [
    ("annulus", {"r": np.float64(0.3)}, {"r": 0.3}),
    ("annulus", {"r": np.float32(0.25)}, {"r": 0.25}),
    ("prop35-halfplane", {"mu": np.float64(4.0), "alphas": (np.float64(0.0), np.int64(2))},
     {"mu": 4.0, "alphas": (0.0, 2.0)}),
    ("thm22-eigenfield", {"z": np.complex128(0.25 + 0.15j), "K": np.int64(8)},
     {"z": 0.25 + 0.15j, "K": 8}),
])
def test_numpy_scalars_write_the_bytes_of_python_numbers(tmp_path, name, numpy_params,
                                                         python_params):
    paths = [cli.run_scenario(name, params, tmp_path / label)
             for label, params in (("numpy", numpy_params), ("python", python_params))]
    assert [p.name for p in paths[0]] == [p.name for p in paths[1]]
    for ours, theirs in zip(*paths):
        assert ours.read_bytes() == theirs.read_bytes()


@pytest.mark.parametrize("name, key, value, message", [
    ("ex26-perturbation", "n_max", True, "n_max: expected an integer, got True"),
    ("ex46-common-zeros", "k_max", False, "k_max: expected an integer, got False"),
    ("thm32-adjoint-certify", "index_max", True, "index_max: expected an integer, got True"),
    ("annulus", "r", True, "r: expected a number, got True"),
], ids=["n_max-True", "k_max-False", "index_max-True", "r-True"])
def test_a_bool_is_not_taken_as_a_number(name, key, value, message, tmp_path):
    # bool is numbers.Integral, yet True is neither a count nor a radius
    assert cli.validate(name, {key: value}) == [message]
    with pytest.raises(ValueError) as info:
        cli.run_scenario(name, {key: value}, tmp_path)
    assert str(info.value) == message
    assert list(tmp_path.iterdir()) == []


def test_importing_the_runner_leaves_mpmath_unloaded():
    # mpmath serves only the covering-map zeros, so only ex46 loads it;
    # likewise concurrent.futures serves only --jobs, and fractions only
    # analytic.ratio_condition
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import univcert.cli; "
             "print([m in sys.modules for m in ('mpmath', 'concurrent.futures', "
             "'fractions')])")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", probe, str(src)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[False, False, False]"


def test_integer_kind_holds_exactly_the_int64_range():
    assert cli._as_kind(1, 2**63 - 1) == 2**63 - 1
    assert cli._as_kind(1, -2**63) == -2**63
    for value in (2**63, -2**63 - 1):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            cli._as_kind(1, value)


SWEEP_VALUES = ("-1", "0", "1", "2", "nan", "inf", "-inf", "1e-300", "1e300", "2j",
                "x", "", PAST_INT64, PAST_DOUBLE)


def test_every_case_of_the_report_tree_validates():
    cases = report_tree.cases()
    assert {name for _, name, _ in cases} == set(cli.REGISTRY)
    assert len({(directory, name) for directory, name, _ in cases}) == len(cli.REGISTRY) + 5
    assert [cli.validate(name, params) for _, name, params in cases] == [[]] * len(cases)


def test_validate_returns_a_list_and_never_raises():
    for name, sc in cli.REGISTRY.items():
        for key in sc.defaults:
            for value in SWEEP_VALUES:
                assert isinstance(cli.validate(name, {key: value}), list)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_main_unwritable_out_exits_2_with_one_line(jobs, tmp_path, capsys):
    out = tmp_path / "a-file"
    out.write_text("", encoding="utf-8")
    argv = ["--scenario", "annulus", "--scenario", "prop21-block", "--jobs", jobs]
    assert cli.main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("univcert-lab: error: ")
    assert len(captured.err.splitlines()) == 1


# runs main in a child capped at 2 GiB of address space, so an oversized
# allocation fails the same way whatever the host's overcommit setting
CAPPED_MAIN = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
               "sys.path.insert(0, sys.argv[1]); from univcert import cli; "
               "sys.exit(cli.main(sys.argv[2:]))")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_main_oversized_truncation_exits_2_with_one_line(jobs, tmp_path):
    # ex26's identity block at trunc=20000 needs 2.98 GiB; under --jobs the
    # worker's MemoryError is re-raised in the parent
    src = Path(__file__).resolve().parents[1] / "src"
    scenarios = ["--scenario", "ex26-perturbation"]
    if jobs == "2":
        scenarios += ["--scenario", "mzstar-adjoint-compare"]
    argv = scenarios + ["--param", "trunc=20000", "--jobs", jobs, "--out", str(tmp_path)]
    out = subprocess.run([sys.executable, "-c", CAPPED_MAIN, str(src), *argv],
                         capture_output=True, text=True,
                         env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert out.returncode == 2
    assert out.stdout == ""
    assert "Traceback" not in out.stderr
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("univcert-lab: error: Unable to allocate")
    assert list(tmp_path.iterdir()) == []


def test_main_validate_reports_non_increasing_ladder(capsys):
    assert cli.main(["--scenario", "ex25-notC", "--param", "ladder=64,32,128",
                     "--validate"]) == 2
    assert "strictly increasing" in capsys.readouterr().out


def test_block_ladder_shrinking_in_one_part_fails_validate_and_run_alike(tmp_path, capsys):
    # sizes 16, 3, 4: each rung is lexicographically larger than the last
    message = ("the ladder must be strictly increasing, each part of a KxD rung "
               "at least the last one's")
    argv = ["--scenario", "thm44-block-pair", "--ladder", "2x8,3x1,4x1"]
    assert cli.main(argv + ["--validate"]) == 2
    assert capsys.readouterr().out == f"thm44-block-pair: {message}\n"
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"univcert-lab: error: {message}\n"
    assert not (tmp_path / "thm44-block-pair").exists()


def test_main_explicit_flags_beat_the_config_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = annulus\nout = fromcfg\nformat = csv\n",
                   encoding="utf-8")
    assert cli.main(["--config", str(cfg), "--out", "reports",
                     "--format", "json"]) == 0
    assert (tmp_path / "reports" / "annulus" / "summary.json").exists()
    assert not (tmp_path / "fromcfg").exists()


def test_run_scenario_writes_json_and_csv(tmp_path):
    paths = cli.run_scenario("annulus", {"r": 0.5}, tmp_path, fmt="both")
    names = {p.name for p in paths}
    assert names == {"summary.json", "radii.csv"}
    summary = _summary(tmp_path, "annulus")
    assert summary["inner"] == pytest.approx(1.0 / 3.0 ** 0.5)
    assert summary["radius_product"] == pytest.approx(1.0, abs=1e-12)


def test_run_scenario_json_only(tmp_path):
    paths = cli.run_scenario("annulus", {}, tmp_path, fmt="json")
    assert [p.name for p in paths] == ["summary.json"]


def test_run_scenario_rejects_invalid_input(tmp_path):
    with pytest.raises(ValueError, match="^unknown scenario 'nope'$"):
        cli.run_scenario("nope", {}, tmp_path)
    with pytest.raises(ValueError):
        cli.run_scenario("annulus", {"r": 2.0}, tmp_path)


def test_run_scenario_rejects_an_unknown_format_before_it_runs(tmp_path):
    with pytest.raises(ValueError, match="expected one of json, csv, both, got 'xml'"):
        cli.run_scenario("annulus", {}, tmp_path, fmt="xml")
    assert not (tmp_path / "annulus").exists()


def test_eigenfield_scenario_is_bitwise_exact(tmp_path):
    cli.run_scenario("thm22-eigenfield", {}, tmp_path, fmt="json")
    summary = _summary(tmp_path, "thm22-eigenfield")
    assert summary["bitwise_exact_interior"] is True
    assert summary["interior_residual_max"] == 0.0


def test_block_spectrum_scenario(tmp_path):
    cli.run_scenario("prop21-block", {"n": 12}, tmp_path, fmt="json")
    summary = _summary(tmp_path, "prop21-block")
    assert summary["eigenvalue_union_gap"] < 1e-10


def test_multiplicativity_scenario(tmp_path):
    cli.run_scenario("multiplicativity-failure", {"n": 8}, tmp_path, fmt="json")
    summary = _summary(tmp_path, "multiplicativity-failure")
    assert summary["norm_U"] == 1.0
    assert summary["norm_V"] == 1.0
    assert summary["norm_UV"] == 0.0


def test_ex26_sigma_min_table_matches_the_perturbed_block_operator(tmp_path):
    trunc = 16
    cli.run_scenario("ex26-perturbation", {"trunc": trunc, "n_max": 4}, tmp_path)
    assert _summary(tmp_path, "ex26-perturbation")["max_norm_identity_defect"] < 1e-12
    text = (tmp_path / "ex26-perturbation" / "sigma_min.csv").read_text(encoding="utf-8")
    header, *rows = [line.split(",") for line in text.splitlines()]
    assert header == ["n", "sigma_min", "half_inverse_bound"]
    assert [row[0] for row in rows] == ["1", "2", "3", "4"]
    # [[S, I], [I/n, 0]] built here from the plain shift S on the Hardy space
    shift, eye, zero = np.eye(trunc, k=1), np.eye(trunc), np.zeros((trunc, trunc))
    for n, (_, sigma, bound) in enumerate(rows, 1):
        expected = np.linalg.svd(np.block([[shift, eye], [eye / n, zero]]),
                                 compute_uv=False)[-1]
        assert abs(float(sigma) - expected) <= 1e-14 * expected
        assert float(sigma) > 1.0 / (2 * n)
        assert bound == repr(1.0 / (2 * n))


def test_halfplane_scenario(tmp_path):
    cli.run_scenario("prop35-halfplane", {}, tmp_path, fmt="json")
    summary = _summary(tmp_path, "prop35-halfplane")
    assert summary["hardy_radius"] == 0.5
    assert summary["bergman_radii"] == {"0.0": 0.25, "2.0": 0.0625}


def test_mzstar_scenario_reports_agreement_rows(tmp_path):
    cli.run_scenario("mzstar-adjoint-compare", {}, tmp_path, fmt="json")
    summary = _summary(tmp_path, "mzstar-adjoint-compare")
    assert summary["agreement_rows"] == [0, 2]


@pytest.mark.parametrize("s, ratio, matched", [(2.0 - 3.0 ** 0.5, "2/1", 21),
                                               (0.3, None, 1)])
def test_ex46_matches_only_pairs_with_a_small_cross_residual(s, ratio, matched,
                                                             tmp_path):
    # off the 2:1 ratio only the k = 0 pair (both zeros at z = 0) matches;
    # pairs.csv keeps a row for every pair compared
    cli.run_scenario("ex46-common-zeros", {"s": s}, tmp_path, fmt="both")
    summary = _summary(tmp_path, "ex46-common-zeros")
    assert (summary["ratio"], summary["matched_pairs"]) == (ratio, matched)
    # no distance between the zeros: near +-1 any two of them lie close
    assert set(summary) == {"ratio", "matched_pairs", "max_cross_residual",
                            "zero_residual_max", "scenario", "narrative"}
    assert (float(summary["max_cross_residual"]) < cli.PAIR_MATCH_TOL) == (matched == 21)
    pairs = (tmp_path / "ex46-common-zeros" / "pairs.csv").read_text(encoding="utf-8")
    assert len(pairs.splitlines()) == 1 + 21
    assert pairs.splitlines()[0] == "j,matched_k,cross_residual"


def test_ex31_grid_table_is_the_top_rung_of_the_scan_at_each_threshold(tmp_path):
    params = {"ladder": (16, 32, 48), "n_radial": 3, "n_angular": 4}
    cli.run_scenario("ex31-falsify-dirichlet", params, tmp_path, fmt="csv")
    text = (tmp_path / "ex31-falsify-dirichlet" / "grid_dims.csv").read_bytes()
    assert text.startswith(b"re_lambda,im_lambda,dim_1e-6,dim_1e-8\r\n")
    header, *rows = text.decode("utf-8").splitlines()
    assert [float(col[len("dim_"):]) for col in header.split(",")[2:]] == list(
        certify.SCAN_TOLS)
    grid = certify.annulus_grid(0.5, 3, 4)
    dims = certify._spectral_scan(certify.family_composition(0.5, 1.0, "derivative"),
                                  grid, params["ladder"])[1]
    assert [[int(d) for d in row.split(",")[2:]] for row in rows] == [
        [dims[(complex(lam), tol)][-1] for tol in certify.SCAN_TOLS] for lam in grid]


def test_thm32_at_a_complex_lambda_holds_parity_with_the_weighted_oracle(tmp_path):
    # a complex lambda turns the rung's real framed buffer complex before
    # lambda is subtracted; the oracle builds A - lambda I on the weights
    params = {"lam": 1.2 + 0.3j, "ladder": (64, 128, 256), "index_max": 16}
    cli.run_scenario("thm32-adjoint-certify", params, tmp_path / "framed")
    with mock.patch.object(certify, "family_adjoint_witnessed", thm32_oracle.weighted_rungs):
        cli.run_scenario("thm32-adjoint-certify", params, tmp_path / "oracle")
    parity = report_parity.compare_trees(tmp_path / "oracle", tmp_path / "framed")
    assert parity.violations == []
    report = _summary(tmp_path / "framed", "thm32-adjoint-certify")["report"]
    assert report["verdict"] == certify.CERTIFIED
    assert [r["kernel_dim"] for r in report["ladder"]] == [4, 9, 17]
    assert [r["corank"] for r in report["ladder"]] == [0, 0, 0]


@pytest.mark.parametrize("params", [{}, {"lam": 1.2 + 0.3j, "ladder": (64, 128, 256),
                                             "index_max": 16}],
                         ids=["defaults", "complex-lam"])
def test_witnessed_rungs_prove_a_sigma_min_bound_on_the_rows_their_corank_reads(tmp_path,
                                                                                params):
    # a witnessed rung's kernel evidence is its witness count, and the Gram
    # certificate of the leading rows - drop_rows rows of A - lambda I proves
    # their corank 0 with a lower bound on their sigma_min, and takes no SVD
    cli.run_scenario("thm32-adjoint-certify", params, tmp_path)
    report = _summary(tmp_path, "thm32-adjoint-certify")["report"]
    assert report["schema_version"] == "3"
    lam = params.get("lam", 3.0 ** 0.25)
    for rung in report["ladder"]:
        rows = thm32_oracle.framed_kept_rows(0.5, lam, rung["size"])
        values = np.linalg.svd(rows, compute_uv=False)
        assert rung["corank_by"] == "cholesky" and "sigma_min" not in rung
        assert 0.0 < rung["sigma_min_lower"] <= values[-1]
        assert rung["corank"] == rows.shape[0] - np.count_nonzero(values > 1e-8 * values[0])
        assert rung["corank"] == 0


def test_main_list_and_validate(capsys):
    assert cli.main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "annulus" in out
    assert cli.main(["--scenario", "annulus", "--validate"]) == 0
    assert cli.main(["--scenario", "annulus", "--param", "r=2.0",
                     "--validate"]) == 2


def test_main_runs_and_prints_paths(tmp_path, capsys):
    rc = cli.main(["--scenario", "annulus", "--param", "r=0.25",
                   "--out", str(tmp_path), "--format", "json"])
    assert rc == 0
    assert "summary.json" in capsys.readouterr().out
    assert _summary(tmp_path, "annulus")["r"] == 0.25


def test_main_config_and_ladder_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scenario = ex25-notC\nout = {tmp_path}\nformat = json\n"
                   "ladder = 16,32,64\n", encoding="utf-8")
    assert cli.main(["--config", str(cfg)]) == 0
    summary = _summary(tmp_path, "ex25-notC")
    sizes = [r["size"] for r in summary["check_Cplus"]["ladder"]]
    assert sizes == [16, 32, 64]


def test_jobs_beyond_the_scenario_count_start_one_worker_each(tmp_path, monkeypatch):
    sizes = []

    class SerialPool:
        """Records the pool size and maps in this process: nothing is forked."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    rc = cli.main(["--scenario", "annulus", "--scenario", "prop35-halfplane",
                   "--out", str(tmp_path), "--format", "json", "--jobs", "100000"])
    assert rc == 0
    assert sizes == [2]
    assert (tmp_path / "prop35-halfplane" / "summary.json").exists()


def test_main_parallel_jobs(tmp_path):
    rc = cli.main(["--scenario", "annulus", "--scenario", "prop35-halfplane",
                   "--out", str(tmp_path), "--format", "json", "--jobs", "2"])
    assert rc == 0
    assert (tmp_path / "annulus" / "summary.json").exists()
    assert (tmp_path / "prop35-halfplane" / "summary.json").exists()
