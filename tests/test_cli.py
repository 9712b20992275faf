"""Scenario runner: registry, parameter handling, outputs, determinism."""

import json
from pathlib import Path

import pytest

from univcert import cli


def _summary(out: Path, name: str) -> dict:
    return json.loads((out / name / "summary.json").read_text(encoding="utf-8"))


def test_registry_is_complete():
    assert len(cli.REGISTRY) == 16
    listing = cli.list_scenarios()
    assert all(name in listing for name in cli.REGISTRY)


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
    assert cli.main(["--scenario", "prop35-halfplane", "--param", "alphas=0,1",
                     "--out", str(tmp_path), "--format", "json"]) == 0
    assert _summary(tmp_path, "prop35-halfplane")["bergman_radii"] == {
        "0": 0.25, "1": 0.125}
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
    ["--scenario", "cor34-heller", "--param", "count=8"],
    ["--scenario", "cor34-heller", "--param", "trunc=16"],
])
def test_main_bad_input_exits_2_with_one_line(argv, tmp_path, capsys):
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


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


@pytest.mark.parametrize("config", [
    "scenario = annulus\njobs = two\n",
    "scenario = annulus\nno separator here\n",
    "scenario = annulus\nformat = xml\n",
], ids=["jobs-not-an-integer", "malformed-line", "format-not-json-csv-both"])
def test_main_bad_config_exits_2_with_one_line(config, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config + f"out = {tmp_path}\n", encoding="utf-8")
    assert cli.main(["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert not (tmp_path / "annulus").exists()


def test_thm32_runs_with_an_empty_witness_family(tmp_path):
    assert cli.main(["--scenario", "thm32-adjoint-certify", "--param",
                     "index_max=-1", "--ladder", "16,32,64",
                     "--out", str(tmp_path)]) == 0
    summary = _summary(tmp_path, "thm32-adjoint-certify")
    assert [r["kernel_dim"] for r in summary["report"]["ladder"]] == [0, 0, 0]
    assert summary["gram_min_eigenvalue_top_rung"] == 0.0
    rows = (tmp_path / "thm32-adjoint-certify" / "witnesses.csv").read_text(
        encoding="utf-8").splitlines()
    assert rows == ["n,windowed_residual,window_mass"]


def test_main_validate_reports_non_increasing_ladder(capsys):
    assert cli.main(["--scenario", "ex25-notC", "--param", "ladder=64,32,128",
                     "--validate"]) == 2
    assert "strictly increasing" in capsys.readouterr().out


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
    with pytest.raises(KeyError):
        cli.run_scenario("nope", {}, tmp_path)
    with pytest.raises(ValueError):
        cli.run_scenario("annulus", {"r": 2.0}, tmp_path)


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


def test_halfplane_scenario(tmp_path):
    cli.run_scenario("prop35-halfplane", {}, tmp_path, fmt="json")
    summary = _summary(tmp_path, "prop35-halfplane")
    assert summary["hardy_radius"] == 0.5
    assert summary["bergman_radii"] == {"0.0": 0.25, "2.0": 0.0625}


def test_mzstar_scenario_reports_agreement_rows(tmp_path):
    cli.run_scenario("mzstar-adjoint-compare", {}, tmp_path, fmt="json")
    summary = _summary(tmp_path, "mzstar-adjoint-compare")
    assert summary["agreement_rows"] == [0, 2]


def test_scenario_outputs_are_deterministic(tmp_path):
    names = ["annulus", "ex25-notC", "prop41-falsifiers"]
    for name in names:
        a = cli.run_scenario(name, {}, tmp_path / "a", fmt="both")
        b = cli.run_scenario(name, {}, tmp_path / "b", fmt="both")
        for pa, pb in zip(sorted(a), sorted(b)):
            assert pa.read_bytes() == pb.read_bytes()


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


def test_main_parallel_jobs(tmp_path):
    rc = cli.main(["--scenario", "annulus", "--scenario", "prop35-halfplane",
                   "--out", str(tmp_path), "--format", "json", "--jobs", "2"])
    assert rc == 0
    assert (tmp_path / "annulus" / "summary.json").exists()
    assert (tmp_path / "prop35-halfplane" / "summary.json").exists()
