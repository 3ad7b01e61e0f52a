"""Scenario runner: config handling, report formats, exit codes, determinism."""

import json

import numpy as np
import pytest

from netpublic import BenefitSpec, GameParams
from netpublic.cli import main


def _write(path, body):
    path.write_text(json.dumps(body), encoding="utf-8")
    return str(path)


def _base_config(**overrides):
    cfg = {
        "benefit": {"family": "log"},
        "c": 1.0,
        "k": 0.4,
        "n": 10,
        "dist": {"kind": "uniform"},
        "seed": 3,
        "command": "solve",
        "output": {"path": "", "format": "json"},
    }
    cfg.update(overrides)
    return cfg


def test_conflicting_k_and_grid_is_config_error(tmp_path):
    cfg = _base_config(k_grid=[0.3, 0.5])
    cfg["output"]["path"] = str(tmp_path / "o.json")
    assert main(["--config", _write(tmp_path / "c.json", cfg)]) == 2


def test_missing_output_is_config_error(tmp_path):
    cfg = _base_config()
    del cfg["output"]
    assert main(["--config", _write(tmp_path / "c.json", cfg)]) == 2


def test_unknown_command_is_config_error(tmp_path):
    cfg = _base_config(command="optimize")
    cfg["output"]["path"] = str(tmp_path / "o.json")
    assert main(["--config", _write(tmp_path / "c.json", cfg)]) == 2


def test_explicit_types_must_span_unit_interval(tmp_path):
    cfg = _base_config()
    del cfg["dist"], cfg["n"]
    cfg["types"] = [0.1, 0.5, 1.0]
    cfg["output"]["path"] = str(tmp_path / "o.json")
    assert main(["--config", _write(tmp_path / "c.json", cfg)]) == 2


def test_subsidy_requires_json(tmp_path):
    cfg = _base_config(command="subsidy", subsidy={"budget": 0.5})
    cfg["output"] = {"path": str(tmp_path / "o.csv"), "format": "csv"}
    assert main(["--config", _write(tmp_path / "c.json", cfg)]) == 2


def test_solve_above_threshold_reports_empty(tmp_path):
    cfg = _base_config(k=5.0)
    out = tmp_path / "o.json"
    cfg["output"]["path"] = str(out)
    assert main(["--config", _write(tmp_path / "c.json", cfg)]) == 0
    body = json.loads(out.read_text())
    assert body["records"][0]["classification"] == "Empty"
    assert body["records"][0]["contributor_count"] == 0
    assert "profile" in body["records"][0]


def test_solve_empty_record_csv_row(tmp_path):
    cfg = _base_config(k=5.0, n=5)
    out = tmp_path / "o.csv"
    cfg["output"] = {"path": str(out), "format": "csv"}
    assert main(["--config", _write(tmp_path / "c.json", cfg)]) == 0
    header, row = out.read_text().splitlines()
    fields = row.split(",")
    assert fields[1] == "Empty"
    assert fields[6] == ""  # no contributors
    float(fields[3]), float(fields[4])  # welfare fields present and numeric


def test_mode_key_is_ignored_and_mode_flag_is_gone(tmp_path):
    # the best-response search follows from n, so a "mode" key is ignored
    # like any other unknown key, whatever its value: at n = 20 every config
    # solves byte for byte alike, and --mode is not a flag
    written = []
    for mode in ("exact", "structural", "fast", None):
        cfg = _base_config(n=20, k=0.5)
        if mode is not None:
            cfg["mode"] = mode
        out = tmp_path / f"{mode}.json"
        cfg["output"]["path"] = str(out)
        assert main(["--config", _write(tmp_path / f"{mode}-c.json", cfg)]) == 0
        written.append(out.read_bytes())
    assert all(w == written[0] for w in written)
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(tmp_path / "None-c.json"), "--mode", "exact"])
    assert exc.value.code == 2


@pytest.mark.parametrize("change", [
    {"k": "abc"},
    {"k": None},
    {"c": "x"},
    {"command": "sweep_k", "k_grid": [0.1, "a"]},
    {"n": None},
    {"n": 1e999},
    {"seed": None},
    {"dist": {"kind": "truncnormal", "mean": None, "sd": 1.0}},
    {"benefit": {"family": "power", "exponent": None}},
    {"command": "verify"},
    {"n": 12.7},
    {"seed": 7.9},
    {"c": True},
    {"n": "12"},
    {"command": "sweep_k", "k_grid": 5},
    {"output": "o.csv"},
    {"command": "subsidy", "subsidy": 5},
    {"command": "law_of_few", "law_of_few": "n_list"},
    {"command": "law_of_few", "law_of_few": {"n_list": 5}},
    {"command": "extensions", "extensions": 3},
    {"types": ["0", "0.5", True]},
    {"command": "subsidy", "subsidy": {"budget": 0.5, "target_grid": -3, "level_grid": 4}},
    {"command": "subsidy", "subsidy": {"budget": 0.5, "target_grid": 3, "level_grid": -3}},
], ids=["k-text", "k-null", "c-text", "k_grid-text", "n-null", "n-inf", "seed-null",
        "mean-null", "exponent-null", "record-k-null", "n-fraction", "seed-fraction",
        "c-bool", "n-text", "k_grid-number", "output-text", "subsidy-number",
        "law_of_few-text", "n_list-number", "extensions-number", "types-text-bool",
        "target_grid-negative", "level_grid-negative"])
def test_malformed_number_is_config_error(tmp_path, capsys, change):
    cfg = _base_config(**change)
    if isinstance(cfg["output"], dict):
        cfg["output"]["path"] = str(tmp_path / "o.json")
    if "k_grid" in change:
        del cfg["k"]
    if "types" in change:
        del cfg["n"], cfg["dist"]
    if cfg["command"] == "verify":
        report = {"records": [{"k": None, "profile": {"x": [1.0] * 10, "y": [1.0] * 10,
                                                      "links": []}}]}
        cfg["verify_profile"] = _write(tmp_path / "report.json", report)
    assert main(["--config", _write(tmp_path / "c.json", cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_sweep_csv_columns_and_determinism(tmp_path):
    cfg = _base_config(command="sweep_k", n=20)
    del cfg["k"]
    cfg["k_grid"] = [0.3, 0.6, 0.9]
    out = tmp_path / "o.csv"
    cfg["output"] = {"path": str(out), "format": "csv"}
    cfg_path = _write(tmp_path / "c.json", cfg)
    assert main(["--config", cfg_path]) == 0
    first = out.read_bytes()
    lines = first.decode().splitlines()
    assert lines[0] == (
        "k,classification,contributor_count,welfare_sum,welfare_avg,"
        "polarization,contributor_types"
    )
    assert len(lines) == 4
    assert lines[1].startswith("0.3,")
    assert main(["--config", cfg_path]) == 0
    assert out.read_bytes() == first


def test_seed_override_changes_output(tmp_path):
    cfg = _base_config()
    out = tmp_path / "o.json"
    cfg["output"]["path"] = str(out)
    cfg_path = _write(tmp_path / "c.json", cfg)
    assert main(["--config", cfg_path]) == 0
    a = out.read_bytes()
    assert main(["--config", cfg_path, "--seed", "4"]) == 0
    assert out.read_bytes() != a


def test_solve_then_verify_roundtrip(tmp_path):
    cfg = _base_config(n=8)
    solve_out = tmp_path / "solve.json"
    cfg["output"]["path"] = str(solve_out)
    assert main(["--config", _write(tmp_path / "c.json", cfg)]) == 0
    recorded = json.loads(solve_out.read_text())["records"][0]["classification"]

    vcfg = _base_config(n=8, command="verify", verify_profile=str(solve_out))
    verify_out = tmp_path / "verify.json"
    vcfg["output"]["path"] = str(verify_out)
    assert main(["--config", _write(tmp_path / "v.json", vcfg)]) == 0
    reverified = json.loads(verify_out.read_text())["records"][0]["classification"]
    assert reverified == recorded


def test_verify_rejects_non_finite_profile(tmp_path):
    cfg = _base_config(n=8)
    solve_out = tmp_path / "solve.json"
    cfg["output"]["path"] = str(solve_out)
    assert main(["--config", _write(tmp_path / "c.json", cfg)]) == 0
    # non-finite, text and bool entries
    cases = (("x", float("nan")), ("y", float("inf")), ("x", "1.0"), ("y", True))
    for case, (field, bad) in enumerate(cases):
        report = json.loads(solve_out.read_text())
        report["records"][0]["profile"][field][1] = bad
        bad_report = _write(tmp_path / f"bad_{case}.json", report)
        vcfg = _base_config(n=8, command="verify", verify_profile=bad_report)
        vcfg["output"]["path"] = str(tmp_path / "verify.json")
        assert main(["--config", _write(tmp_path / "v.json", vcfg)]) == 2
        assert not (tmp_path / "verify.json").exists()


def test_verify_rejects_bad_link_indices(tmp_path):
    cfg = _base_config(n=4)
    solve_out = tmp_path / "solve.json"
    cfg["output"]["path"] = str(solve_out)
    assert main(["--config", _write(tmp_path / "c.json", cfg)]) == 0
    # out of range, negative (would wrap), fractional (would truncate), a
    # boolean, not a pair, and no links at all
    for case, links in enumerate(([[1, 4]], [[1, -1]], [[1.7, 2]], [[True, 2]], [[1]], None)):
        report = json.loads(solve_out.read_text())
        profile = report["records"][0]["profile"]
        if links is None:
            del profile["links"]
        else:
            profile["links"] = links
        bad_report = _write(tmp_path / f"bad_{case}.json", report)
        vcfg = _base_config(n=4, command="verify", verify_profile=bad_report)
        vcfg["output"]["path"] = str(tmp_path / "verify.json")
        assert main(["--config", _write(tmp_path / "v.json", vcfg)]) == 2, links
        assert not (tmp_path / "verify.json").exists()


def test_law_of_few_report(tmp_path):
    cfg = _base_config(command="law_of_few", k=0.9, law_of_few={"n_list": [10, 20]})
    out = tmp_path / "o.json"
    cfg["output"]["path"] = str(out)
    assert main(["--config", _write(tmp_path / "c.json", cfg)]) == 0
    body = json.loads(out.read_text())
    assert [row["n"] for row in body["law_of_few"]] == [10, 20]


def test_subsidy_report(tmp_path):
    cfg = _base_config(command="subsidy", n=6, k=0.8,
                       subsidy={"budget": 0.5, "target_grid": 3, "level_grid": 4})
    out = tmp_path / "o.json"
    cfg["output"]["path"] = str(out)
    assert main(["--config", _write(tmp_path / "c.json", cfg)]) == 0
    body = json.loads(out.read_text())
    assert body["spent"] <= body["budget"] + 1e-9
    assert set(body) >= {"regime", "subsidies", "recipients", "classification", "profile"}


def test_extensions_weighted_report(tmp_path):
    cfg = _base_config(command="extensions", n=6, k=0.5,
                       extensions={"variant": "weighted"})
    out = tmp_path / "o.json"
    cfg["output"]["path"] = str(out)
    assert main(["--config", _write(tmp_path / "c.json", cfg)]) == 0
    body = json.loads(out.read_text())
    assert len(body["recipients"]) in (0, 2)


def test_unwritable_output_is_io_error(tmp_path):
    cfg = _base_config(n=4, k=5.0)
    cfg["output"]["path"] = str(tmp_path)  # a directory, not a file
    assert main(["--config", _write(tmp_path / "c.json", cfg)]) == 5


def test_two_way_extension_size_limit_is_config_error(tmp_path):
    cfg = _base_config(command="extensions", n=6, extensions={"variant": "two_way"})
    cfg["output"]["path"] = str(tmp_path / "o.json")
    assert main(["--config", _write(tmp_path / "c.json", cfg)]) == 2


@pytest.mark.parametrize("benefit, types, c, k", [
    ({"family": "log"}, [0.0, 0.104536, 0.511117, 1.0], 0.54122, 0.546015),
    ({"family": "power", "exponent": 0.3}, [0.0, 0.215582, 0.455119, 1.0], 1.848238, 0.053996),
])
def test_two_way_extension_counts_every_equilibrium(tmp_path, benefit, types, c, k):
    # each game has one two-way equilibrium, at a fixed point that a
    # Gauss-Seidel run on its digraph does not reach
    cfg = _base_config(command="extensions", benefit=benefit, types=types, c=c, k=k,
                       extensions={"variant": "two_way"})
    del cfg["dist"], cfg["n"]
    out = tmp_path / "o.json"
    cfg["output"]["path"] = str(out)
    assert main(["--config", _write(tmp_path / "c.json", cfg)]) == 0
    body = json.loads(out.read_text())
    assert body == {"variant": "two_way", "equilibrium_count": 1, "extremes_dominate": True}


def test_non_finite_cost_is_config_error(tmp_path):
    cfg = _base_config(c=float("nan"))
    cfg["output"]["path"] = str(tmp_path / "o.json")
    assert main(["--config", _write(tmp_path / "c.json", cfg)]) == 2


def test_non_finite_link_fee_is_config_error(tmp_path):
    cfg = _base_config(k=float("inf"))
    cfg["output"]["path"] = str(tmp_path / "o.json")
    assert main(["--config", _write(tmp_path / "c.json", cfg)]) == 2


def test_overflowing_isolation_demand_is_config_error(tmp_path):
    # finite costs whose isolation demands overflow: under log x_hat = t / c
    # stays finite but sums to inf (polarization came back as Infinity), under
    # sqrt x_hat = t^2 / (4 c^2) is inf itself
    for family, c in (("log", 1e-308), ("sqrt", 1e-160)):
        with pytest.raises(ValueError, match="overflow"):
            GameParams(np.array([0.0, 0.5, 1.0]), c, 0.4, BenefitSpec(family))
        cfg = _base_config(benefit={"family": family}, c=c)
        cfg["output"]["path"] = str(tmp_path / "o.json")
        assert main(["--config", _write(tmp_path / "c.json", cfg)]) == 2
        assert not (tmp_path / "o.json").exists()


def test_non_finite_truncnormal_is_config_error(tmp_path):
    for mean, sd in ((float("nan"), 1.0), (0.5, float("nan"))):
        cfg = _base_config(dist={"kind": "truncnormal", "mean": mean, "sd": sd})
        cfg["output"]["path"] = str(tmp_path / "o.json")
        assert main(["--config", _write(tmp_path / "c.json", cfg)]) == 2


def test_non_finite_subsidy_budget_is_config_error(tmp_path):
    for budget, literal in ((float("nan"), '"budget": NaN'), (float("inf"), '"budget": Infinity')):
        cfg = _base_config(command="subsidy", subsidy={"budget": budget})
        cfg["output"]["path"] = str(tmp_path / "o.json")
        path = _write(tmp_path / "c.json", cfg)
        assert literal in (tmp_path / "c.json").read_text()
        assert main(["--config", path]) == 2


@pytest.mark.parametrize("eps_bound, literal", [
    (float("nan"), "NaN"), (-0.5, "-0.5"), (float("inf"), "Infinity"), (1e308, "1e+308"),
], ids=["nan", "negative", "inf", "draw-width-overflow"])
def test_perturbed_extension_rejects_bad_eps_bound(tmp_path, capsys, eps_bound, literal):
    cfg = _base_config(command="extensions", n=5,
                       extensions={"variant": "perturbed", "eps_bound": eps_bound, "trials": 3})
    cfg["output"]["path"] = str(tmp_path / "o.json")
    path = _write(tmp_path / "c.json", cfg)
    assert f'"eps_bound": {literal}' in (tmp_path / "c.json").read_text()
    assert main(["--config", path]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "o.json").exists()

