"""Scenario runner: parse a JSON config, dispatch, emit CSV or JSON reports.

Exit codes: 0 success, 2 config error, 3 non-convergence, 4 structure
violation (a verified equilibrium broke a shape guarantee), 5 output I/O
failure.  Identical configs and seeds produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .benefits import BenefitSpec
from .equilibrium import (
    STRUCTURE_VIOLATION,
    NonConvergenceError,
    verify_nash,
    welfare_max_equilibrium,
)
from .extensions import (
    brute_force_two_way,
    equilibrium_weighted,
    perturbation_robustness,
    weighted_recipients,
)
from .model import TruncNormal, UNIFORM, GameParams, StrategyProfile, sample_types, validate_types
from .subsidy import planner
from .sweep import _record_for, law_of_few_scan, sweep_k

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NON_CONVERGENCE = 3
EXIT_STRUCTURE = 4
EXIT_IO = 5

_CSV_HEADER = (
    "k,classification,contributor_count,welfare_sum,welfare_avg,polarization,contributor_types"
)


class ConfigError(ValueError):
    pass


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _number(raw, what: str, kind=float):
    """raw as a float (or an int), or a ConfigError naming what it is for.

    Only a JSON number is one: not a bool, not text.  An int must also be
    integral, so 12.7 is an error rather than 12."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{what} must be a number, not {raw!r}")
    if kind is int and isinstance(raw, float) and not raw.is_integer():
        raise ConfigError(f"{what} must be an integer, not {raw!r}")
    try:
        return kind(raw)
    except OverflowError as exc:
        raise ConfigError(f"{what} must be a finite number, not {raw!r}") from exc


def _shaped(cfg: dict, key: str, kind: type):
    """cfg[key] when it is a kind (dict: a JSON object, list: a JSON
    array); an absent or null object reads {}.  Any other value is a
    ConfigError."""
    raw = cfg.get(key)
    if raw is None and kind is dict:
        return {}
    if not isinstance(raw, kind):
        name = "an object" if kind is dict else "a list"
        raise ConfigError(f"{key} must be {name}, not {raw!r}")
    return raw


def _round_sig(obj):
    """Round floats to 12 significant digits for stable serialization."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_sig(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_sig(v) for v in obj]
    return obj


def _parse_benefit(cfg: dict) -> BenefitSpec:
    raw = cfg.get("benefit")
    if not isinstance(raw, dict) or "family" not in raw:
        raise ConfigError("benefit must be an object with a family")
    family = raw["family"]
    try:
        if family == "power":
            return BenefitSpec.power(_number(raw["exponent"], "exponent"))
        return BenefitSpec(family)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad benefit spec: {exc}") from exc


def _parse_dist(raw):
    if raw is None or raw == {"kind": "uniform"} or raw == "uniform":
        return UNIFORM
    if isinstance(raw, dict) and raw.get("kind") == "truncnormal":
        try:
            return TruncNormal(_number(raw["mean"], "mean"), _number(raw["sd"], "sd"))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad distribution: {exc}") from exc
    raise ConfigError(f"unknown distribution {raw!r}")


def _parse_types(cfg: dict) -> np.ndarray:
    if "types" in cfg:
        if "dist" in cfg or "n" in cfg:
            raise ConfigError("give either an explicit type list or (dist, n), not both")
        try:
            return validate_types(np.array([_number(v, "types entry")
                                            for v in _shaped(cfg, "types", list)]))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if "n" not in cfg:
        raise ConfigError("config needs n (with dist) or an explicit types list")
    dist = _parse_dist(cfg.get("dist"))
    try:
        return sample_types(dist, _number(cfg["n"], "n", int),
                            _number(cfg.get("seed", 0), "seed", int))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_params(cfg: dict):
    if ("k" in cfg) == ("k_grid" in cfg):
        raise ConfigError("exactly one of k / k_grid must be present")
    benefit = _parse_benefit(cfg)
    types = _parse_types(cfg)
    c = _number(cfg.get("c", 0), "c")
    k_grid = None
    if "k_grid" in cfg:
        k_grid = [_number(v, "k_grid entry") for v in _shaped(cfg, "k_grid", list)]
        if not k_grid or any(b <= a for a, b in zip(k_grid, k_grid[1:])) or k_grid[0] <= 0:
            raise ConfigError("k_grid must be non-empty, positive, strictly increasing")
        k = k_grid[0]
    else:
        k = _number(cfg["k"], "k")
    try:
        params = GameParams(types, c, k, benefit)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return params, k_grid


def _profile_payload(profile: StrategyProfile) -> dict:
    links = [[int(i), int(j)] for i, j in zip(*np.nonzero(profile.g))]
    return {
        "x": [float(v) for v in profile.x],
        "y": [float(v) for v in profile.y],
        "links": links,
    }


def _profile_from_payload(payload: dict, n: int) -> StrategyProfile:
    """The profile a report embeds; a missing field, a contribution that is
    not a number or a link that is not a pair of player indices in [0, n) is
    a ConfigError."""
    if not isinstance(payload, dict) or not {"x", "y", "links"} <= payload.keys():
        raise ConfigError("a profile needs x, y and links")
    links = payload["links"]
    # bool is an int subclass, and JSON numbers like 1.7 or -1 must not index
    if not isinstance(links, list) or not all(
        isinstance(link, list) and len(link) == 2
        and all(type(v) is int and 0 <= v < n for v in link)
        for link in links
    ):
        raise ConfigError(f"profile links must be pairs of player indices in [0, {n})")
    g = np.zeros((n, n), dtype=np.int8)
    for i, j in links:
        g[i, j] = 1
    x, y = ([_number(v, f"profile {key} entry") for v in _shaped(payload, key, list)]
            for key in ("x", "y"))
    return StrategyProfile(x, y, g)


def _write_json(path: str, body: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(_round_sig(body), sort_keys=True, indent=1) + "\n")


def emit_report(records, fmt: str, path: str, profiles) -> None:
    """Write sweep-shaped records as CSV, or as JSON (12 significant digits)
    with each record's profile."""
    if not records:
        raise ValueError("records must be non-empty")
    if fmt == "csv":
        lines = [_CSV_HEADER]
        for rec in records:
            ctypes = ";".join(f"{t:.6f}" for t in rec.contributor_types)
            lines.append(
                ",".join(
                    [
                        _fmt(rec.k),
                        rec.classification,
                        str(rec.contributor_count),
                        _fmt(rec.welfare_sum),
                        _fmt(rec.welfare_avg),
                        _fmt(rec.polarization),
                        ctypes,
                    ]
                )
            )
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    elif fmt == "json":
        entries = [dataclasses.asdict(rec) for rec in records]
        for entry, profile in zip(entries, profiles):
            entry["profile"] = _profile_payload(profile)
        _write_json(path, {"records": entries})
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _cmd_solve(cfg, params, k_grid, fmt, out):
    if k_grid is not None:
        raise ConfigError("solve takes a single k, not a grid")
    profile, report = welfare_max_equilibrium(params)
    rec = _record_for(params.k, profile, report, params)
    emit_report([rec], fmt, out, [profile])
    return EXIT_STRUCTURE if rec.classification == STRUCTURE_VIOLATION else EXIT_OK


def _cmd_sweep(cfg, params, k_grid, fmt, out):
    if k_grid is None:
        raise ConfigError("sweep_k needs k_grid")
    records, profiles = sweep_k(params, k_grid, return_profiles=True)
    emit_report(records, fmt, out, profiles)
    bad = any(r.classification == STRUCTURE_VIOLATION for r in records)
    return EXIT_STRUCTURE if bad else EXIT_OK


def _cmd_verify(cfg, params, k_grid, fmt, out):
    src = cfg.get("verify_profile")
    if not src:
        raise ConfigError("verify needs verify_profile: path to a JSON report")
    try:
        with open(src, encoding="utf-8") as fh:
            report_body = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read profile report: {exc}") from exc
    records = []
    profiles = []
    for entry in report_body.get("records", []):
        if "profile" not in entry:
            raise ConfigError("verify needs records with embedded profiles (json format)")
        profile = _profile_from_payload(entry["profile"], params.n)
        k = _number(entry.get("k", params.k), "record k")
        rep = verify_nash(profile, params.with_k(k))
        records.append(_record_for(k, profile, rep, params.with_k(k)))
        profiles.append(profile)
    if not records:
        raise ConfigError("no records to verify")
    emit_report(records, fmt, out, profiles)
    bad = any(r.classification == STRUCTURE_VIOLATION for r in records)
    return EXIT_STRUCTURE if bad else EXIT_OK


def _cmd_subsidy(cfg, params, k_grid, fmt, out):
    if fmt != "json":
        raise ConfigError("subsidy reports are JSON only")
    sub = _shaped(cfg, "subsidy", dict)
    if "budget" not in sub:
        raise ConfigError("subsidy needs a budget")
    plan, profile, regime = planner(
        params,
        _number(sub["budget"], "budget"),
        target_grid=_number(sub.get("target_grid", 8), "target_grid", int),
        level_grid=_number(sub.get("level_grid", 20), "level_grid", int),
    )
    rep = verify_nash(profile, params.with_costs(params.cost_vec - plan.v))
    body = {
        "regime": regime,
        "budget": plan.budget,
        "spent": plan.spent,
        "subsidies": [float(v) for v in plan.v],
        "recipients": list(plan.recipients()),
        "classification": rep.classification,
        "profile": _profile_payload(profile),
    }
    _write_json(out, body)
    return EXIT_STRUCTURE if rep.classification == STRUCTURE_VIOLATION else EXIT_OK


def _cmd_law_of_few(cfg, params, k_grid, fmt, out):
    if fmt != "json":
        raise ConfigError("law_of_few reports are JSON only")
    n_list = _shaped(cfg, "law_of_few", dict).get("n_list")
    if not n_list or not isinstance(n_list, list):
        raise ConfigError("law_of_few needs n_list")
    dist = _parse_dist(cfg.get("dist"))
    rows = law_of_few_scan(
        [_number(v, "n_list entry", int) for v in n_list], dist, params.c, params.k,
        params.benefit, _number(cfg.get("seed", 0), "seed", int),
    )
    body = {
        "law_of_few": [
            {"n": n, "contributor_count": count, "contributor_share": count / n}
            for n, count in rows
        ]
    }
    _write_json(out, body)
    return EXIT_OK


def _cmd_extensions(cfg, params, k_grid, fmt, out):
    if fmt != "json":
        raise ConfigError("extension reports are JSON only")
    ext = _shaped(cfg, "extensions", dict)
    variant = ext.get("variant")
    if variant == "weighted":
        wp = equilibrium_weighted(params)
        body = {
            "variant": "weighted",
            "recipients": list(weighted_recipients(wp)),
            "incoming_weight": [float(v) for v in wp.w.sum(axis=0)],
            "x": [float(v) for v in wp.x],
            "y": [float(v) for v in wp.y],
        }
    elif variant == "perturbed":
        eps_bound = _number(ext.get("eps_bound", 1e-4), "eps_bound")
        profile, report = welfare_max_equilibrium(params)
        frac = perturbation_robustness(
            profile,
            params,
            eps_bound,
            _number(ext.get("trials", 20), "trials", int),
            seed=_number(cfg.get("seed", 0), "seed", int),
        )
        body = {
            "variant": "perturbed",
            "classification": report.classification,
            "eps_bound": eps_bound,
            "fraction_preserved": frac,
        }
    elif variant == "two_way":
        profiles = brute_force_two_way(params)
        hi, lo = params.n - 1, 0
        dominant = all(
            np.all(p.x[hi] >= p.x - 1e-9) and np.all(p.y[lo] >= p.y - 1e-9) for p in profiles
        )
        body = {
            "variant": "two_way",
            "equilibrium_count": len(profiles),
            "extremes_dominate": bool(dominant),
        }
    else:
        raise ConfigError(f"unknown extension variant {variant!r}")
    _write_json(out, body)
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "sweep_k": _cmd_sweep,
    "subsidy": _cmd_subsidy,
    "law_of_few": _cmd_law_of_few,
    "extensions": _cmd_extensions,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="netpublic",
        description="Equilibrium engine for a two-good network formation game",
    )
    parser.add_argument("--config", required=True, help="path to a JSON scenario config")
    parser.add_argument("--out", help="output path (overrides config)")
    parser.add_argument("--format", choices=["csv", "json"], help="output format override")
    parser.add_argument("--seed", type=int, help="seed override")
    args = parser.parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        if args.seed is not None:
            cfg["seed"] = args.seed
        command = cfg.get("command")
        if command not in _COMMANDS:
            raise ConfigError(f"unknown command {command!r}")
        out_cfg = _shaped(cfg, "output", dict)
        out = args.out or out_cfg.get("path")
        fmt = args.format or out_cfg.get("format", "csv")
        if not out:
            raise ConfigError("no output path given")
        if fmt not in ("csv", "json"):
            raise ConfigError(f"unknown format {fmt!r}")
        params, k_grid = _parse_params(cfg)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return _COMMANDS[command](cfg, params, k_grid, fmt, out)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NON_CONVERGENCE
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
