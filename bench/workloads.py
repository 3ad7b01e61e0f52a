"""The benchmark's workloads: how each one's tasks are made, run and checked.

A task is one call into a public entry point of ``netpublic``: an in-process
``netpublic.cli.main`` for ``solve``, ``sweep_k`` and ``subsidy``, and
``netpublic.brute_force_equilibria`` for the oracle.  Entry points are looked
up as module attributes at call time, so the tracer's wrappers see them.

Each workload's task list is fixed by its own generator seed, so that every
task has a reference result recorded at the seed commit (``reference.json``).
Why each workload exists is written up in ``NOTES.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# Criterion-1 generator of tests/test_acceptance.py: n in [5, 50], the three
# benefit families in rotation, c in [0.5, 2], k = u * k_tilde, u in [0.02, 1.2].
# The first 40 scenarios are the prefix the layer split was probed on.
BATCH_SEED = 20240801
BATCH_GAMES = 40
FAMILIES = ({"family": "log"}, {"family": "sqrt"}, {"family": "power", "exponent": 0.3})

# Criterion-2 generator: n = 3 for the first 50 scenarios, then n = 4,
# u in [0.05, 1.2]: all 70 scenarios of criterion 2, 50 at n = 3 and 20 at n = 4.
ORACLE_SEED = 424242
ORACLE_GAMES = 70

# Cheaper config first, so that a one-task smoke run stays short.
SWEEP_CONFIGS = ("concave_sweep", "log_sweep")
PLANNER_CONFIG = "subsidy_star"

REL_TOL = 1e-9


class TaskFailed(Exception):
    """A task ran but its output is unusable (non-zero exit, bad artifact)."""


@dataclass(frozen=True)
class Task:
    name: str
    # timed: one call into the program; takes the artifact path to write
    call: Callable[[str], object]
    # untimed: the comparable form of what ``call`` returned or wrote
    fingerprint: Callable[[object, str], dict]


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------

def _contributors(links) -> list[int]:
    return sorted({int(j) for _, j in links})


def _read_artifact(rc, path: str) -> tuple[dict, str]:
    if rc != 0:
        raise TaskFailed(f"netpublic exited with code {rc}")
    try:
        raw = Path(path).read_bytes()
        return json.loads(raw), hashlib.sha256(raw).hexdigest()
    except (OSError, ValueError) as exc:
        raise TaskFailed(f"unreadable artifact {path}: {exc}") from exc


def _records_fingerprint(rc, path: str) -> dict:
    """solve / sweep_k: classification, contributor set and welfare per k."""
    body, sha = _read_artifact(rc, path)
    records = [
        {
            "k": rec["k"],
            "classification": rec["classification"],
            "contributors": _contributors(rec["profile"]["links"]),
            "welfare_sum": rec["welfare_sum"],
        }
        for rec in body["records"]
    ]
    return {"records": records, "sha256": sha}


def _subsidy_fingerprint(rc, path: str) -> dict:
    """subsidy: the chosen plan, its regime and the equilibrium it induces.

    The report carries no welfare figure, so the outlay stands in for it.
    """
    body, sha = _read_artifact(rc, path)
    record = {
        "regime": body["regime"],
        "classification": body["classification"],
        "contributors": _contributors(body["profile"]["links"]),
        "recipients": body["recipients"],
        "spent": body["spent"],
    }
    return {"records": [record], "sha256": sha}


def _oracle_fingerprint(profiles, _path: str) -> dict:
    """Every equilibrium the oracle found: its network and contributions."""
    records = []
    for prof in profiles:
        links = [[int(i), int(j)] for i, j in zip(*np.nonzero(prof.g))]
        records.append({
            "links": links,
            "contributors": _contributors(links),
            "x": [float(v) for v in prof.x],
            "y": [float(v) for v in prof.y],
        })
    # enumeration order is not part of the contract
    records.sort(key=lambda r: r["links"])
    canon = json.dumps(_round12(records), sort_keys=True).encode()
    return {"records": records, "sha256": hashlib.sha256(canon).hexdigest()}


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, list):
        return [_round12(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    return obj


def matches(got, ref) -> bool:
    """Equal, except that floats agree to REL_TOL relative (absolute below 1).

    The artifact hash is compared separately and does not gate: a change in
    summation order may move last digits, which is allowed when reported.
    """
    if isinstance(ref, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(ref, (int, float)):
            return False
        if math.isinf(ref) or math.isinf(got):
            return got == ref
        return abs(got - ref) <= REL_TOL * max(abs(got), abs(ref), 1.0)
    if isinstance(ref, dict):
        return (isinstance(got, dict) and got.keys() == ref.keys()
                and all(matches(got[k], ref[k]) for k in ref if k != "sha256"))
    if isinstance(ref, list):
        return (isinstance(got, list) and len(got) == len(ref)
                and all(matches(g, r) for g, r in zip(got, ref)))
    return got == ref


# ----------------------------------------------------------------------
# task lists
# ----------------------------------------------------------------------

def _spec(npub, benefit: dict):
    if benefit["family"] == "power":
        return npub.BenefitSpec.power(benefit["exponent"])
    return npub.BenefitSpec(benefit["family"])


def _random_game(npub, rng, n: int, benefit: dict, u_low: float):
    """One draw of the acceptance generators, in their draw order."""
    types = np.array(sorted([0.0] + list(rng.uniform(size=n - 2)) + [1.0]))
    c = float(rng.uniform(0.5, 2.0))
    probe = npub.GameParams(types, c, 1.0, _spec(npub, benefit))
    k = float(rng.uniform(u_low, 1.2)) * npub.k_tilde(probe)
    return types, c, k


def _cli_task(npub, name: str, config: Path, fingerprint) -> Task:
    cli = npub.cli

    def call(out: str):
        return cli.main(["--config", str(config), "--out", out, "--format", "json"])

    return Task(name, call, fingerprint)


def batch_small(npub, workdir: str) -> list[Task]:
    rng = np.random.default_rng(BATCH_SEED)
    tasks = []
    for idx in range(BATCH_GAMES):
        n = int(rng.integers(5, 51))
        benefit = FAMILIES[idx % 3]
        types, c, k = _random_game(npub, rng, n, benefit, 0.02)
        config = Path(workdir) / f"solve-{idx:03d}.json"
        config.write_text(json.dumps({
            "command": "solve", "types": types.tolist(), "c": c, "k": k, "benefit": benefit,
        }))
        tasks.append(_cli_task(npub, f"solve-{idx:03d}", config, _records_fingerprint))
    return tasks


def sweep_configs(npub, workdir: str) -> list[Task]:
    return [_cli_task(npub, name, CONFIGS / f"{name}.json", _records_fingerprint)
            for name in SWEEP_CONFIGS]


def planner_n10(npub, workdir: str) -> list[Task]:
    return [_cli_task(npub, PLANNER_CONFIG, CONFIGS / f"{PLANNER_CONFIG}.json",
                      _subsidy_fingerprint)]


def oracle_n4(npub, workdir: str) -> list[Task]:
    rng = np.random.default_rng(ORACLE_SEED)
    tasks = []
    for idx in range(ORACLE_GAMES):
        n = 3 if idx < 50 else 4
        benefit = FAMILIES[idx % 3]
        types, c, k = _random_game(npub, rng, n, benefit, 0.05)
        params = npub.GameParams(types, c, k, _spec(npub, benefit))

        def call(_out: str, params=params):
            return npub.brute_force_equilibria(params)

        tasks.append(Task(f"oracle-{idx:03d}-n{n}", call, _oracle_fingerprint))
    return tasks


def warm_up(npub, workdir: str) -> None:
    """One tiny CLI solve and one tiny brute force, run before timing starts.

    First calls pay one-off costs (lazy imports in the program, caches filled
    on first use).  Paid here, they count in ``setup_s`` instead of in the
    latency of whichever task happens to run first.
    """
    config = Path(workdir) / "warm-up.json"
    config.write_text(json.dumps({
        "command": "solve", "types": [0.0, 0.25, 0.5, 0.75, 1.0], "c": 1.0, "k": 0.3,
        "benefit": FAMILIES[0],
    }))
    out = str(Path(workdir) / "warm-up-out.json")
    rc = npub.cli.main(["--config", str(config), "--out", out, "--format", "json"])
    if rc != 0:
        raise TaskFailed(f"warm-up solve exited with code {rc}")
    npub.brute_force_equilibria(
        npub.GameParams(np.array([0.0, 0.5, 1.0]), 1.0, 0.3, _spec(npub, FAMILIES[0])))


WORKLOADS = {
    "batch-small": batch_small,
    "sweep-configs": sweep_configs,
    "planner-n10": planner_n10,
    "oracle-n4": oracle_n4,
}
