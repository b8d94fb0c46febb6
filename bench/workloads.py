"""Workload generator: configs and measure files from a workload seed.

Every input a benchmark run feeds to the program is written here, into a
directory the caller owns.  The program sees only these files; the seed
decides the lasso instance, the master seed of the chains and the
comparison measures, so the same seed always writes the same bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Workload seeds are reduced modulo this many input sets.  Every input set
# has its outputs recorded in expected.json, so each run can be checked
# against values recorded at the baseline commit.
NUM_INPUT_SETS = 16

# Problem sizes.  "full" is what the benchmark measures; "tiny" only keeps
# the harness honest in the smoke test.  Sizes are cut so that every command
# takes 0.5 to 3 s and a run holds at least three passes to take a median
# over.
# feas_draws keeps 1000 steps, because its Fejer check fails only in the
# long tail where a few slow chains dominate the mean residual.
SIZES = {
    "full": {
        "feas_draws": {"chains": 60, "steps": 1000, "pairs": 10_000},
        "lasso50_fb": {"rows": 25, "cols": 50, "chains": 150, "steps": 100, "pairs": 1000,
                       "cloud": 300},
        "ce2d_transport": {"chains": 700, "steps": 20, "snapshot": 10, "pairs": 10_000,
                           "lp": (250, 200)},
    },
    "tiny": {
        "feas_draws": {"chains": 20, "steps": 20, "pairs": 100},
        "lasso50_fb": {"rows": 5, "cols": 10, "chains": 10, "steps": 10, "pairs": 20,
                       "cloud": 10},
        "ce2d_transport": {"chains": 20, "steps": 10, "snapshot": 5, "pairs": 100,
                           "lp": (12, 9)},
    },
}


@dataclass
class Workload:
    """Generated inputs of one workload, and the argv tail of each command."""

    name: str
    input_set: int
    config: Path
    run_out: Path
    transport_args: list[str]

    def argv(self, command: str) -> list[str]:
        if command in ("run", "certify"):
            return [command, "--config", str(self.config)]
        if command == "rate":
            return ["rate", "--config", str(self.config),
                    "--trajectory", str(self.run_out / "trajectory.csv")]
        return ["transport"] + self.transport_args


def _write_measure(path: Path, support: np.ndarray, weights: np.ndarray, block_dims) -> None:
    """Measure file in the package's format: JSON header, then weight,coords rows."""
    header = {"version": 1, "n": int(support.shape[0]), "dim": int(support.shape[1]),
              "block_dims": [int(d) for d in block_dims]}
    lines = [json.dumps(header, sort_keys=True)]
    for w, row in zip(weights, support):
        lines.append(",".join(format(float(v), ".17g") for v in (w, *row)))
    path.write_text("\n".join(lines) + "\n")


def _equal_cloud(rng: np.random.Generator, n: int, dim: int, scale: float) -> tuple:
    return rng.normal(0.0, scale, size=(n, dim)), np.full(n, 1.0 / n)


def _random_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.uniform(0.5, 1.5, size=n)
    w /= w.sum()
    # make the weights sum to 1 within the reader's 1e-12 check
    w[-1] = 1.0 - w[:-1].sum()
    return w


def _feas_draws(rng, size, out: Path) -> tuple[dict, list[str]]:
    # test_06: two points, product-space DR with singleton blocks; no
    # intersection, so mean_residual never reaches zero
    doc = {
        "problem": {"id": "feasibility", "params": {
            "sets": [{"kind": "point", "point": [0.0, 0.0]},
                     {"kind": "point", "point": [2.0, 0.0]}],
            "coupling": "sqdist"}},
        "flavor": "dr",
        "scheme": {"subsets": [[0], [1]], "probs": [0.5, 0.5]},
        "steps": [1.0, 1.0],
        "run": {"num_chains": size["chains"], "iterations": size["steps"],
                "snapshot_every": 0, "dw_step_every": 0},
        "certify": {"property": "expectation_identities", "num_pairs": size["pairs"]},
        "rate": {"column": "mean_residual"},
    }
    support, weights = _equal_cloud(rng, size["chains"], 4, 1.0)
    _write_measure(out / "cloud.csv", support, weights, (2, 2))
    return doc, [str(out / "run" / "final_measure.csv"), str(out / "cloud.csv"),
                 "--probs", "0.5,0.5"]


def _lasso50_fb(rng, size, out: Path) -> tuple[dict, list[str]]:
    rows, cols = size["rows"], size["cols"]
    # One design for every seed: the reference solve's length depends on the
    # design (2,363 to 48,128 iterations over the first 14 draws at
    # lambda 0.05), which would swamp every timing.  The seed still moves the
    # chains and the cloud.  lambda 0.15 takes the solve from 3,190 to 819
    # iterations, so that set-up, run and certify stay short enough to repeat.
    design = np.random.default_rng([WORKLOADS.index("lasso50_fb"), 0])
    A = design.normal(size=(rows, cols))
    y = design.normal(size=rows)
    Q = A.T @ A / rows
    Q = 0.5 * (Q + Q.T)
    b = -A.T @ y / rows
    probs = [1.0 / cols] * cols
    doc = {
        "problem": {"id": "quadratic_l1", "params": {
            "Q": Q.tolist(), "b": b.tolist(), "l1_weights": [0.15] * cols}},
        "flavor": "fb",
        "scheme": {"subsets": [[j] for j in range(cols)], "probs": probs},
        "run": {"num_chains": size["chains"], "iterations": size["steps"],
                "snapshot_every": 0, "dw_step_every": 0},
        "certify": {"property": "aafne_in_expectation", "alpha": 2.0 / 3.0,
                    "violation": 0.0, "num_pairs": size["pairs"], "adversarial": False},
        "rate": {"column": "d_target"},
    }
    support, weights = _equal_cloud(rng, size["cloud"], cols, 0.5)
    _write_measure(out / "cloud.csv", support, weights, (1,) * cols)
    return doc, [str(out / "run" / "final_measure.csv"), str(out / "cloud.csv"),
                 "--probs", ",".join(repr(q) for q in probs)]


def _ce2d_transport(rng, size, out: Path) -> tuple[dict, list[str]]:
    # the README experiment, with a consecutive-cloud W2 solve every step
    doc = {
        "problem": {"id": "counterexample2d", "params": {"t": 0.2}},
        "flavor": "fb",
        "scheme": {"subsets": [[0], [1]], "probs": [0.5, 0.5]},
        "steps": [0.2, 0.2],
        "run": {"num_chains": size["chains"], "iterations": size["steps"],
                "snapshot_every": size["snapshot"], "dw_step_every": 1},
        "certify": {"property": "aafne_in_expectation", "alpha": 2.0 / 3.0,
                    "violation": 0.0, "num_pairs": size["pairs"], "adversarial": True},
        "rate": {"column": "d_target",
                 "gauge": {"kind": "linear", "kappa": 5.0, "tau": 1.0}},
    }
    # One pair of LP measures for every seed: the LP's solve time depends on
    # the instance (from 1.14 to 1.42 s over ten draws), which would swamp
    # transport_s.  The seed still moves the chains.
    fixed = np.random.default_rng([WORKLOADS.index("ce2d_transport"), 0])
    n, m = size["lp"]
    mu = fixed.normal(0.0, 1.0, size=(n, 2))
    nu = fixed.normal(0.5, 1.5, size=(m, 2))
    _write_measure(out / "mu.csv", mu, _random_weights(fixed, n), (1, 1))
    _write_measure(out / "nu.csv", nu, _random_weights(fixed, m), (1, 1))
    return doc, [str(out / "mu.csv"), str(out / "nu.csv"), "--probs", "0.5,0.5"]


_GENERATORS = {"feas_draws": _feas_draws, "lasso50_fb": _lasso50_fb,
             "ce2d_transport": _ce2d_transport}
WORKLOADS = tuple(_GENERATORS)


def input_set(seed: int) -> int:
    """The recorded input set a workload seed selects."""
    return int(seed) % NUM_INPUT_SETS


def generate(name: str, seed: int, out: Path, scale: str = "full") -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``out``."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}; available: {', '.join(WORKLOADS)}")
    k = input_set(seed)
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([WORKLOADS.index(name), k])
    doc, transport_args = _GENERATORS[name](rng, SIZES[scale][name], out)
    doc.update({"schema_version": 1, "seed": 1000 + k, "output_dir": str(out / "run")})
    config = out / "config.json"
    config.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return Workload(name, k, config, out / "run", transport_args)
