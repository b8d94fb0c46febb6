"""Experiment configuration: versioned JSON in, validated objects out.

Every command takes one JSON document.  Validation errors name the faulty
field; unknown problem ids or malformed sections never reach the solvers.
Block indices in subsets are 0-based.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from .blockspace import BlockSubsetScheme, Region
from .errors import ConfigError, InadmissibleGauge

if TYPE_CHECKING:
    from .problems import ProblemSpec

SCHEMA_VERSION = 1

CERTIFY_PROPERTIES = (
    "pointwise_aafne",
    "aafne_in_expectation",
    "paracontraction_in_expectation",
    "expectation_identities",
)


def _require(d: dict, key: str, where: str) -> Any:
    if key not in d:
        raise ConfigError(f"{where}.{key}: missing required field")
    return d[key]


def _as_int(v, where: str, minimum: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}: expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {v}")
    return v


def _as_float(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {v!r}")
    return float(v)


def _as_finite(v, where: str, nonnegative: bool = False) -> float:
    x = _as_float(v, where)
    if not np.isfinite(x) or (nonnegative and x < 0):
        rule = "finite and nonnegative" if nonnegative else "finite"
        raise ConfigError(f"{where}: must be {rule}, got {x}")
    return x


def _as_bool(v, where: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{where}: expected true or false, got {v!r}")
    return v


def _as_vector(v, where: str) -> np.ndarray:
    if not isinstance(v, (list, tuple)) or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v):
        raise ConfigError(f"{where}: expected a list of numbers, got {v!r}")
    return np.asarray(v, dtype=float)


@dataclass
class RunSection:
    num_chains: int
    iterations: int
    snapshot_every: int = 0
    dw_step_every: int = 0
    init: dict = field(default_factory=lambda: {"kind": "region"})
    strict_steps: bool = False


@dataclass
class CertifySection:
    property_name: str
    target: dict = field(default_factory=lambda: {"kind": "full"})
    alpha: float = 0.5
    violation: float = 0.0
    num_pairs: int = 10_000
    region: Region | None = None
    tolerance: float = 1e-10
    adversarial: bool = True
    residual_threshold: float = 1e-8


@dataclass
class RateSection:
    column: str = "d_target"
    gauge: dict | None = None
    fejer_tol_rel: float = 1e-3
    tail_tol: float = 1e-3


@dataclass
class ExperimentConfig:
    """A fully validated experiment description."""

    problem_id: str
    problem_params: dict
    flavor: str
    scheme: BlockSubsetScheme
    steps: np.ndarray | None
    seed: int
    output_dir: str | None = None
    run: RunSection | None = None
    certify: CertifySection | None = None
    rate: RateSection | None = None

    def build_problem(self) -> ProblemSpec:
        return build_problem(self.problem_id, self.problem_params)

    def resolved(self) -> dict:
        """Plain-JSON view of the config with defaults applied (for reports)."""
        out: dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "problem": {"id": self.problem_id, "params": self.problem_params},
            "flavor": self.flavor,
            "scheme": {
                "subsets": [list(s) for s in self.scheme.subsets],
                "probs": list(self.scheme.probs),
            },
            "steps": None if self.steps is None else [float(t) for t in self.steps],
            "seed": self.seed,
            "output_dir": self.output_dir,
        }
        if self.run is not None:
            out["run"] = asdict(self.run)
        if self.certify is not None:
            c = self.certify
            out["certify"] = {
                "property": c.property_name,
                "target": c.target,
                "alpha": c.alpha,
                "violation": c.violation,
                "num_pairs": c.num_pairs,
                "region": None if c.region is None else {"lo": c.region.lo.tolist(), "hi": c.region.hi.tolist()},
                "tolerance": c.tolerance,
                "adversarial": c.adversarial,
                "residual_threshold": c.residual_threshold,
            }
        if self.rate is not None:
            out["rate"] = asdict(self.rate)
        return out


def _counterexample2d(params: dict) -> ProblemSpec:
    from .problems import counterexample2d

    t = _as_float(params.get("t", 0.25), "problem.params.t")
    try:
        return counterexample2d(t)
    except ValueError as e:
        raise ConfigError(f"problem.params.t: {e}") from e


def _feasibility(params: dict) -> ProblemSpec:
    from .problems import feasibility, make_set

    raw_sets = _require(params, "sets", "problem.params")
    if not isinstance(raw_sets, list) or len(raw_sets) < 2:
        raise ConfigError("problem.params.sets: expected a list of at least two set descriptors")
    sets = []
    for idx, s in enumerate(raw_sets):
        if not isinstance(s, dict) or "kind" not in s:
            raise ConfigError(f"problem.params.sets[{idx}]: expected an object with a 'kind'")
        kind = s["kind"]
        rest = {k: v for k, v in s.items() if k != "kind"}
        try:
            sets.append(make_set(kind, **rest))
        except Exception as e:
            raise ConfigError(f"problem.params.sets[{idx}]: {e}") from e
    coupling = params.get("coupling", "sqdist")
    if coupling not in ("sqdist", "indicator"):
        raise ConfigError(
            f"problem.params.coupling: expected 'sqdist' or 'indicator', got {coupling!r}"
        )
    return feasibility(sets, coupling)


def _quadratic_l1(params: dict) -> ProblemSpec:
    from .problems import quadratic_l1

    try:
        Q = np.asarray(_require(params, "Q", "problem.params"), dtype=float)
    except ValueError as e:
        raise ConfigError(f"problem.params.Q: {e}") from e
    b = _as_vector(_require(params, "b", "problem.params"), "problem.params.b")
    w = _as_vector(_require(params, "l1_weights", "problem.params"), "problem.params.l1_weights")
    bd = params.get("block_dims")
    try:
        return quadratic_l1(Q, b, w, None if bd is None else tuple(int(x) for x in bd))
    except ValueError as e:
        raise ConfigError(f"problem.params: {e}") from e


# The problem ids a config may name (those of problems.PROBLEM_GALLERY),
# each with the builder that validates its params; the problems module is
# loaded only when a problem is built.
PROBLEM_BUILDERS = {
    "counterexample2d": _counterexample2d,
    "feasibility": _feasibility,
    "quadratic_l1": _quadratic_l1,
}


def build_problem(problem_id: str, params: dict) -> ProblemSpec:
    builder = PROBLEM_BUILDERS.get(problem_id)
    if builder is None:
        raise ConfigError(f"problem.id: unknown problem {problem_id!r}")
    return builder(params)


def _parse_region(d: dict, where: str) -> Region:
    lo = _as_vector(_require(d, "lo", where), f"{where}.lo")
    hi = _as_vector(_require(d, "hi", where), f"{where}.hi")
    try:
        return Region(lo, hi)
    except Exception as e:
        raise ConfigError(f"{where}: {e}") from e


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object at top level")
    version = _as_int(_require(doc, "schema_version", "config"), "config.schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"config.schema_version: this build reads version {SCHEMA_VERSION}, got {version}"
        )
    prob = _require(doc, "problem", "config")
    if not isinstance(prob, dict):
        raise ConfigError("config.problem: expected an object")
    problem_id = _require(prob, "id", "config.problem")
    if problem_id not in PROBLEM_BUILDERS:
        raise ConfigError(
            f"config.problem.id: unknown problem {problem_id!r}; "
            f"available: {sorted(PROBLEM_BUILDERS)}"
        )
    params = prob.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("config.problem.params: expected an object")

    flavor = _require(doc, "flavor", "config")
    if flavor not in ("fb", "dr"):
        raise ConfigError(f"config.flavor: expected 'fb' or 'dr', got {flavor!r}")

    raw_scheme = _require(doc, "scheme", "config")
    if not isinstance(raw_scheme, dict):
        raise ConfigError("config.scheme: expected an object with subsets and probs")
    subsets = _require(raw_scheme, "subsets", "config.scheme")
    probs = _require(raw_scheme, "probs", "config.scheme")
    try:
        scheme = BlockSubsetScheme(
            tuple(tuple(int(j) for j in s) for s in subsets),
            tuple(float(q) for q in probs),
        )
    except Exception as e:
        raise ConfigError(f"config.scheme: {e}") from e

    steps = doc.get("steps")
    steps_arr = None if steps is None else _as_vector(steps, "config.steps")
    if steps_arr is not None and not np.all(np.isfinite(steps_arr) & (steps_arr > 0)):
        raise ConfigError(f"config.steps: every step must be finite and positive, got {steps}")

    seed = _as_int(_require(doc, "seed", "config"), "config.seed", minimum=0)
    output_dir = doc.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("config.output_dir: expected a string path")

    run_sec = None
    if "run" in doc:
        r = doc["run"]
        if not isinstance(r, dict):
            raise ConfigError("config.run: expected an object")
        init = r.get("init", {"kind": "region"})
        if not isinstance(init, dict) or "kind" not in init:
            raise ConfigError("config.run.init: expected an object with a 'kind'")
        if init["kind"] not in ("region", "point", "uniform_box"):
            raise ConfigError(
                f"config.run.init.kind: expected region, point, or uniform_box, got {init['kind']!r}"
            )
        if init["kind"] == "point":
            x = _as_vector(_require(init, "x", "config.run.init"), "config.run.init.x")
            if not np.isfinite(x).all():
                raise ConfigError(f"config.run.init.x: must be finite, got {x.tolist()}")
        elif init["kind"] == "uniform_box":
            _parse_region(init, "config.run.init")
        run_sec = RunSection(
            num_chains=_as_int(_require(r, "num_chains", "config.run"), "config.run.num_chains", 1),
            iterations=_as_int(_require(r, "iterations", "config.run"), "config.run.iterations", 0),
            snapshot_every=_as_int(r.get("snapshot_every", 0), "config.run.snapshot_every", 0),
            dw_step_every=_as_int(r.get("dw_step_every", 0), "config.run.dw_step_every", 0),
            init=init,
            strict_steps=_as_bool(r.get("strict_steps", False), "config.run.strict_steps"),
        )

    certify_sec = None
    if "certify" in doc:
        c = doc["certify"]
        if not isinstance(c, dict):
            raise ConfigError("config.certify: expected an object")
        prop = _require(c, "property", "config.certify")
        if prop not in CERTIFY_PROPERTIES:
            raise ConfigError(
                f"config.certify.property: expected one of {CERTIFY_PROPERTIES}, got {prop!r}"
            )
        target = c.get("target", {"kind": "full"})
        if not isinstance(target, dict) or target.get("kind") not in ("full", "subset"):
            raise ConfigError("config.certify.target: expected kind 'full' or 'subset'")
        if target["kind"] == "subset":
            idx = _as_int(_require(target, "index", "config.certify.target"), "config.certify.target.index", 0)
            if idx >= scheme.num_outcomes:
                raise ConfigError(f"config.certify.target.index: {idx} out of range for "
                                  f"{scheme.num_outcomes} subsets")
        alpha = _as_float(c.get("alpha", 0.5), "config.certify.alpha")
        if not 0 < alpha < 1:
            raise ConfigError(f"config.certify.alpha: must lie in (0, 1), got {alpha}")
        certify_sec = CertifySection(
            property_name=prop,
            target=target,
            alpha=alpha,
            violation=_as_finite(c.get("violation", 0.0), "config.certify.violation", True),
            num_pairs=_as_int(c.get("num_pairs", 10_000), "config.certify.num_pairs", 1),
            region=None if "region" not in c else _parse_region(c["region"], "config.certify.region"),
            tolerance=_as_finite(c.get("tolerance", 1e-10), "config.certify.tolerance"),
            adversarial=_as_bool(c.get("adversarial", True), "config.certify.adversarial"),
            residual_threshold=_as_finite(c.get("residual_threshold", 1e-8),
                                          "config.certify.residual_threshold", True),
        )

    rate_sec = None
    if "rate" in doc:
        r = doc["rate"]
        if not isinstance(r, dict):
            raise ConfigError("config.rate: expected an object")
        gauge = r.get("gauge")
        if gauge is not None:
            if not isinstance(gauge, dict) or gauge.get("kind") != "linear":
                raise ConfigError("config.rate.gauge: only {'kind': 'linear', kappa, tau, epsilon} supported")
            kappa, tau = (_as_float(_require(gauge, key, "config.rate.gauge"), f"config.rate.gauge.{key}")
                          for key in ("kappa", "tau"))
            epsilon = gauge.get("epsilon")
            epsilon = 0.0 if epsilon is None else _as_float(epsilon, "config.rate.gauge.epsilon")
            from .rates import theta_linear

            try:  # the admissible window, and epsilon >= 0
                theta_linear(kappa, tau, epsilon)
            except InadmissibleGauge as e:
                raise ConfigError(f"config.rate.gauge: {e}") from e
        rate_sec = RateSection(
            column=str(r.get("column", "d_target")),
            gauge=gauge,
            # a negative fejer_tol_rel asks every step to shrink by that fraction
            fejer_tol_rel=_as_finite(r.get("fejer_tol_rel", 1e-3), "config.rate.fejer_tol_rel"),
            tail_tol=_as_finite(r.get("tail_tol", 1e-3), "config.rate.tail_tol", True),
        )

    return ExperimentConfig(
        problem_id=problem_id,
        problem_params=params,
        flavor=flavor,
        scheme=scheme,
        steps=steps_arr,
        seed=seed,
        output_dir=output_dir,
        run=run_sec,
        certify=certify_sec,
        rate=rate_sec,
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file is not valid JSON: {e}")
    return parse_config(doc)
