"""Command-line interface: run, certify, rate, transport.

One command is one process.  Exit codes: 0 on success (certifications
passing), 1 when a requested certification or trajectory check fails,
2 on usage or configuration errors.  Reports embed the resolved config
and seed; CSV output never contains timestamps, so identical
(config, seed) runs write identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, RateSection, load_config
from .errors import BlocksplitError, ConfigError
from .markov import (
    init_ensemble,
    point_sampler,
    read_trajectory_csv,
    run as run_ensemble,
    uniform_box_sampler,
    write_snapshot,
    write_trajectory_csv,
)
from .operators import gd_step_bound
from .rates import check_trajectory
from .regularity import (
    certify_aafne_in_expectation,
    certify_paracontraction_in_expectation,
    certify_pointwise_aafne,
    verify_expectation_identities,
)
from .splitting import apply_T, apply_full
from .transport import DiscreteMeasure, read_measure, wasserstein2_weighted, write_measure


def _finite_or_null(v):
    """A copy of a JSON-able value with NaN and infinities replaced by None."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _finite_or_null(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite_or_null(x) for x in v]
    return v


def _write_report(path: Path, doc: dict) -> None:
    """Write strict JSON: NaN and infinities become null; finite floats round-trip exactly."""
    text = json.dumps(_finite_or_null(doc), indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text)


def _read_input(reader, path):
    """Read an input file; malformed content is a usage error naming the file."""
    try:
        return reader(path)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def _build(cfg: ExperimentConfig):
    problem = cfg.build_problem()
    num_blocks = problem.layout.num_blocks
    if cfg.steps is not None and len(cfg.steps) not in (1, num_blocks):
        raise ConfigError(f"config.steps: expected 1 or {num_blocks} values, got {len(cfg.steps)}")
    m = problem.build_map(cfg.flavor, cfg.scheme, cfg.steps)
    return problem, m


def _init_sampler(cfg: ExperimentConfig, problem):
    init = cfg.run.init
    kind = init["kind"]
    if kind == "point":
        x = np.asarray(init["x"], dtype=float)
        if x.shape != (problem.layout.total_dim,):
            raise ConfigError(
                f"config.run.init.x: expected {problem.layout.total_dim} coordinates, got {x.shape}"
            )
        return point_sampler(x)
    if kind == "uniform_box":
        return uniform_box_sampler(init["lo"], init["hi"])
    return uniform_box_sampler(problem.region.lo, problem.region.hi)


def cmd_run(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Simulate the ensemble and write trajectory, snapshots, and summary."""
    if cfg.run is None:
        raise ConfigError("config.run: required by the run command")
    problem, m = _build(cfg)
    if cfg.run.strict_steps and cfg.flavor == "fb":
        bounds = gd_step_bound(m.coupling, 0.5)
        if not bounds.admits(m.steps):
            raise ConfigError(
                f"config.steps: {m.steps.tolist()} outside the admissible ranges {bounds.per_block} "
                "(strict_steps is on)"
            )
    m.probabilities  # refuses a block never selected: the W2 metric weighs block j by 1/p_j
    t0 = time.time()
    ensemble = init_ensemble(m, _init_sampler(cfg, problem), cfg.run.num_chains, cfg.seed)
    result = run_ensemble(
        ensemble,
        m,
        cfg.run.iterations,
        snapshot_every=cfg.run.snapshot_every,
        dw_step_every=cfg.run.dw_step_every,
        target=problem.target_point,
    )
    elapsed = time.time() - t0
    traj = result.trajectory

    traj_path = out_dir / "trajectory.csv"

    # rate's checks under the config's rate section; none where rate would
    # refuse the column, as d_target is empty without a target
    rate_cfg = cfg.rate or RateSection()
    try:
        verdicts = check_trajectory(traj, rate_cfg.column,
                                    str(traj_path), rate_cfg.fejer_tol_rel, rate_cfg.tail_tol,
                                    rate_cfg.gauge).to_dict()
    except ConfigError:
        verdicts = None

    out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(traj_path, traj)
    for k, states in sorted(result.snapshots.items()):
        write_snapshot(out_dir / f"snapshot_{k:06d}.csv", states, problem.layout)
    write_measure(out_dir / "final_measure.csv", DiscreteMeasure.empirical(ensemble.states, problem.layout))

    final_k = int(traj["k"][-1])
    summary = {
        "config": cfg.resolved(),
        "seed": cfg.seed,
        "elapsed_seconds": elapsed,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "final": {
            "k": final_k,
            "mean_residual": float(traj["mean_residual"][-1]),
            "psi_upper": float(traj["psi_upper"][-1]),
            "d_target": float(traj["d_target"][-1]),
        },
        "verdicts": verdicts,
        "outputs": {
            "trajectory": traj_path.name,
            "snapshots": [f"snapshot_{k:06d}.csv" for k in sorted(result.snapshots)],
            "final_measure": "final_measure.csv",
        },
    }
    _write_report(out_dir / "summary.json", summary)
    print(f"run complete: k={final_k} chains={cfg.run.num_chains} "
          f"psi_upper={traj['psi_upper'][-1]:.6e} out={out_dir}")
    return 0


def cmd_certify(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Run one certification and write its report; exit 1 when it fails."""
    if cfg.certify is None:
        raise ConfigError("config.certify: required by the certify command")
    problem, m = _build(cfg)
    c = cfg.certify
    region = c.region if c.region is not None else problem.region
    if region.dim != problem.layout.total_dim:
        raise ConfigError(
            f"config.certify.region: dimension {region.dim} does not match problem "
            f"dimension {problem.layout.total_dim}"
        )

    if c.property_name == "pointwise_aafne":
        if c.target["kind"] == "subset":
            idx = c.target["index"]
            T = lambda x: apply_T(m, idx, x)
        else:
            T = lambda x: apply_full(m, x)
        report = certify_pointwise_aafne(
            T, region, c.alpha, c.violation, c.num_pairs, cfg.seed,
            tolerance=c.tolerance, adversarial=c.adversarial,
        )
    elif c.property_name == "aafne_in_expectation":
        report = certify_aafne_in_expectation(
            m, region, c.alpha, c.violation, c.num_pairs, cfg.seed,
            tolerance=c.tolerance, adversarial=c.adversarial,
        )
    elif c.property_name == "paracontraction_in_expectation":
        if problem.fixed_points is None:
            raise ConfigError(
                "config.certify.property: paracontraction needs a problem with declared fixed points"
            )
        report = certify_paracontraction_in_expectation(
            m, problem.fixed_points, region, c.num_pairs, cfg.seed,
            residual_threshold=c.residual_threshold,
        )
    else:
        report = verify_expectation_identities(m, region, c.num_pairs, cfg.seed, tolerance=c.tolerance)

    doc = {"config": cfg.resolved(), "seed": cfg.seed, "report": report.to_dict()}
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_report(out_dir / "certify_report.json", doc)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} {report.property_name}: margin={report.margin:.6e} "
          f"tol={report.tolerance:.1e} samples={report.num_samples}")
    return 0 if report.passed else 1


def cmd_rate(args, cfg: ExperimentConfig | None, out_dir: Path) -> int:
    """Check a distance trajectory; exit 1 when a requested check fails."""
    rate_cfg = (cfg.rate if cfg is not None else None) or RateSection()
    gauge = rate_cfg.gauge
    if args.kappa is not None:
        if args.tau is None:
            raise ConfigError("--tau: required alongside --kappa")
        gauge = {"kappa": args.kappa, "tau": args.tau, "epsilon": args.epsilon}
    elif args.tau is not None or args.epsilon is not None:
        raise ConfigError(f"{'--tau' if args.tau is not None else '--epsilon'}: needs --kappa")
    cols = _read_input(read_trajectory_csv, args.trajectory)
    report = check_trajectory(cols, args.column or rate_cfg.column, str(args.trajectory),
                              rate_cfg.fejer_tol_rel, rate_cfg.tail_tol, gauge)
    doc = {"config": None if cfg is None else cfg.resolved(), "report": report.to_dict()}
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_report(out_dir / "rate_report.json", doc)

    checks = {"fejer": report.fejer.passed}
    if report.gauge is not None:
        checks["gauge"] = report.gauge.passed
    if report.asymptotic is not None:
        checks["asymptotic_regularity"] = report.asymptotic.passed
    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    if report.fit is not None:
        print(f"fitted rate c_hat={report.fit.c_hat:.6f} over {report.fit.num_used} entries")
    return 0 if all(checks.values()) else 1


def cmd_transport(args) -> int:
    """Exact weighted W2 distance between two measure files."""
    mu = _read_input(read_measure, args.measures[0])
    nu = _read_input(read_measure, args.measures[1])
    from .blockspace import BlockProbabilities

    try:
        probs = (np.ones(mu.layout.num_blocks) if args.probs is None
                 else np.array([float(v) for v in args.probs.split(",")]))
        p = BlockProbabilities(probs, mu.layout)
    except (BlocksplitError, ValueError) as e:
        raise ConfigError(f"--probs: {e}") from e
    d, plan = wasserstein2_weighted(mu, nu, p)
    print(format(d, ".17g"))
    if args.plan is not None:
        np.savetxt(args.plan, plan.matrix, delimiter=",", fmt="%.17g")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocksplit",
        description="Stochastic blockwise splitting: simulate, certify, rate, transport.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, config_required=True):
        sp.add_argument("--config", required=config_required, help="experiment config JSON")
        sp.add_argument("--out", default=None, help="output directory")

    sp_run = sub.add_parser("run", help="simulate a particle ensemble")
    sp_cert = sub.add_parser("certify", help="certify a regularity property")
    for sp in (sp_run, sp_cert):
        common(sp)
        sp.add_argument("--seed", type=int, default=None, help="override the config seed (uint64)")
    sp_rate = sub.add_parser("rate", help="check a distance trajectory against gauges")
    common(sp_rate, config_required=False)
    sp_rate.add_argument("--trajectory", required=True, help="trajectory CSV from a run")
    sp_rate.add_argument("--column", default=None, help="distance column (default d_target)")
    sp_rate.add_argument("--kappa", type=float, default=None, help="linear gauge modulus")
    sp_rate.add_argument("--tau", type=float, default=None, help="gauge transport coefficient")
    sp_rate.add_argument("--epsilon", type=float, default=None, help="gauge violation (default 0)")
    sp_tr = sub.add_parser("transport", help="distance between two measure files")
    sp_tr.add_argument("measures", nargs=2, help="two measure files")
    sp_tr.add_argument("--probs", default=None, help="comma-separated block probabilities")
    sp_tr.add_argument("--plan", default=None, help="write the optimal plan to this CSV")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "transport":
            return cmd_transport(args)
        cfg = None
        if args.config is not None:
            cfg = load_config(args.config)
            # rate draws no random numbers, so it takes no --seed
            seed = getattr(args, "seed", None)
            if seed is not None:
                if seed < 0:
                    raise ConfigError("--seed: must be nonnegative")
                cfg.seed = seed
        # created by each command just before its first write
        out_dir = Path(args.out if args.out is not None
                       else (cfg.output_dir if cfg is not None else None) or ".")
        if args.command == "run":
            return cmd_run(cfg, out_dir)
        if args.command == "certify":
            return cmd_certify(cfg, out_dir)
        return cmd_rate(args, cfg, out_dir)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except BlocksplitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
