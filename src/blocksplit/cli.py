"""Command-line interface: run, certify, rate, transport.

One command is one process: it imports the package modules it runs, and
numpy where it needs it (``rate`` loads none), inside its own function.
Exit codes: 0 on success (certifications passing), 1 when a requested
certification or trajectory check fails, 2 on usage or configuration
errors, including a size too large to allocate.  Reports embed the
resolved config and seed; CSV output never contains timestamps, so
identical (config, seed) runs write identical bytes.

Only command rules live here: a required section, ``strict_steps`` and
paracontraction's fixed point.  Every rule about a config field lives in
``config``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import BlocksplitError, ConfigError

if TYPE_CHECKING:
    from .config import ExperimentConfig


def _write_report(path: Path, doc: dict) -> None:
    """Write ``doc`` as strict JSON through ``json_ready``; finite floats round-trip exactly."""
    from .config import json_ready

    text = json.dumps(json_ready(doc), indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text)


def _read_input(reader, path):
    """Read an input file; malformed content is a usage error naming the file."""
    try:
        return reader(path)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def cmd_run(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Simulate the ensemble and write trajectory, snapshots, and summary."""
    from .config import RateSection
    from .markov import init_ensemble, run as run_ensemble, write_snapshot
    from .operators import gd_step_bound
    from .rates import check_column, check_trajectory, trajectory_header, write_trajectory_csv

    if cfg.run is None:
        raise ConfigError("config.run: required by the run command")
    problem, m = cfg.build()
    rate_cfg = cfg.rate or RateSection()
    check_column(trajectory_header(problem.layout.num_blocks), rate_cfg.column, "config.rate.column")
    if cfg.run.strict_steps and cfg.flavor == "fb":
        bounds = gd_step_bound(m.coupling)
        if not bounds.admits(m.steps):
            raise ConfigError(
                f"config.steps: {m.steps.tolist()} outside the admissible ranges {bounds.per_block} "
                "(strict_steps is on)"
            )
    m.probabilities  # refuses a block never selected: the W2 metric weighs block j by 1/p_j
    t0 = time.perf_counter()
    ensemble = init_ensemble(m, cfg.initial_sampler(problem), cfg.run.num_chains, cfg.seed)
    result = run_ensemble(
        ensemble,
        m,
        cfg.run.iterations,
        snapshot_every=cfg.run.snapshot_every,
        dw_step_every=cfg.run.dw_step_every,
        target=problem.target_point,
    )
    elapsed = time.perf_counter() - t0
    traj = {name: column.tolist() for name, column in result.trajectory.items()}

    traj_path = out_dir / "trajectory.csv"

    # rate's checks under the config's rate section; none where rate would
    # refuse the column, as d_target is empty where the map does not fix the target
    try:
        verdicts = check_trajectory(traj, rate_cfg.column, "config.rate.column", str(traj_path),
                                    rate_cfg.fejer_tol_rel, rate_cfg.tail_tol, rate_cfg.gauge_factor)
    except ConfigError:
        verdicts = None

    out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(traj_path, traj)
    for k, states in sorted(result.snapshots.items()):
        write_snapshot(out_dir / f"snapshot_{k:06d}.csv", states, problem.layout)
    write_snapshot(out_dir / "final_measure.csv", ensemble.states, problem.layout)

    final_k = int(traj["k"][-1])
    summary = {
        "config": cfg.document(),
        "seed": cfg.seed,
        "elapsed_seconds": elapsed,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "final": {
            "k": final_k,
            "mean_residual": traj["mean_residual"][-1],
            "psi_upper": traj["psi_upper"][-1],
            "d_target": traj["d_target"][-1],
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
    from .regularity import (
        certify_aafne_in_expectation,
        certify_paracontraction_in_expectation,
        certify_pointwise_aafne,
        verify_expectation_identities,
    )
    from .splitting import apply_T, apply_full

    if cfg.certify is None:
        raise ConfigError("config.certify: required by the certify command")
    problem, m = cfg.build()
    c = cfg.certify
    region = cfg.certify_region(problem)

    if c.property == "pointwise_aafne":
        if c.target["kind"] == "subset":
            idx = c.target["index"]
            T = lambda x: apply_T(m, idx, x)
        else:
            T = lambda x: apply_full(m, x)
        report = certify_pointwise_aafne(
            T, region, c.alpha, c.violation, c.num_pairs, cfg.seed,
            tolerance=c.tolerance, adversarial=c.adversarial,
        )
    elif c.property == "aafne_in_expectation":
        report = certify_aafne_in_expectation(
            m, region, c.alpha, c.violation, c.num_pairs, cfg.seed,
            tolerance=c.tolerance, adversarial=c.adversarial,
        )
    elif c.property == "paracontraction_in_expectation":
        if problem.target_point is None:
            raise ConfigError("config.certify.property: paracontraction needs declared fixed "
                              f"points; the {cfg.flavor} map fixes no declared point")
        report = certify_paracontraction_in_expectation(
            m, problem.target_point, region, c.num_pairs, cfg.seed,
            residual_threshold=c.residual_threshold,
        )
    else:
        report = verify_expectation_identities(m, region, c.num_pairs, cfg.seed, tolerance=c.tolerance)

    doc = {"config": cfg.document(), "seed": cfg.seed, "report": report}
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_report(out_dir / "certify_report.json", doc)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} {report.property}: margin={report.margin:.6e} "
          f"tol={report.tolerance:.1e} samples={report.num_samples}")
    return 0 if report.passed else 1


def cmd_rate(args, cfg: ExperimentConfig | None, out_dir: Path) -> int:
    """Check a distance trajectory; exit 1 when a requested check fails."""
    from .config import GAUGE_EPSILON, RateSection, gauge_factor
    from .rates import check_trajectory, read_trajectory_csv

    rate_cfg = (cfg.rate if cfg is not None else None) or RateSection()
    factor = rate_cfg.gauge_factor
    if args.kappa is not None:
        if args.tau is None:
            raise ConfigError("--tau: required alongside --kappa")
        epsilon = GAUGE_EPSILON if args.epsilon is None else args.epsilon
        factor = gauge_factor({"--kappa": args.kappa, "--tau": args.tau, "--epsilon": epsilon}, "--kappa")
    elif args.tau is not None or args.epsilon is not None:
        raise ConfigError(f"{'--tau' if args.tau is not None else '--epsilon'}: needs --kappa")
    cols = _read_input(read_trajectory_csv, args.trajectory)
    column, where = ((args.column, "--column") if args.column is not None
                     else (rate_cfg.column, "config.rate.column"))
    report = check_trajectory(cols, column, where, str(args.trajectory),
                              rate_cfg.fejer_tol_rel, rate_cfg.tail_tol, factor)
    doc = {"config": None if cfg is None else cfg.document(), "report": report}
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
    import numpy as np

    from .blockspace import BlockProbabilities
    from .transport import read_measure, wasserstein2_weighted

    mu = _read_input(read_measure, args.measures[0])
    nu = _read_input(read_measure, args.measures[1])
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
        sp.add_argument("--seed", type=int, default=None, help="override the config seed (an integer >= 0)")
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
            from .config import load_config

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
    except MemoryError as e:
        # numpy refuses an array larger than memory before filling any of it,
        # as a config asking for 10**14 chains or certify pairs does
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
