"""Config validation and the four CLI commands end to end."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blocksplit.cli import _write_report, main
from blocksplit.config import build_problem, json_ready, load_config, parse_config
from blocksplit.errors import ConfigError


def base_config(**overrides):
    doc = {
        "schema_version": 1,
        "problem": {"id": "counterexample2d", "params": {"t": 0.25}},
        "flavor": "fb",
        "scheme": {"subsets": [[0], [1]], "probs": [0.5, 0.5]},
        "steps": [0.25, 0.25],
        "seed": 7,
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# Config parsing.
# ---------------------------------------------------------------------------


def test_parse_config_happy_path():
    cfg = parse_config(base_config())
    assert cfg.problem_id == "counterexample2d"
    assert cfg.flavor == "fb"
    assert cfg.seed == 7
    assert cfg.scheme.subsets == ((0,), (1,))
    np.testing.assert_allclose(cfg.steps, [0.25, 0.25])


@pytest.mark.parametrize(
    "mutation",
    [
        {"schema_version": 2},
        {"flavor": "admm"},
        {"scheme": {"subsets": [[0]], "probs": [0.5]}},
        {"seed": -1},
        {"run": {"num_chains": 0, "iterations": 5}},
        {"run": {"num_chains": 5, "iterations": 5, "init": {"kind": "gaussian"}}},
        {"certify": {"property": "magic"}},
        {"certify": {"property": "pointwise_aafne", "target": {"kind": "sideways"}}},
        {"rate": {"gauge": {"kind": "tabulated"}}},
        {"problem": {"id": "unknown_problem"}},
        # an id that is no name, not even a hashable one, gets the same line
        {"problem": {"id": []}},
        {"problem": {"id": {}}},
        {"problem": {"id": [[]]}},
        {"run": {"num_chains": 5, "iterations": 5, "strict_steps": "no"}},
        {"run": {"num_chains": 5, "iterations": 5, "strict_steps": 1}},
        {"certify": {"property": "aafne_in_expectation", "adversarial": "false"}},
        {"certify": {"property": "pointwise_aafne", "target": {"kind": "subset", "index": 2}}},
        {"rate": {"gauge": {"kind": "linear", "kappa": 0.5, "tau": 1.0}}},
        {"rate": {"gauge": {"kind": "linear", "kappa": 5.0, "tau": 1.0, "epsilon": "x"}}},
        # parsed without numpy: a scheme, a region, a matrix and vectors of
        # one length are still checked before any command does its work
        {"scheme": {"subsets": [[0], [1]], "probs": [0.5, 0.6]}},
        {"certify": {"property": "aafne_in_expectation",
                     "region": {"lo": [1.0, -1.0], "hi": [0.0, 1.0]}}},
        {"certify": {"property": "aafne_in_expectation",
                     "region": {"lo": [-1.0, float("-inf")], "hi": [1.0, 1.0]}}},
        {"certify": {"property": "aafne_in_expectation",
                     "region": {"lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0]}}},
        {"problem": {"id": "quadratic_l1", "params": {"Q": [[1.0, float("nan")], [0.0, 1.0]],
                                                      "b": [0.0, 0.0], "l1_weights": [0.1, 0.1]}}},
        {"problem": {"id": "quadratic_l1", "params": {"Q": [[1.0, 0.0], [0.0]],
                                                      "b": [0.0, 0.0], "l1_weights": [0.1, 0.1]}}},
        {"problem": {"id": "feasibility", "params": {"sets": [
            {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0]}, {"kind": "point", "point": [0.0, 0.0]}]}}},
        {"steps": [0.25, float("nan")]},
    ],
)
def test_parse_config_rejects(mutation, tmp_path, capsys):
    doc = base_config(**mutation)
    with pytest.raises(ConfigError) as refused:
        parse_config(doc)
    # rate reads the config as every command does, and refuses it with the same line
    traj = tmp_path / "traj.csv"
    traj.write_text(GOOD_TRAJECTORY)
    argv = ["rate", "--config", write_config(tmp_path, doc), "--trajectory", str(traj),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {refused.value}\n"


def test_parse_config_error_names_field():
    try:
        parse_config(base_config(flavor="admm"))
    except ConfigError as e:
        assert "config.flavor" in str(e)


def test_build_problem_dispatch():
    np.testing.assert_array_equal(build_problem("counterexample2d", {"t": 0.1}).default_steps,
                                  [0.1, 0.1])
    prob = build_problem(
        "feasibility",
        {"sets": [{"kind": "point", "point": [0.0]}, {"kind": "point", "point": [1.0]}]},
    )
    assert prob.layout.block_dims == (1, 1) and prob.target_point is None
    prob = build_problem(
        "quadratic_l1", {"Q": [[1.0]], "b": [-1.0], "l1_weights": [0.5]}
    )
    assert prob.target_point[0] == pytest.approx(0.5)
    with pytest.raises(ConfigError):
        build_problem("feasibility", {"sets": [{"kind": "nope"}]})


def test_resolved_config_is_json_ready():
    cfg = parse_config(base_config(run={"num_chains": 4, "iterations": 2}))
    json.dumps(json_ready(cfg.document()))


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


# ---------------------------------------------------------------------------
# CLI commands through main(argv).
# ---------------------------------------------------------------------------


def run_config(tmp_path, out_name="out", **run_overrides):
    run = {
        "num_chains": 20,
        "iterations": 30,
        "snapshot_every": 15,
        "dw_step_every": 5,
        "init": {"kind": "uniform_box", "lo": [-2.0, -2.0], "hi": [2.0, 2.0]},
    }
    run.update(run_overrides)
    return base_config(run=run, output_dir=str(tmp_path / out_name))


def test_cli_run_writes_outputs(tmp_path, capsys):
    path = write_config(tmp_path, run_config(tmp_path))
    assert main(["run", "--config", path]) == 0
    out = tmp_path / "out"
    for name in ("trajectory.csv", "summary.json", "final_measure.csv",
                 "snapshot_000000.csv", "snapshot_000015.csv", "snapshot_000030.csv"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 7
    assert summary["config"]["problem"]["id"] == "counterexample2d"
    assert summary["verdicts"]["fejer"]["passed"] is True
    assert "run complete" in capsys.readouterr().out


@pytest.mark.parametrize("seed", [8, 2**65])
def test_cli_run_seed_override_changes_draws(tmp_path, seed):
    # any nonnegative integer is a seed, on the command line as in the config
    path = write_config(tmp_path, run_config(tmp_path, "a"))
    main(["run", "--config", path, "--out", str(tmp_path / "a")])
    main(["run", "--config", path, "--out", str(tmp_path / "b"), "--seed", str(seed)])
    doc = dict(run_config(tmp_path, "c"), seed=seed)
    main(["run", "--config", write_config(tmp_path, doc)])
    a, b, c = ((tmp_path / name / "trajectory.csv").read_bytes() for name in "abc")
    assert a != b and b == c


def test_cli_run_identical_bytes_same_seed(tmp_path):
    path = write_config(tmp_path, run_config(tmp_path, "a"))
    main(["run", "--config", path, "--out", str(tmp_path / "a")])
    main(["run", "--config", path, "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "trajectory.csv").read_bytes() == (
        tmp_path / "b" / "trajectory.csv"
    ).read_bytes()
    assert (tmp_path / "a" / "final_measure.csv").read_bytes() == (
        tmp_path / "b" / "final_measure.csv"
    ).read_bytes()
    snapshots = sorted(p.name for p in (tmp_path / "a").glob("snapshot_*.csv"))
    assert snapshots and snapshots == sorted(p.name for p in (tmp_path / "b").glob("snapshot_*.csv"))
    for name in snapshots:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_run_strict_steps_gate(tmp_path, capsys):
    # t = 0.25 sits outside the per-block admissible range 1/8 for the
    # counterexample; strict mode must refuse to run
    doc = run_config(tmp_path, strict_steps=True)
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", path]) == 2
    assert "config error: config.steps: [0.25, 0.25] outside" in capsys.readouterr().err
    doc["steps"] = [0.1, 0.1]
    path = write_config(tmp_path, doc, "ok.json")
    assert main(["run", "--config", path]) == 0


def test_cli_certify_pass_and_fail(tmp_path, capsys):
    passing = base_config(
        certify={"property": "aafne_in_expectation", "alpha": 2.0 / 3.0, "num_pairs": 500},
        output_dir=str(tmp_path / "pass"),
    )
    assert main(["certify", "--config", write_config(tmp_path, passing, "p.json")]) == 0
    assert "PASS" in capsys.readouterr().out
    report = json.loads((tmp_path / "pass" / "certify_report.json").read_text())
    assert report["report"]["passed"] is True

    failing = base_config(
        certify={
            "property": "pointwise_aafne",
            "target": {"kind": "subset", "index": 0},
            "alpha": 0.5,
            "num_pairs": 500,
        },
        output_dir=str(tmp_path / "fail"),
    )
    assert main(["certify", "--config", write_config(tmp_path, failing, "f.json")]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_certify_identities_use_the_config_tolerance(tmp_path, capsys):
    # the identities hold to rounding error, which a tolerance of 1e-30 refuses
    doc = base_config(certify={"property": "expectation_identities", "num_pairs": 200},
                      output_dir=str(tmp_path / "o"))
    assert main(["certify", "--config", write_config(tmp_path, doc)]) == 0
    assert "tol=1.0e-10" in capsys.readouterr().out
    doc["certify"]["tolerance"] = 1e-30
    assert main(["certify", "--config", write_config(tmp_path, doc, "tight.json")]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL expectation_identities") and "tol=1.0e-30" in out


def test_cli_certify_paracontraction_needs_fixed_points(tmp_path, capsys):
    doc = base_config(
        problem={
            "id": "feasibility",
            "params": {
                "sets": [
                    {"kind": "point", "point": [0.0]},
                    {"kind": "point", "point": [2.0]},
                ]
            },
        },
        steps=[0.5, 0.5],
        certify={"property": "paracontraction_in_expectation", "num_pairs": 100},
        output_dir=str(tmp_path / "o"),
    )
    assert main(["certify", "--config", write_config(tmp_path, doc)]) == 2
    assert "fixed points" in capsys.readouterr().err


@pytest.mark.parametrize("flavor", ["fb", "dr"])
def test_cli_uses_a_declared_point_only_on_a_map_that_fixes_it(tmp_path, capsys, flavor):
    # quadratic_l1 declares its minimizer, which forward-backward fixes and
    # Douglas-Rachford moves
    doc = base_config(problem=_quadratic([[2.0, 0.5], [0.5, 1.0]], b=[-1.0, 0.5]), flavor=flavor,
                      steps=None, run={"num_chains": 10, "iterations": 40},
                      certify={"property": "paracontraction_in_expectation", "num_pairs": 50},
                      output_dir=str(tmp_path / "out"))
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", path]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    code = main(["certify", "--config", path])
    err = capsys.readouterr().err
    if flavor == "fb":
        assert summary["final"]["d_target"] is not None and summary["verdicts"] is not None
        assert code == 0
    else:
        assert summary["final"]["d_target"] is None and summary["verdicts"] is None
        assert code == 2 and "the dr map fixes no declared point" in err


def test_cli_rate(tmp_path, capsys):
    # long enough that the step distances genuinely vanish, so the
    # asymptotic-regularity gate has something real to certify
    path = write_config(tmp_path, run_config(tmp_path, iterations=200))
    main(["run", "--config", path])
    traj = str(tmp_path / "out" / "trajectory.csv")
    assert main(["rate", "--trajectory", traj, "--out", str(tmp_path / "rate")]) == 0
    report = json.loads((tmp_path / "rate" / "rate_report.json").read_text())
    assert report["report"]["fejer"]["passed"] is True
    assert report["report"]["fit"]["c_hat"] < 1.0
    assert "kappa_hat" not in report["report"]
    capsys.readouterr()
    # an inadmissible column name is a usage error
    assert main(["rate", "--trajectory", traj, "--column", "nope",
                 "--out", str(tmp_path / "rate")]) == 2


def test_cli_run_verdicts_are_the_rate_checks(tmp_path, capsys):
    # summary.json holds rate's checks under the config's rate section: this
    # run's d_target falls by at least 5.9% a step, so Fejer passes at the
    # default tolerance 1e-3 and fails when each step must fall by 10%
    doc = run_config(tmp_path)
    doc["rate"] = {"fejer_tol_rel": -0.1, "gauge": {"kind": "linear", "kappa": 5.0, "tau": 1.0}}
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", path]) == 0
    out = tmp_path / "out"
    assert main(["rate", "--config", path, "--trajectory", str(out / "trajectory.csv")]) == 1
    summary = json.loads((out / "summary.json").read_text())
    report = json.loads((out / "rate_report.json").read_text())
    assert summary["verdicts"] == report["report"]
    assert summary["verdicts"]["fejer"]["passed"] is False
    assert summary["verdicts"]["gauge"] is not None


def test_cli_rate_fits_c_hat_per_step_of_k_on_a_strided_column(tmp_path, capsys):
    # dw_step filled every 5th step fits the contraction per step of k, as
    # the column filled at every step does, not the contraction per entry
    c_hat = {}
    for every in (1, 5):
        doc = base_config(problem={"id": "counterexample2d", "params": {"t": 0.2}},
                          steps=[0.2, 0.2], seed=42, output_dir=str(tmp_path / f"out{every}"),
                          run={"num_chains": 200, "iterations": 100, "dw_step_every": every},
                          rate={"column": "dw_step"})
        path = write_config(tmp_path, doc, f"every{every}.json")
        assert main(["run", "--config", path]) == 0
        capsys.readouterr()
        main(["rate", "--config", path, "--trajectory", str(tmp_path / f"out{every}" / "trajectory.csv")])
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.endswith(f"over {100 // every} entries")
        c_hat[every] = float(line.split("c_hat=")[1].split()[0])
    assert abs(c_hat[5] - c_hat[1]) <= 0.01, c_hat


def test_cli_run_empty_rate_section_writes_the_default_verdicts(tmp_path, capsys):
    # "rate": {} takes parse_config's defaults, no rate section RateSection()'s
    summaries = []
    for name, rate in (("empty", {}), ("none", None)):
        doc = run_config(tmp_path, out_name=name)
        if rate is not None:
            doc["rate"] = rate
        assert main(["run", "--config", write_config(tmp_path, doc, f"{name}.json")]) == 0
        summaries.append(json.loads((tmp_path / name / "summary.json").read_text()))
    empty, none = (s["verdicts"] for s in summaries)
    assert empty["fejer"] is not None and empty["asymptotic"] is not None
    empty["details"].pop("trajectory")
    none["details"].pop("trajectory")
    assert empty == none


def test_cli_run_without_a_target_writes_null_verdicts(tmp_path, capsys):
    # d_target names a trajectory column, but an inconsistent feasibility
    # problem declares no target, so the column stays empty and the run
    # records no verdicts instead of failing
    sets = [{"kind": "point", "point": [0.0, 0.0]}, {"kind": "point", "point": [2.0, 0.0]}]
    doc = run_config(tmp_path, init={"kind": "region"})
    doc["problem"] = {"id": "feasibility", "params": {"sets": sets}}
    doc.update(flavor="dr", steps=[1.0, 1.0])
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["verdicts"] is None


def test_cli_rate_gauge_failure_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, run_config(tmp_path))
    main(["run", "--config", path])
    traj = str(tmp_path / "out" / "trajectory.csv")
    # an aggressive gauge (factor near 0) cannot hold step to step
    code = main(["rate", "--trajectory", traj, "--kappa", "1.001", "--tau", "1.0",
                 "--out", str(tmp_path / "rate")])
    assert code == 1
    assert "FAIL gauge" in capsys.readouterr().out


def test_cli_transport(tmp_path, capsys):
    path = write_config(tmp_path, run_config(tmp_path))
    main(["run", "--config", path])
    capsys.readouterr()
    mfile = str(tmp_path / "out" / "final_measure.csv")
    assert main(["transport", mfile, mfile]) == 0
    assert float(capsys.readouterr().out.strip()) == 0.0
    assert main(["transport", mfile, mfile, "--probs", "0.5,0.5",
                 "--plan", str(tmp_path / "plan.csv")]) == 0
    assert (tmp_path / "plan.csv").exists()


def test_cli_snapshots_are_measure_files(tmp_path, capsys):
    # every point cloud run writes is a measure file: transport reads the
    # snapshots, and the last one is final_measure.csv byte for byte
    path = write_config(tmp_path, run_config(tmp_path, dw_step_every=0))
    assert main(["run", "--config", path]) == 0
    out = tmp_path / "out"
    first, last, final = (str(out / name) for name in
                          ("snapshot_000000.csv", "snapshot_000030.csv", "final_measure.csv"))
    assert (out / "snapshot_000030.csv").read_bytes() == (out / "final_measure.csv").read_bytes()
    capsys.readouterr()
    assert main(["transport", first, final]) == 0
    d = float(capsys.readouterr().out)
    assert np.isfinite(d) and d > 0
    assert main(["transport", last, final]) == 0
    assert capsys.readouterr().out == "0\n"


def test_cli_diagonal_indicator_names_block_and_chain(tmp_path, capsys):
    # three point sets never agree, so the hard diagonal coupling has no partial resolvent
    doc = run_config(tmp_path, num_chains=60, iterations=5, snapshot_every=0, dw_step_every=0)
    doc.update(
        problem={"id": "feasibility", "params": {"coupling": "indicator", "sets": [
            {"kind": "point", "point": p} for p in ([0.0, 0.0], [2.0, 0.0], [1.0, 1.0])]}},
        flavor="dr",
        scheme={"subsets": [[0], [1], [2]], "probs": [0.4, 0.3, 0.3]},
        steps=[1.0],
    )
    doc["run"]["init"] = {"kind": "uniform_box", "lo": [-2.0] * 6, "hi": [2.0] * 6}
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: diagonal partial resolvent")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.count("block 0 empty at batch row 0: remaining blocks disagree by") == 1


@pytest.mark.parametrize("steps", [[-0.2, 0.2], [0.0, 0.2]])
def test_cli_nonpositive_steps_exit_2(tmp_path, capsys, steps):
    doc = run_config(tmp_path)
    doc["steps"] = steps
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config.steps:")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_steps_wrong_length_exit_2(tmp_path, capsys):
    doc = run_config(tmp_path)
    doc["steps"] = [0.2, 0.2, 0.2]
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: config.steps: expected 1 or 2 values, got 3\n"


@pytest.mark.parametrize("dw_step_every", [0, 1])
@pytest.mark.parametrize("steps, iterations, line", [
    ([5, 5], 1000, "error: run diverged: chain 26 has a non-finite state at k=799\n"),
    ([1e308, 0.25], 10, "error: run diverged: chain 2 has a non-finite state at k=1\n"),
], ids=["steps_5", "step_1e308"])
def test_cli_divergent_run_exit_2(tmp_path, capsys, dw_step_every, steps, iterations, line):
    # with dw_step on, the states are checked before the transport solve reads
    # them, and a dw_step whose cost overflows is noted as a non-finite
    # diagnostic, so the run is named by the state that diverges later
    doc = run_config(tmp_path, num_chains=50, iterations=iterations, snapshot_every=0,
                     dw_step_every=dw_step_every)
    doc["steps"] = steps
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    out, err = capsys.readouterr()
    assert "run complete" not in out
    assert err == line
    assert not (tmp_path / "out").exists()


def test_cli_config_errors_exit_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    assert "config error" in capsys.readouterr().err
    doc = base_config()  # no run section
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    assert "config.run" in capsys.readouterr().err


MEASURE_HEADER = '{"block_dims": [1, 1], "dim": 2, "n": 2, "version": 1}\n'
GOOD_MEASURE = MEASURE_HEADER + "0.5,0,0\n0.5,1,1\n"


def _config_case(command, **overrides):
    def build(tmp_path):
        doc = base_config(output_dir=str(tmp_path / "o"), **overrides)
        return [command, "--config", write_config(tmp_path, doc)]
    return build


def _text_config_case(command, edit, **overrides):
    """A config whose JSON text ``edit`` rewrites before it is written."""
    def build(tmp_path):
        doc = base_config(output_dir=str(tmp_path / "o"), **overrides)
        text = json.dumps(doc)
        assert edit(text) != text
        path = tmp_path / "config.json"
        path.write_text(edit(text))
        return [command, "--config", str(path)]
    return build


def _file_case(name, body, argv):
    """``argv(bad, good)`` is the command line around the malformed file."""
    def build(tmp_path):
        bad, good = tmp_path / name, tmp_path / "good.csv"
        bad.write_text(body)
        good.write_text(GOOD_MEASURE)
        return argv(str(bad), str(good))
    return build


def _rate_config_case(rate, **overrides):
    """``rate`` on a good trajectory under a config with this rate section."""
    def build(tmp_path):
        traj = tmp_path / "traj.csv"
        traj.write_text(GOOD_TRAJECTORY)
        return [*_config_case("rate", rate=rate, **overrides)(tmp_path), "--trajectory", str(traj)]
    return build


def _quadratic(Q, **params):
    return {"id": "quadratic_l1",
            "params": {"Q": Q, "b": [0.0, 0.0], "l1_weights": [0.1, 0.1], **params}}


def _sets_case(*sets):
    problem = {"id": "feasibility", "params": {"sets": list(sets)}}
    return _config_case("run", problem=problem, scheme={"subsets": [[0], [1]], "probs": [0.5, 0.5]},
                        steps=[0.5, 0.5], run=SMALL_RUN)


POINT = {"kind": "point", "point": [0.0, 0.0]}
NAN, INF = float("nan"), float("inf")


SMALL_RUN = {"num_chains": 4, "iterations": 3}
GOOD_TRAJECTORY = "k,mean_residual,psi_upper,dw_step,d_target\n0,1,1,,1\n1,0.5,0.5,,0.5\n"


def _dw_trajectory(last_step: str) -> str:
    """A five-row trajectory whose vanishing dw_step ends in ``last_step``."""
    rows = zip(range(5), ("1", "0.9", "0.8", "0.7", "0.6"), ("", "0.5", "0.1", "0.01", last_step))
    return "k,mean_residual,psi_upper,dw_step,d_target\n" + "".join(
        f"{k},1,1,{dw},{d}\n" for k, d, dw in rows)


BAD_INPUTS = [
    ("t_negative", "problem.params.t",
     _config_case("run", problem={"id": "counterexample2d", "params": {"t": -1}}, run=SMALL_RUN)),
    ("alpha_above_one", "config.certify.alpha",
     _config_case("certify", certify={"property": "aafne_in_expectation", "alpha": 1.5})),
    # only the pointwise check reads a target; any other property would certify the whole scheme
    ("subset_target_in_expectation",
     "config.certify.target: a subset target applies to pointwise_aafne only, "
     "not to aafne_in_expectation",
     _config_case("certify", certify={"property": "aafne_in_expectation",
                                      "target": {"kind": "subset", "index": 0}})),
    ("Q_not_symmetric", "problem.params: Q must be symmetric",
     _config_case("run", problem=_quadratic([[1.0, 2.0], [0.0, 1.0]]), run=SMALL_RUN)),
    ("Q_3x2", "problem.params: Q must be a square matrix",
     _config_case("run", problem=_quadratic([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), run=SMALL_RUN)),
    ("Q_text", "problem.params.Q",
     _config_case("run", problem=_quadratic("abc"), run=SMALL_RUN)),
    ("box_lo_above_hi", "config.run.init",
     _config_case("run", run=dict(SMALL_RUN, init={"kind": "uniform_box", "lo": [1.0, 1.0],
                                                   "hi": [0.0, 0.0]}))),
    ("scheme_probs_nan", "config.scheme: probabilities sum to nan",
     _config_case("run", scheme={"subsets": [[0], [1]], "probs": [float("nan"), 1.0]},
                  run=SMALL_RUN)),
    ("steps_inf", "config.steps: every step must be finite and positive",
     _config_case("certify", steps=[float("inf"), 0.2])),
    # a set descriptor is checked when its projection is built
    ("set_box_lo_above_hi", "problem.params.sets[0]: box lower bound exceeds upper bound",
     _sets_case({"kind": "box", "lo": [1.0, 0.0], "hi": [0.0, 1.0]}, POINT)),
    ("set_box_without_hi", "problem.params.sets[1]: box set needs a 'hi' field",
     _sets_case(POINT, {"kind": "box", "lo": [0.0, 0.0]})),
    ("set_ball_radius_negative", "problem.params.sets[0]: radius must be finite and nonnegative",
     _sets_case({"kind": "ball", "center": [0.0, 0.0], "radius": -1}, POINT)),
    ("set_ball_radius_text", "problem.params.sets[0]: could not convert string to float: 'a'",
     _sets_case({"kind": "ball", "center": [0.0, 0.0], "radius": "a"}, POINT)),
    ("set_line_zero_direction", "problem.params.sets[1]: line direction must be finite and nonzero",
     _sets_case(POINT, {"kind": "line", "point": [0.0, 0.0], "direction": [0.0, 0.0]})),
    # non-finite numbers: no check may pass or fail on NaN, and no bound may overflow
    ("fejer_tol_rel_nan", "config.rate.fejer_tol_rel: must be finite, got nan",
     _config_case("run", rate={"fejer_tol_rel": NAN}, run=SMALL_RUN)),
    ("fejer_tol_rel_inf", "config.rate.fejer_tol_rel: must be finite, got inf",
     _config_case("run", rate={"fejer_tol_rel": INF}, run=SMALL_RUN)),
    ("tail_tol_nan", "config.rate.tail_tol: must be finite and nonnegative",
     _config_case("run", rate={"tail_tol": NAN}, run=SMALL_RUN)),
    ("tail_tol_negative", "config.rate.tail_tol: must be finite and nonnegative",
     _config_case("run", rate={"tail_tol": -1e-3}, run=SMALL_RUN)),
    ("residual_threshold_nan", "config.certify.residual_threshold: must be finite and nonnegative",
     _config_case("certify", certify={"property": "paracontraction_in_expectation",
                                      "residual_threshold": NAN})),
    ("certify_region_inf", "config.certify.region: region bounds must be finite",
     _config_case("certify", certify={"property": "aafne_in_expectation",
                                      "region": {"lo": [-INF, -1.0], "hi": [1.0, 1.0]}})),
    ("init_box_inf", "config.run.init: region bounds must be finite",
     _config_case("run", run=dict(SMALL_RUN, init={"kind": "uniform_box", "lo": [-1.0, -1.0],
                                                   "hi": [INF, 1.0]}))),
    ("init_x_nan", "config.run.init.x: must be finite",
     _config_case("run", run=dict(SMALL_RUN, init={"kind": "point", "x": [NAN, 0.0]}))),
    ("init_box_three_coordinates", "config.run.init: expected bounds of 2 coordinates, got 3",
     _config_case("run", run=dict(SMALL_RUN, init={"kind": "uniform_box", "lo": [-1.0] * 3,
                                                   "hi": [1.0] * 3}))),
    # the run checks its rate column before it simulates
    ("rate_column_number", "config.rate.column: expected a trajectory column name, got 5",
     _config_case("run", rate={"column": 5}, run=SMALL_RUN)),
    ("rate_column_misspelt", "config.rate.column: the trajectory has no column 'd_targt'",
     _config_case("run", rate={"column": "d_targt"}, run=SMALL_RUN)),
    ("transport_probs_nan", "--probs: block probabilities must be finite",
     _file_case("m.csv", GOOD_MEASURE,
                lambda bad, good: ["transport", bad, good, "--probs", "nan,0.5"])),
    ("transport_probs_zero", "--probs: nonpositive block probability",
     _file_case("m.csv", GOOD_MEASURE,
                lambda bad, good: ["transport", bad, good, "--probs", "0,1"])),
    ("transport_probs_count", "--probs: expected 2 block probabilities",
     _file_case("m.csv", GOOD_MEASURE,
                lambda bad, good: ["transport", bad, good, "--probs", "0.5"])),
    ("violation_nan", "config.certify.violation: must be finite and nonnegative",
     _config_case("certify", certify={"property": "aafne_in_expectation", "alpha": 0.5,
                                      "violation": float("nan")})),
    ("violation_inf", "config.certify.violation: must be finite and nonnegative",
     _config_case("certify", certify={"property": "aafne_in_expectation", "alpha": 0.5,
                                      "violation": float("inf")})),
    ("violation_negative", "config.certify.violation: must be finite and nonnegative",
     _config_case("certify", certify={"property": "aafne_in_expectation", "alpha": 0.5,
                                      "violation": -0.1})),
    ("tolerance_nan", "config.certify.tolerance: must be finite",
     _config_case("certify", certify={"property": "aafne_in_expectation", "alpha": 0.5,
                                      "tolerance": float("nan")})),
    ("tolerance_inf", "config.certify.tolerance: must be finite",
     _config_case("certify", certify={"property": "aafne_in_expectation", "alpha": 0.5,
                                      "tolerance": float("inf")})),
    ("probs_text", "--probs",
     _file_case("m.csv", GOOD_MEASURE,
                lambda bad, good: ["transport", bad, good, "--probs", "0.5,abc"])),
    ("weights_sum_125", "w125.csv",
     _file_case("w125.csv", MEASURE_HEADER + "62.5,0,0\n62.5,1,1\n",
                lambda bad, good: ["transport", bad, good])),
    ("measure_text_row", "text.csv",
     _file_case("text.csv", MEASURE_HEADER + "0.5,0,0\n0.5,x,1\n",
                lambda bad, good: ["transport", good, bad])),
    ("measure_header_without_n", "no_n.csv: measure header lacks 'n'",
     _file_case("no_n.csv", '{"block_dims": [1, 1], "dim": 2, "version": 1}\n0.5,0,0\n0.5,1,1\n',
                lambda bad, good: ["transport", bad, good])),
    ("measure_header_without_dim", "no_dim.csv: measure header lacks 'dim'",
     _file_case("no_dim.csv", '{"block_dims": [1, 1], "n": 2, "version": 1}\n0.5,0,0\n0.5,1,1\n',
                lambda bad, good: ["transport", good, bad])),
    ("measure_header_n_mismatch", "n3.csv: measure body (2, 2) does not match header",
     _file_case("n3.csv", MEASURE_HEADER.replace('"n": 2', '"n": 3') + "0.5,0,0\n0.5,1,1\n",
                lambda bad, good: ["transport", good, bad])),
    ("block_dims_int", "dims_int.csv: measure header block_dims must be",
     _file_case("dims_int.csv", MEASURE_HEADER.replace("[1, 1]", "3") + "0.5,0,0\n0.5,1,1\n",
                lambda bad, good: ["transport", good, bad])),
    ("block_dims_zero", "dims_zero.csv: measure header block_dims must be",
     _file_case("dims_zero.csv", MEASURE_HEADER.replace("[1, 1]", "[0]") + "0.5,0,0\n0.5,1,1\n",
                lambda bad, good: ["transport", bad, good])),
    ("measure_blank_row", "blank.csv: line 3 has 0 fields, expected 3",
     _file_case("blank.csv", MEASURE_HEADER + "0.5,0,0\n\n0.5,1,1\n",
                lambda bad, good: ["transport", bad, good])),
    ("measure_nan_coordinate", "nan.csv: support must be finite",
     _file_case("nan.csv", MEASURE_HEADER + "0.5,nan,0\n0.5,1,1\n",
                lambda bad, good: ["transport", bad, good])),
    ("measure_inf_coordinate", "inf.csv: support must be finite",
     _file_case("inf.csv", MEASURE_HEADER + "0.5,0,0\n0.5,1,inf\n",
                lambda bad, good: ["transport", good, bad])),
    ("trajectory_text_cell", "traj.csv",
     _file_case("traj.csv", "k,mean_residual,psi_upper,dw_step,d_target\n0,1,1,,1\n1,0.5,abc,,0.5\n",
                lambda bad, good: ["rate", "--trajectory", bad, "--out", bad + ".out"])),
    # a row with the wrong number of cells is refused, not padded or cut
    ("trajectory_short_row", "traj.csv: line 4 has 2 fields, expected 5",
     _file_case("traj.csv", GOOD_TRAJECTORY + "2,0.4\n",
                lambda bad, good: ["rate", "--trajectory", bad, "--out", bad + ".out"])),
    ("trajectory_long_row", "traj.csv: line 3 has 7 fields, expected 5",
     _file_case("traj.csv", GOOD_TRAJECTORY.replace("0.5,0.5,,0.5", "0.5,0.5,,0.5,9,9"),
                lambda bad, good: ["rate", "--trajectory", bad, "--out", bad + ".out"])),
    # a column error names whatever named the column
    ("rate_column_flag_unknown", "--column: the trajectory has no column 'nope'",
     _file_case("traj.csv", GOOD_TRAJECTORY,
                lambda bad, good: ["rate", "--trajectory", bad, "--column", "nope",
                                   "--out", bad + ".out"])),
    ("rate_config_column_misspelt", "config.rate.column: the trajectory has no column 'd_targt'",
     _rate_config_case({"column": "d_targt"})),
    ("trajectory_empty", "empty.csv: file is empty",
     _file_case("empty.csv", "",
                lambda bad, good: ["rate", "--trajectory", bad, "--out", bad + ".out"])),
    ("trajectory_negative_distance", "column 'd_target' holds a negative distance -0.5",
     _file_case("neg.csv", "k,mean_residual,psi_upper,dw_step,d_target\n0,1,1,,1\n1,0.5,0.5,,-0.5\n",
                lambda bad, good: ["rate", "--trajectory", bad, "--out", bad + ".out"])),
    ("trajectory_infinite_distance", "column 'd_target' holds a non-finite distance inf",
     _file_case("inf.csv", "k,mean_residual,psi_upper,dw_step,d_target\n0,inf,inf,,inf\n1,inf,inf,,inf\n",
                lambda bad, good: ["rate", "--trajectory", bad, "--out", bad + ".out"])),
    # the rate fit reads each distance's k
    ("trajectory_without_k", "nok.csv: the trajectory has no column 'k'",
     _file_case("nok.csv", "mean_residual,psi_upper,dw_step,d_target\n1,1,,1\n0.5,0.5,,0.5\n",
                lambda bad, good: ["rate", "--trajectory", bad, "--out", bad + ".out"])),
    ("trajectory_empty_k", "emptyk.csv: column 'k' is not finite on a row with a 'd_target' entry",
     _file_case("emptyk.csv", GOOD_TRAJECTORY.replace("\n1,", "\n,"),
                lambda bad, good: ["rate", "--trajectory", bad, "--out", bad + ".out"])),
    # a gauge bounds d over each step of k, which must go forward
    ("trajectory_k_not_increasing",
     "back.csv: column 'k' goes from 50000 to 0 on rows with a 'd_target' entry",
     _file_case("back.csv", "k,mean_residual,psi_upper,dw_step,d_target\n"
                            "50000,1,1,,1\n0,0.5,0.5,,0.5\n1,0.4,0.4,,0.4\n",
                lambda bad, good: ["rate", "--kappa", "5", "--tau", "1", "--trajectory", bad,
                                   "--out", bad + ".out"])),
    # a step distance is refused like a checked distance, under the file that holds it
    ("trajectory_negative_dw_step", "dw.csv: column 'dw_step' holds a negative distance -1.0",
     _file_case("dw.csv", _dw_trajectory("-1"),
                lambda bad, good: ["rate", "--trajectory", bad, "--out", bad + ".out"])),
    ("trajectory_infinite_dw_step", "dw.csv: column 'dw_step' holds a non-finite distance inf",
     _file_case("dw.csv", _dw_trajectory("inf"),
                lambda bad, good: ["rate", "--trajectory", bad, "--out", bad + ".out"])),
    # the gauge is checked with the config, before the run simulates
    ("gauge_inadmissible", "config.rate.gauge: kappa=0.5 gives factor^2=-3",
     _config_case("run", rate={"gauge": {"kind": "linear", "kappa": 0.5, "tau": 1.0}},
                  run=SMALL_RUN)),
    ("gauge_epsilon_text", "config.rate.gauge.epsilon: expected a number, got 'x'",
     _config_case("run", rate={"gauge": {"kind": "linear", "kappa": 5.0, "tau": 1.0,
                                         "epsilon": "x"}}, run=SMALL_RUN)),
    ("rate_tau_without_kappa", "--tau: needs --kappa",
     _file_case("traj.csv", GOOD_TRAJECTORY,
                lambda traj, good: ["rate", "--trajectory", traj, "--tau", "3", "--out", traj + ".out"])),
    ("rate_epsilon_without_kappa", "--epsilon: needs --kappa",
     _file_case("traj.csv", GOOD_TRAJECTORY,
                lambda traj, good: ["rate", "--trajectory", traj, "--epsilon", "0.1",
                                    "--out", traj + ".out"])),
    ("rate_kappa_without_tau", "--tau: required alongside --kappa",
     _file_case("traj.csv", GOOD_TRAJECTORY,
                lambda traj, good: ["rate", "--trajectory", traj, "--kappa", "2",
                                    "--out", traj + ".out"])),
    # rate's gauge flags are checked as the config's gauge is
    ("rate_kappa_inadmissible", "--kappa: kappa=0.5 gives factor^2=-3",
     _file_case("traj.csv", GOOD_TRAJECTORY,
                lambda traj, good: ["rate", "--trajectory", traj, "--kappa", "0.5", "--tau", "1",
                                    "--out", traj + ".out"])),
    ("rate_kappa_inf", "--kappa: must be finite, got inf",
     _file_case("traj.csv", GOOD_TRAJECTORY,
                lambda traj, good: ["rate", "--trajectory", traj, "--kappa", "inf", "--tau", "1",
                                    "--out", traj + ".out"])),
    ("rate_kappa_nan", "--kappa: must be finite, got nan",
     _file_case("traj.csv", GOOD_TRAJECTORY,
                lambda traj, good: ["rate", "--trajectory", traj, "--kappa", "nan", "--tau", "1",
                                    "--out", traj + ".out"])),
    ("rate_tau_negative", "--tau: must be positive, got -1.0",
     _file_case("traj.csv", GOOD_TRAJECTORY,
                lambda traj, good: ["rate", "--trajectory", traj, "--kappa", "2", "--tau", "-1",
                                    "--out", traj + ".out"])),
    ("rate_epsilon_nan", "--epsilon: must be finite, got nan",
     _file_case("traj.csv", GOOD_TRAJECTORY,
                lambda traj, good: ["rate", "--trajectory", traj, "--kappa", "2", "--tau", "1",
                                    "--epsilon", "nan", "--out", traj + ".out"])),
    ("gauge_kappa_nan", "config.rate.gauge.kappa: must be finite, got nan",
     _config_case("run", rate={"gauge": {"kind": "linear", "kappa": NAN, "tau": 1.0}},
                  run=SMALL_RUN)),
    # a kappa whose square leaves the float64 range: factor^2 rounds to 1, or is -inf
    ("rate_kappa_square_overflows", "--kappa: kappa=1e+200 gives factor^2 = 1 - 0, which rounds to 1",
     _file_case("traj.csv", GOOD_TRAJECTORY,
                lambda traj, good: ["rate", "--trajectory", traj, "--kappa", "1e200", "--tau", "1",
                                    "--out", traj + ".out"])),
    ("rate_kappa_square_underflows", "--kappa: kappa=1e-200 gives factor^2=-inf",
     _file_case("traj.csv", GOOD_TRAJECTORY,
                lambda traj, good: ["rate", "--trajectory", traj, "--kappa", "1e-200", "--tau", "1",
                                    "--out", traj + ".out"])),
    # where tau / (epsilon + 2^-54) overflows, the message quotes no bound on kappa
    ("rate_kappa_bound_overflows",
     "--kappa: kappa=1e+308 gives factor^2 = 1 - 1e-308, which rounds to 1 in float64\n",
     _file_case("traj.csv", GOOD_TRAJECTORY,
                lambda traj, good: ["rate", "--trajectory", traj, "--kappa", "1e308", "--tau", "1e308",
                                    "--epsilon", "5e-324", "--out", traj + ".out"])),
    ("gauge_kappa_square_overflows",
     "config.rate.gauge: kappa=1e+200 gives factor^2 = 1 - 0, which rounds to 1",
     _config_case("run", rate={"gauge": {"kind": "linear", "kappa": 1e200, "tau": 1.0}},
                  run=SMALL_RUN)),
    ("gauge_kappa_square_underflows", "config.rate.gauge: kappa=1e-200 gives factor^2=-inf",
     _config_case("run", rate={"gauge": {"kind": "linear", "kappa": 1e-200, "tau": 1.0}},
                  run=SMALL_RUN)),
    # a misspelt field is refused, never replaced by its default
    ("unknown_certify_field", "config.certify.violaton: unknown field",
     _config_case("certify", certify={"property": "aafne_in_expectation", "violaton": 5.0})),
    ("unknown_top_level_field", "config.step: unknown field",
     _config_case("run", step=[0.1, 0.1], run=SMALL_RUN)),
    ("unknown_run_field", "config.run.snapshot_evry: unknown field",
     _config_case("run", run=dict(SMALL_RUN, snapshot_evry=1))),
    ("unknown_problem_param", "problem.params.block_dim: unknown field",
     _config_case("run", problem=_quadratic([[1.0, 0.0], [0.0, 1.0]], block_dim=[1, 1]),
                  run=SMALL_RUN)),
    ("unknown_gauge_field", "config.rate.gauge.epsilonn: unknown field",
     _config_case("run", rate={"gauge": {"kind": "linear", "kappa": 5.0, "tau": 1.0,
                                         "epsilonn": 0.5}}, run=SMALL_RUN)),
    ("unknown_scheme_field", "config.scheme.prob: unknown field",
     _config_case("run", scheme={"subsets": [[0], [1]], "probs": [0.5, 0.5], "prob": [1.0, 0.0]},
                  run=SMALL_RUN)),
    ("unknown_init_field", "config.run.init.lo: unknown field",
     _config_case("run", run=dict(SMALL_RUN, init={"kind": "point", "x": [0.0, 0.0],
                                                   "lo": [1.0, 1.0]}))),
    ("unknown_set_field", "problem.params.sets[0].radius: unknown field",
     _sets_case(dict(POINT, radius=1.0), POINT)),
    # rate builds no problem, yet refuses the params that run refuses
    ("rate_problem_param_unknown", "problem.params.bogus: unknown field; expected one of t",
     _rate_config_case({}, problem={"id": "counterexample2d", "params": {"t": -1, "bogus": 3}})),
    # a non-finite problem parameter is refused before any solve
    ("b_nan", "problem.params.b: must be finite",
     _config_case("run", problem=_quadratic([[1.0, 0.0], [0.0, 1.0]], b=[NAN, 0.0]), run=SMALL_RUN)),
    ("l1_weights_nan", "problem.params.l1_weights: must be finite",
     _config_case("run", problem=_quadratic([[1.0, 0.0], [0.0, 1.0]], l1_weights=[0.1, NAN]),
                  run=SMALL_RUN)),
    ("Q_nan", "problem.params.Q: must be finite",
     _config_case("run", problem=_quadratic([[1.0, NAN], [NAN, 1.0]]), run=SMALL_RUN)),
    ("t_nan", "problem.params.t: must be finite",
     _config_case("run", problem={"id": "counterexample2d", "params": {"t": NAN}}, run=SMALL_RUN)),
    ("t_inf", "problem.params.t: must be finite",
     _config_case("run", problem={"id": "counterexample2d", "params": {"t": INF}}, run=SMALL_RUN)),
    ("set_point_nan", "problem.params.sets[1].point: must be finite",
     _sets_case(POINT, {"kind": "point", "point": [NAN, 0.0]})),
    ("set_center_nan", "problem.params.sets[0].center: must be finite",
     _sets_case({"kind": "ball", "center": [0.0, NAN], "radius": 1.0}, POINT)),
    # an integer beyond the largest float is refused where it is read as one
    ("t_integer_too_large", "problem.params.t: integer too large for a float",
     _config_case("run", problem={"id": "counterexample2d", "params": {"t": 10**400}}, run=SMALL_RUN)),
    ("rate_set_point_integer_too_large", "problem.params.sets[1].point[0]: integer too large for a float",
     _rate_config_case({}, problem={"id": "feasibility", "params": {"sets": [
         POINT, {"kind": "point", "point": [-10**400, 0.0]}]}},
                       scheme={"subsets": [[0], [1]], "probs": [0.5, 0.5]})),
    # an integer of more digits than Python converts stops the JSON reader itself
    ("config_integer_over_4300_digits", "config file cannot be read as JSON: Exceeds the limit",
     _text_config_case("run", lambda text: text.replace('"seed": 7', '"seed": 1' + "0" * 5000),
                       run=SMALL_RUN)),
    # integers are integers, and a set's vectors have one length
    # a subset naming a block the problem does not have, refused where the problem is built
    ("run_scheme_block_out_of_range",
     "config.scheme.subsets: block 2 out of range for a problem of 2 blocks",
     _config_case("run", scheme={"subsets": [[0], [2]], "probs": [0.5, 0.5]}, run=SMALL_RUN)),
    ("certify_scheme_block_out_of_range",
     "config.scheme.subsets: block 2 out of range for a problem of 2 blocks",
     _config_case("certify", scheme={"subsets": [[0], [2]], "probs": [0.5, 0.5]},
                  certify={"property": "aafne_in_expectation"})),
    ("subsets_float", "config.scheme.subsets[0][0]: expected an integer, got 0.7",
     _config_case("run", scheme={"subsets": [[0.7], [1.2]], "probs": [0.5, 0.5]}, run=SMALL_RUN)),
    ("subsets_bool", "config.scheme.subsets[0][0]: expected an integer, got False",
     _config_case("run", scheme={"subsets": [[False], [True]], "probs": [0.5, 0.5]}, run=SMALL_RUN)),
    ("block_dims_float", "problem.params.block_dims[0]: expected an integer, got 1.5",
     _config_case("run", problem=_quadratic([[1.0, 0.0], [0.0, 1.0]], block_dims=[1.5, 0.5]),
                  run=SMALL_RUN)),
    ("set_line_lengths", "problem.params.sets[1]: point and direction must have equal lengths",
     _sets_case(POINT, {"kind": "line", "point": [0.0, 0.0], "direction": [1.0]})),
    ("set_box_lengths", "problem.params.sets[0]: lo and hi must have equal lengths",
     _sets_case({"kind": "box", "lo": [0.0, 0.0], "hi": [1.0]}, POINT)),
    # a family of sets that no feasibility problem takes is a config error too
    ("sets_different_dims", "problem.params.sets: sets live in different dimensions: [1, 2]",
     _sets_case({"kind": "point", "point": [0.0]}, POINT)),
    ("sets_line_and_box", "problem.params.sets: consistency test unsupported for pair ['box', 'line']",
     _sets_case({"kind": "line", "point": [0.0, 0.0], "direction": [1.0, 0.0]},
                {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]})),
    ("sets_empty_coordinates", "problem.params.sets: block dims must be positive, got (0, 0)",
     _sets_case({"kind": "point", "point": []}, {"kind": "point", "point": []})),
    # a block that is never selected, on a problem without a target
    ("run_uncovered_block", "blocks [1] have zero selection probability",
     _config_case("run", problem={"id": "feasibility", "params": {"sets": [
         {"kind": "point", "point": [0.0]}, {"kind": "point", "point": [2.0]}]}},
                  scheme={"subsets": [[0], [1]], "probs": [1.0, 0.0]}, run=SMALL_RUN),
     "error: "),
    # finite states whose squared residuals overflow: the run is divergent
    ("run_residual_overflow", "run diverged: mean_residual is inf at k=0",
     _config_case("run", run=dict(SMALL_RUN, init={"kind": "point", "x": [1e200, 0.0]})),
     "error: "),
    # finite coordinates whose squared weighted distances overflow: a solver
    # error, not a config error; the first takes the assignment route, the
    # second the LP route
    ("transport_cost_overflow_equal_weights", "squared weighted distances between the supports overflow",
     _file_case("big.csv", MEASURE_HEADER + "0.5,1e200,0\n0.5,1,1\n",
                lambda bad, good: ["transport", bad, good]), "error: "),
    # in a run, a dw_step whose cost overflows is a non-finite diagnostic
    ("run_dw_step_cost_overflow", "run diverged: dw_step is inf at k=1",
     _config_case("run", steps=[1e-10, 1e-10], run=dict(
         SMALL_RUN, dw_step_every=1, init={"kind": "uniform_box", "lo": [-1e154, -1e154],
                                           "hi": [1e154, 1e154]})), "error: "),
    ("transport_cost_overflow_weighted", "squared weighted distances between the supports overflow",
     _file_case("big.csv", MEASURE_HEADER + "0.3,1e200,0\n0.7,1,1\n",
                lambda bad, good: ["transport", bad, good]), "error: "),
    # 10**14 rows of 2 coordinates take 1.42 PiB, past any address space:
    # numpy refuses the array before allocating any of it
    ("run_num_chains_too_large", "error: out of memory: Unable to allocate 1.42 PiB",
     _config_case("run", run=dict(SMALL_RUN, num_chains=10**14)), "error: "),
    ("certify_num_pairs_too_large", "error: out of memory: Unable to allocate 1.42 PiB",
     _config_case("certify", certify={"property": "aafne_in_expectation", "alpha": 0.5,
                                      "num_pairs": 10**14}), "error: "),
    # numpy takes no array dimension above sys.maxsize: such a count is a config error
    ("run_num_chains_above_maxsize", f"config.run.num_chains: must be <= {sys.maxsize}, got 1000",
     _config_case("run", run=dict(SMALL_RUN, num_chains=10**400))),
    ("run_iterations_above_maxsize",
     f"config.run.iterations: must be <= {sys.maxsize}, got {sys.maxsize + 1}",
     _config_case("run", run=dict(SMALL_RUN, iterations=sys.maxsize + 1))),
    ("certify_num_pairs_above_maxsize",
     f"config.certify.num_pairs: must be <= {sys.maxsize}, got 1000",
     _config_case("certify", certify={"property": "aafne_in_expectation", "num_pairs": 10**400})),
    # a count numpy takes whose array passes the largest byte size numpy can
    # index: numpy would refuse it with a ValueError, so build() refuses it first
    ("run_num_chains_past_indexable_bytes",
     "config.run.num_chains: an array of shape (4611686018427387904, 2) and 8-byte items takes "
     f"73786976294838206464 bytes, more than the {sys.maxsize} that numpy can index",
     _config_case("run", run=dict(SMALL_RUN, num_chains=2**62)), "error: out of memory: "),
    ("run_iterations_past_indexable_bytes",
     "config.run.iterations: an array of shape (4611686018427387905, 7) and 8-byte items",
     _config_case("run", run=dict(SMALL_RUN, iterations=2**62)), "error: out of memory: "),
    ("certify_num_pairs_past_indexable_bytes",
     "config.certify.num_pairs: an array of shape (4611686018427387904, 2) and 8-byte items",
     _config_case("certify", certify={"property": "aafne_in_expectation", "num_pairs": 2**62}),
     "error: out of memory: "),
    # finite bounds whose width hi - lo overflows, which no sample can scale
    ("init_box_width_overflows", "config.run.init: region width hi - lo overflows at coordinate 0",
     _config_case("run", run=dict(SMALL_RUN, init={"kind": "uniform_box", "lo": [-1e308, -1e308],
                                                   "hi": [1e308, 1e308]}))),
    ("certify_region_width_overflows",
     "config.certify.region: region width hi - lo overflows at coordinate 1",
     _config_case("certify", certify={"property": "aafne_in_expectation",
                                      "region": {"lo": [-1.0, -1e308], "hi": [1.0, 1e308]}})),
]

# a set coordinate of +-1e308: the gallery's distance tests read an overflow
# as "farther than any tolerance", with no warning, so the run names its divergence
BAD_INPUTS += [
    (f"set_{name}_far", "run diverged: mean_residual is inf at k=0", _sets_case(*sets), "error: ")
    for name, sets in (
        ("ball_center", ({"kind": "ball", "center": [1e308, 0.0], "radius": 1.0}, POINT)),
        ("ball_center_negative", (POINT, {"kind": "ball", "center": [0.0, -1e308], "radius": 1.0})),
        ("point", ({"kind": "point", "point": [1e308, 0.0]}, POINT)),
        ("point_negative", (POINT, {"kind": "point", "point": [-1e308, 0.0]})),
        ("line_point", ({"kind": "line", "point": [1e308, 0.0], "direction": [0.0, 1.0]}, POINT)),
        ("line_point_negative",
         ({"kind": "line", "point": [0.0, -1e308], "direction": [1.0, 0.0]}, POINT)),
    )
]

# a problem id that is a list or an object is unknown under every command
BAD_INPUTS += [
    (f"{command}_problem_id_{name}", f"config.problem.id: unknown problem {problem_id!r}; available: ",
     _config_case(command, problem={"id": problem_id}, run=SMALL_RUN,
                  certify={"property": "aafne_in_expectation"}))
    for command in ("run", "certify") for name, problem_id in (("list", []), ("dict", {}),
                                                                ("nested", [[]]))
]


@pytest.mark.parametrize("needle, build, prefix",
                         [(c[1], c[2], c[3] if len(c) > 3 else "config error: ") for c in BAD_INPUTS],
                         ids=[c[0] for c in BAD_INPUTS])
def test_cli_bad_input_exit_2_one_line(tmp_path, capsys, needle, build, prefix):
    assert main(build(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.count(needle) == 1
    # nothing was written, not even the output directory
    assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == []


def test_cli_rate_takes_no_seed(tmp_path, capsys):
    # rate draws no random numbers, so a seed could only be echoed
    traj = tmp_path / "traj.csv"
    traj.write_text(GOOD_TRAJECTORY)
    with pytest.raises(SystemExit) as info:
        main(["rate", "--trajectory", str(traj), "--seed", "3", "--out", str(tmp_path / "o")])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


GAUGE = {"kind": "linear", "kappa": 5.0, "tau": 1.0}


@pytest.mark.parametrize("command, gauge, flags, calls", [
    ("run", GAUGE, [], 1),
    ("rate", GAUGE, [], 1),
    ("rate", None, ["--kappa", "5", "--tau", "1"], 1),
    # the config's gauge is built as the config is parsed, and the flags' replaces it
    ("rate", GAUGE, ["--kappa", "2", "--tau", "2"], 2),
], ids=["run_config_gauge", "rate_config_gauge", "rate_flags", "rate_flags_over_config_gauge"])
def test_cli_builds_each_gauge_once(tmp_path, monkeypatch, capsys, command, gauge, flags, calls):
    from blocksplit import rates

    built = []
    theta_linear = rates.theta_linear

    def counted(*args):
        built.append(theta_linear(*args))
        return built[-1]

    monkeypatch.setattr(rates, "theta_linear", counted)
    doc = base_config(run=SMALL_RUN, output_dir=str(tmp_path / "out"))
    if gauge is not None:
        doc["rate"] = {"gauge": gauge}
    argv = [command, "--config", write_config(tmp_path, doc)]
    if command == "rate":
        traj = tmp_path / "traj.csv"
        traj.write_text(GOOD_TRAJECTORY)
        argv += ["--trajectory", str(traj), *flags]
    assert main(argv) == 0
    assert len(built) == calls
    report = "summary.json" if command == "run" else "rate_report.json"
    doc = json.loads((tmp_path / "out" / report).read_text())
    details = doc["verdicts" if command == "run" else "report"]["details"]
    assert details["gauge_factor"] == built[-1]


IMPORT_GUARD = """
import sys
from blocksplit.cli import main

config, out, mu, nu, lp_mu, solving, solving_out = sys.argv[1:]
assert main(["run", "--config", config, "--out", out]) == 0
assert main(["certify", "--config", config, "--out", out]) == 0
assert main(["rate", "--trajectory", out + "/trajectory.csv", "--out", out]) == 0
loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
assert not loaded, f"run/certify/rate loaded {len(loaded)} scipy modules: {loaded[:5]}"
# a W2 solve loads scipy's compiled kernels, not the packages around them
UNUSED = ("scipy", "scipy.optimize", "scipy.spatial", "scipy.sparse", "scipy.linalg",
          "scipy.special", "numpy.f2py", "numpy.testing")
print("transport:")
for what, argv in (("transport", ["transport", mu, nu]),
                   ("transport on the LP route", ["transport", lp_mu, nu]),
                   ("run with dw_step_every 1", ["run", "--config", solving, "--out", solving_out])):
    assert main(argv) == 0
    loaded = [name for name in UNUSED if name in sys.modules]
    assert not loaded, f"{what} loaded {loaded}"
"""


def test_cli_loads_scipy_only_for_a_transport_solve(tmp_path):
    # scipy is a large import; only an exact W2 solve may pay for it, and
    # it pays only for the three compiled kernels the solve calls
    doc = run_config(tmp_path, num_chains=8, iterations=10, snapshot_every=0, dw_step_every=0)
    doc["certify"] = {"property": "aafne_in_expectation", "alpha": 2.0 / 3.0, "num_pairs": 20}
    solving = run_config(tmp_path, num_chains=8, iterations=4, snapshot_every=0,
                         dw_step_every=1)
    a = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]])
    b = np.array([[0.5, 1.0], [2.0, 2.0], [-1.0, 0.0]])
    header = '{"block_dims": [1, 1], "dim": 2, "n": 3, "version": 1}\n'
    for name, pts, weights in (("mu.csv", a, [1 / 3] * 3), ("nu.csv", b, [1 / 3] * 3),
                               ("lp_mu.csv", a, [0.25, 0.25, 0.5])):
        rows = "".join(f"{w!r},{x!r},{y!r}\n" for w, (x, y) in zip(weights, pts.tolist()))
        (tmp_path / name).write_text(header + rows)
    expected = min(
        np.sqrt(np.mean(np.sum((a - b[list(perm)]) ** 2, axis=1)))
        for perm in itertools.permutations(range(3))
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, write_config(tmp_path, doc), str(tmp_path / "out"),
         *(str(tmp_path / name) for name in ("mu.csv", "nu.csv", "lp_mu.csv")),
         write_config(tmp_path, solving, "solving.json"), str(tmp_path / "solving_out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.split("transport:\n")[1].splitlines()[0]
    assert float(printed) == pytest.approx(expected, rel=1e-12)
    assert (tmp_path / "solving_out" / "trajectory.csv").exists()


def test_cli_certify_report_is_strict_json(tmp_path, capsys):
    # no sample clears the threshold, so the margin is undefined (NaN)
    doc = base_config(
        certify={"property": "paracontraction_in_expectation", "num_pairs": 50,
                 "residual_threshold": 1e9},
        output_dir=str(tmp_path / "o"),
    )
    assert main(["certify", "--config", write_config(tmp_path, doc)]) == 1
    assert "margin=nan" in capsys.readouterr().out

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    text = (tmp_path / "o" / "certify_report.json").read_text()
    report = json.loads(text, parse_constant=refuse)["report"]
    assert report["margin"] is None
    assert report["details"]["num_eligible"] == 0


def _two_pass_report(path, doc):
    """The strict-JSON writer as it was: dump, parse back with constants as
    null, then dump again with indent=2."""
    doc = json.loads(json.dumps(doc), parse_constant=lambda name: None)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)


REPORT_DOC = {
    "margin": float("nan"),
    "bounds": (float("inf"), -float("inf"), -0.0, 0.1, 1e-310, 1.7976931348623157e308),
    3: {"nested": [[1, 2.5, (float("nan"), "x")], [], ()], -1: None},
    "flags": [True, False, None],
    "Q": np.linspace(-1.0, 1.0, 12).reshape(3, 4).tolist(),
    "np_float": np.float64("inf"),
}

json_leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5))
json_docs = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        # int and text keys never stringify to the same key
        st.dictionaries(st.one_of(st.integers(), st.text(alphabet="abc", max_size=3)),
                        inner, max_size=4),
    ),
    max_leaves=20,
)


def test_write_report_matches_the_two_pass_writer_bytes(tmp_path):
    _write_report(tmp_path / "new.json", REPORT_DOC)
    _two_pass_report(tmp_path / "old.json", REPORT_DOC)
    new = (tmp_path / "new.json").read_bytes()
    assert new == (tmp_path / "old.json").read_bytes()
    assert b"NaN" not in new and b"Infinity" not in new and b"-0.0" in new


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(max_size=3), json_docs, max_size=4))
def test_write_report_matches_the_two_pass_writer_on_random_docs(tmp_path_factory, doc):
    out = tmp_path_factory.mktemp("report")
    _write_report(out / "new.json", doc)
    _two_pass_report(out / "old.json", doc)
    assert (out / "new.json").read_bytes() == (out / "old.json").read_bytes()
