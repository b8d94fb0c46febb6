"""The JSON format: reports and configs written from their fields, and configs read strictly."""

import copy
import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksplit import cli, config
from blocksplit.cli import _write_report
from blocksplit.config import (
    CertifySection,
    RateSection,
    RunSection,
    json_ready,
    load_config,
    parse_config,
)
from blocksplit.rates import AsymptoticRegularityResult, CheckResult, RateFit, RateReport
from blocksplit.regularity import CertificationReport

ROOT = Path(__file__).resolve().parents[1]


def _strict(path):
    """Parse a JSON file, refusing NaN and infinities."""
    def refuse(name):
        raise ValueError(f"non-strict JSON constant {name}")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


def test_reports_are_written_as_strict_json_with_their_field_names(tmp_path):
    cert = CertificationReport(
        property="paracontraction_in_expectation", alpha=None, violation=0.0,
        num_samples=np.int64(3), margin=float("nan"), tolerance=1e-10, passed=np.bool_(True),
        witness_x=np.array([0.5, -1.0]), witness_y=np.array([2.0, float("inf")]),
        details={"eligible": 0, "worst": -float("inf")},
    )
    rate = RateReport(
        fejer=CheckResult(np.bool_(False), 4, 0.25),
        gauge=None,
        asymptotic=AsymptoticRegularityResult(True, 1e-9, None),
        fit=RateFit(c_hat=0.5, log_intercept=np.float64(-1.5), num_used=6),
        details={"column": "d_target", "num_entries": 7},
    )
    _write_report(tmp_path / "r.json", {"certify": cert, "rate": rate})
    doc = _strict(tmp_path / "r.json")
    assert doc["certify"] == {
        "property": "paracontraction_in_expectation", "alpha": None, "violation": 0.0,
        "num_samples": 3, "margin": None, "tolerance": 1e-10, "passed": True,
        "witness_x": [0.5, -1.0], "witness_y": [2.0, None],
        "details": {"eligible": 0, "worst": None},
    }
    assert list(doc["certify"]) == ["property", "alpha", "violation", "num_samples", "margin",
                                    "tolerance", "passed", "witness_x", "witness_y", "details"]
    assert doc["rate"] == {
        "fejer": {"passed": False, "first_violation": 4, "worst_excess": 0.25},
        "gauge": None,
        "asymptotic": {"passed": True, "tail_mean": 1e-9, "fitted_exponent": None},
        "fit": {"c_hat": 0.5, "log_intercept": -1.5, "num_used": 6},
        "details": {"column": "d_target", "num_entries": 7},
    }
    assert list(doc["rate"]) == ["fejer", "gauge", "asymptotic", "fit", "details"]


FULL_CONFIG = {
    "schema_version": 1,
    "problem": {"id": "counterexample2d", "params": {"t": 0.25}},
    "flavor": "fb",
    "scheme": {"subsets": [[1, 0], [1]], "probs": [0.5, 0.5]},
    "seed": 7,
    "run": {"num_chains": 4, "iterations": 3, "init": {"kind": "point", "x": [1.0, 2.0]}},
    "certify": {"property": "pointwise_aafne", "target": {"kind": "subset", "index": 1},
                "region": {"lo": [-1.0, -2.0], "hi": [1.0, 2.0]}},
    "rate": {"gauge": {"kind": "linear", "kappa": 5.0, "tau": 1.0}},
}


def _resolved(doc):
    """The config as every report embeds it, defaults applied."""
    return json_ready(parse_config(doc).document())


def test_resolved_config_names_every_field_and_parses_back():
    resolved = _resolved(FULL_CONFIG)
    assert list(resolved) == ["schema_version", "problem", "flavor", "scheme", "steps", "seed",
                              "output_dir", "run", "certify", "rate"]
    assert resolved["scheme"] == {"subsets": [[0, 1], [1]], "probs": [0.5, 0.5]}
    assert resolved["certify"] == {
        "property": "pointwise_aafne", "target": {"kind": "subset", "index": 1}, "alpha": 0.5,
        "violation": 0.0, "num_pairs": 10_000, "region": {"lo": [-1.0, -2.0], "hi": [1.0, 2.0]},
        "tolerance": 1e-10, "adversarial": True, "residual_threshold": 1e-8,
    }
    # every default is written out, under the name the parser reads it by
    assert _resolved(json.loads(json.dumps(resolved))) == resolved
    minimal = _resolved({k: v for k, v in FULL_CONFIG.items() if k != "rate"})
    assert "rate" not in minimal and _resolved(minimal) == minimal


def test_sections_with_only_required_fields_parse_to_the_section_defaults():
    # parse_config applies its own literal defaults; they must be the dataclasses'
    doc = {k: v for k, v in FULL_CONFIG.items() if k not in ("run", "certify", "rate")}
    doc.update(run={"num_chains": 4, "iterations": 2}, certify={"property": "aafne_in_expectation"},
               rate={})
    cfg = parse_config(doc)
    assert cfg.run == RunSection(num_chains=4, iterations=2)
    assert cfg.certify == CertifySection(property="aafne_in_expectation")
    assert cfg.rate == RateSection()


README_CONFIG = json.loads(re.search(r"^```json\n(.*?)^```$", (ROOT / "README.md").read_text(),
                                     re.S | re.M).group(1))
# each section's optional fields, at the defaults its class gives them
SECTION_DEFAULTS = {
    "run": RunSection._field_defaults,
    "certify": CertifySection._field_defaults,
    "rate": RateSection()._asdict(),
}


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({section: st.sets(st.sampled_from(sorted(defaults)))
                              for section, defaults in SECTION_DEFAULTS.items()}))
def test_an_optional_field_left_out_parses_as_if_written_at_its_default(dropped):
    left_out, written = copy.deepcopy(README_CONFIG), copy.deepcopy(README_CONFIG)
    for section, names in dropped.items():
        for name in names:
            left_out[section].pop(name, None)
            written[section][name] = SECTION_DEFAULTS[section][name]
    cfg, expected = parse_config(left_out), parse_config(written)
    assert cfg == expected and cfg.rate.gauge_factor == expected.rate.gauge_factor
    assert json_ready(cfg.document()) == json_ready(expected.document())


def test_benchmark_and_readme_configs_parse_and_build(tmp_path, monkeypatch):
    # the benchmark's own generator, loaded from bench/ as it stands
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    paths = []
    for name in workloads.WORKLOADS:
        for scale in ("full", "tiny"):
            for seed in range(workloads.NUM_INPUT_SETS):
                paths.append(workloads.generate(name, seed, tmp_path / f"{name}_{scale}_{seed}",
                                                scale).config)
    assert len(paths) == 3 * 16 * 2
    block = re.search(r"^```json\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)
    (tmp_path / "readme.json").write_text(block.group(1))
    paths.append(tmp_path / "readme.json")
    for path in paths:
        cfg = load_config(path)
        cfg.build_problem()


def test_problem_params_are_checked_once_per_command(monkeypatch):
    calls = []
    builder = config.PROBLEM_BUILDERS["quadratic_l1"]

    def counted(params):
        calls.append(1)
        return builder(params)

    monkeypatch.setitem(config.PROBLEM_BUILDERS, "quadratic_l1", counted)
    doc = dict(FULL_CONFIG, problem={"id": "quadratic_l1", "params": {
        "Q": [[2.0, 0.5], [0.5, 1.0]], "b": [-1.0, 0.5], "l1_weights": [0.1, 0.1]}})
    cfg = parse_config(doc)
    assert len(calls) == 1
    cfg.build()
    assert len(calls) == 1
    # the constructor is no config field: the report writes the params as given
    assert "builder" not in json.dumps(json_ready(cfg.document()))


def test_every_report_is_one_conversion_of_its_unconverted_document(tmp_path, monkeypatch):
    written = []

    def spy(path, doc):
        written.append((path, doc))
        _write_report(path, doc)

    monkeypatch.setattr(cli, "_write_report", spy)
    doc = dict(FULL_CONFIG, output_dir=str(tmp_path / "out"),
               certify={"property": "aafne_in_expectation", "num_pairs": 50})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(path)]) == 0
    cli.main(["certify", "--config", str(path)])
    cli.main(["rate", "--config", str(path), "--trajectory", str(tmp_path / "out" / "trajectory.csv")])
    assert [p.name for p, _ in written] == ["summary.json", "certify_report.json", "rate_report.json"]
    resolved = _resolved(doc)
    for report, unconverted in written:
        text = report.read_text()
        assert text == json.dumps(json_ready(unconverted), indent=2, allow_nan=False)
        # the config goes into the document unconverted, and comes out as the resolved config
        assert not isinstance(unconverted["config"]["scheme"], dict)
        assert json.loads(text)["config"] == resolved
