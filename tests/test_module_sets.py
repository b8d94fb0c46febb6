"""Each command loads only the package modules it runs; ``import blocksplit`` loads none.

Every case runs in a fresh interpreter, so that the modules it reports are
the ones its own command loaded.  Four other modules are reported beside
the package's: ``numpy``, which ``rate`` and ``import blocksplit`` do not
load; ``dataclasses`` and ``inspect``, which ``rate`` does not load either;
and ``numpy.ma``, which a transport solve does not load beyond what
``import numpy`` itself loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blocksplit

LOADED = """
import json
import sys

if len(sys.argv) > 1:
    from blocksplit.cli import main

    code = main(sys.argv[1:])
else:
    import blocksplit

    code = None
print(json.dumps([code, sorted(sys.modules)]))
"""

OTHERS = {"numpy", "numpy.ma", "dataclasses", "inspect"}
TRANSPORT = {"cli", "errors", "blockspace", "transport", "numpy"}
RATE = {"cli", "errors", "config", "rates"}
NOT_CERTIFY = {"markov", "transport", "rates"}


def _last_json_line(*args):
    """The JSON of the last stdout line of ``python -c *args``, with the checkout's src on the path."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded(*argv):
    """Exit code of ``blocksplit.cli.main(argv)`` (None without argv) and the submodules it loaded.

    The set holds each module of ``OTHERS`` that was loaded too.
    """
    code, names = _last_json_line(LOADED, *map(str, argv))
    return code, ({name[len("blocksplit."):] for name in names if name.startswith("blocksplit.")}
                  | OTHERS & set(names))


@pytest.fixture(scope="module")
def numpy_own():
    """The modules of ``OTHERS`` that ``import numpy`` loads by itself (numpy 2.4: ``inspect``)."""
    return OTHERS & set(_last_json_line("import json, sys, numpy; print(json.dumps(sorted(sys.modules)))"))


@pytest.fixture
def inputs(tmp_path):
    """A config with every section, a trajectory and two measure files.

    The config gives two regions, which ``rate`` parses without the
    certifiers.  Its rate section has no gauge: validating one loads
    ``rates``, which ``certify`` otherwise does not need.
    """
    doc = {
        "schema_version": 1,
        "problem": {"id": "counterexample2d", "params": {"t": 0.25}},
        "flavor": "fb",
        "scheme": {"subsets": [[0], [1]], "probs": [0.5, 0.5]},
        "steps": [0.25, 0.25],
        "seed": 7,
        "run": {"num_chains": 4, "iterations": 3,
                "init": {"kind": "uniform_box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]}},
        "certify": {"property": "aafne_in_expectation", "alpha": 2.0 / 3.0, "num_pairs": 20,
                    "region": {"lo": [-2.0, -2.0], "hi": [2.0, 2.0]}},
        "rate": {"column": "d_target"},
    }
    (tmp_path / "config.json").write_text(json.dumps(doc))
    rows = "".join(f"{k},{d!r},{d!r},,{d!r},{d!r},{d!r}\n" for k, d in
                   ((k, 0.5 ** k) for k in range(6)))
    (tmp_path / "trajectory.csv").write_text(
        "k,mean_residual,psi_upper,dw_step,d_target,block0_mean,block1_mean\n" + rows)
    header = '{"block_dims": [1, 1], "dim": 2, "n": 2, "version": 1}\n'
    (tmp_path / "mu.csv").write_text(header + "0.5,0,0\n0.5,1,2\n")
    (tmp_path / "nu.csv").write_text(header + "0.25,3,-1\n0.75,0.5,1\n")
    return tmp_path


def test_import_blocksplit_loads_no_submodule():
    assert loaded() == (None, set())


def test_transport_loads_only_its_modules(inputs, numpy_own):
    # mu and nu have unequal weights, so the second distance is an LP solve,
    # which loads no numpy.ma
    for argv in (["transport", inputs / "mu.csv", inputs / "mu.csv"],
                 ["transport", inputs / "mu.csv", inputs / "nu.csv", "--probs", "0.5,0.25"]):
        code, modules = loaded(*argv)
        assert code == 0
        assert modules - numpy_own <= TRANSPORT, modules - numpy_own - TRANSPORT


def test_rate_loads_only_its_modules(inputs):
    traj = ["--trajectory", inputs / "trajectory.csv", "--out", inputs / "out"]
    for argv in (["rate", *traj],
                 ["rate", "--config", inputs / "config.json", "--kappa", "5", "--tau", "1", *traj]):
        code, modules = loaded(*argv)
        assert code == 0
        assert modules <= RATE, modules - RATE


def test_rate_loads_no_numpy(inputs):
    # Q, a certify region, steps and a gauge are parsed without arrays
    doc = {
        "schema_version": 1,
        "problem": {"id": "quadratic_l1", "params": {"Q": [[2.0, 0.5], [0.5, 1]], "b": [1, -1.0],
                                                     "l1_weights": [0.1, 0.2]}},
        "flavor": "fb",
        "scheme": {"subsets": [[0], [1], [0, 1]], "probs": [0.25, 0.25, 0.5]},
        "steps": [0.3, 0.4],
        "seed": 3,
        "certify": {"property": "aafne_in_expectation",
                    "region": {"lo": [-2.0, -1], "hi": [2.0, 1.5]}},
        "rate": {"gauge": {"kind": "linear", "kappa": 5.0, "tau": 1.0}},
    }
    config = inputs / "quadratic.json"
    config.write_text(json.dumps(doc))
    traj = ["--trajectory", inputs / "trajectory.csv", "--out", inputs / "out"]
    for argv in (["rate", "--config", config, *traj],
                 ["rate", "--config", config, "--kappa", "4", "--tau", "2", *traj]):
        code, modules = loaded(*argv)
        assert code == 0
        assert "numpy" not in modules and modules <= RATE, modules - RATE


def test_certify_loads_no_simulator_transport_or_rates(inputs):
    code, modules = loaded("certify", "--config", inputs / "config.json", "--out", inputs / "out")
    assert code == 0
    assert not modules & NOT_CERTIFY, modules & NOT_CERTIFY


def test_run_loads_no_certifier(inputs):
    code, modules = loaded("run", "--config", inputs / "config.json", "--out", inputs / "out")
    assert code == 0
    assert "regularity" not in modules and {"markov", "transport", "rates"} <= modules


def test_every_public_name_resolves_and_is_listed():
    listed = dir(blocksplit)
    for name in blocksplit.__all__:
        assert name in listed
        assert getattr(blocksplit, name) is not None
    with pytest.raises(AttributeError, match="no_such_name"):
        blocksplit.no_such_name
