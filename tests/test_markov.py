"""Ensemble simulation, diagnostics, and run file formats."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blocksplit import markov
from blocksplit.blockspace import BlockSubsetScheme
from blocksplit.errors import DimensionMismatch, Diverged
from blocksplit.markov import (
    DiagnosticRecord,
    empirical_residual_psi,
    init_ensemble,
    point_sampler,
    read_snapshot,
    read_trajectory_csv,
    run,
    sbi_step,
    uniform_box_sampler,
    write_snapshot,
    write_trajectory_csv,
)
from blocksplit.problems import counterexample2d
from blocksplit.splitting import apply_T, apply_full

SINGLETONS = BlockSubsetScheme(((0,), (1,)), (0.5, 0.5))


def _map(t=0.25):
    return counterexample2d(t).build_map("fb", SINGLETONS)


def test_init_ensemble_reproducible():
    m = _map()
    sampler = uniform_box_sampler([-1.0, -1.0], [1.0, 1.0])
    a = init_ensemble(m, sampler, 16, master_seed=42)
    b = init_ensemble(m, sampler, 16, master_seed=42)
    np.testing.assert_array_equal(a.states, b.states)
    c = init_ensemble(m, sampler, 16, master_seed=43)
    assert not np.allclose(a.states, c.states)


def test_init_ensemble_chains_independent():
    m = _map()
    sampler = uniform_box_sampler([-1.0, -1.0], [1.0, 1.0])
    e = init_ensemble(m, sampler, 8, master_seed=0)
    assert e.states.shape == (8, 2)
    # no two chains share an initial state
    assert len({tuple(row) for row in np.round(e.states, 12)}) == 8


def test_sbi_step_matches_manual_replay():
    # replay each chain with its own index stream: grouping by outcome in
    # sbi_step must not change what any single chain sees
    from blocksplit.blockspace import chain_rng, sample_subset

    m = _map()
    e = init_ensemble(m, point_sampler(np.array([1.0, 2.0])), 12, master_seed=9)
    manual_states = e.states.copy()
    manual_rngs = [chain_rng(9, cid, 1) for cid in range(12)]
    for step in range(5):
        for cid in range(12):
            i = sample_subset(m.scheme, manual_rngs[cid])
            manual_states[cid] = apply_T(m, i, manual_states[cid])
        sbi_step(e, m)
    np.testing.assert_allclose(e.states, manual_states, atol=1e-14)
    assert e.k == 5


def test_empirical_residual_psi_hand_value():
    m = _map()
    e = init_ensemble(m, point_sampler(np.array([1.0, 2.0])), 3, master_seed=0)
    # T1(1,2) = (-0.5, 1/3); residual (1.5, 5/3)
    expected = np.sqrt(1.5**2 + (5.0 / 3.0) ** 2)
    assert empirical_residual_psi(e, m) == pytest.approx(expected)


def test_run_records_and_snapshots():
    m = _map()
    e = init_ensemble(m, uniform_box_sampler([-1, -1], [1, 1]), 10, master_seed=1)
    result = run(e, m, 20, snapshot_every=7)
    ks = [r.k for r in result.records]
    assert ks == list(range(21))
    assert sorted(result.snapshots) == [0, 7, 14, 20]
    assert result.snapshots[0].shape == (10, 2)
    # diagnostics decrease toward the fixed point at the origin
    assert result.records[-1].mean_residual < result.records[0].mean_residual


def test_run_distance_callbacks():
    m = _map()
    e = init_ensemble(m, uniform_box_sampler([-1, -1], [1, 1]), 10, master_seed=1)
    result = run(
        e,
        m,
        10,
        dw_step_every=3,
        target_distance=lambda states: float(np.mean(np.linalg.norm(states, axis=-1))),
        step_distance=lambda a, b: float(np.max(np.linalg.norm(a - b, axis=-1))),
    )
    dw = [r.dw_step for r in result.records]
    assert dw[0] is None
    assert all(dw[k] is not None for k in (3, 6, 9))
    assert all(dw[k] is None for k in (1, 2, 4, 5, 7, 8, 10))
    assert all(r.d_target is not None for r in result.records)


SUBSETS = ((0,), (1,), (0, 1))
run_settings = settings(max_examples=25, deadline=None)
scheme_weights = st.lists(st.sampled_from([0.0, 1.0, 2.0, 5.0]), min_size=3, max_size=3).filter(any)


def _random_map(weights):
    scheme = BlockSubsetScheme(SUBSETS, tuple(w / sum(weights) for w in weights))
    return counterexample2d(0.25).build_map("fb", scheme)


def _ensemble(m, num_chains, seed):
    return init_ensemble(m, uniform_box_sampler([-2, -2], [2, 2]), num_chains, master_seed=seed)


def _stream_states(e):
    return [rng.bit_generator.state for rng in e.rngs]


@run_settings
@given(scheme_weights, st.integers(1, 9), st.integers(0, 12), st.integers(0, 12),
       st.sampled_from([1, 3, 256]), st.integers(0, 2**32 - 1))
def test_run_in_two_parts_matches_one_run(weights, num_chains, k1, k2, block, seed):
    # a prefetch that overshoots its run would move the streams of the next
    m = _random_map(weights)
    e, e2 = _ensemble(m, num_chains, seed), _ensemble(m, num_chains, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(markov, "DRAW_BLOCK", block)
        run(e, m, k1)
        run(e, m, k2)
        run(e2, m, k1 + k2)
    assert e.states.tobytes() == e2.states.tobytes()
    assert _stream_states(e) == _stream_states(e2)
    assert e.k == e2.k == k1 + k2


@run_settings
@given(scheme_weights, st.integers(1, 9), st.integers(0, 20), st.integers(0, 2**32 - 1))
def test_run_invariant_to_draw_block(weights, num_chains, iterations, seed):
    m = _random_map(weights)
    runs = []
    for block in (1, 3, markov.DRAW_BLOCK):
        e = _ensemble(m, num_chains, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(markov, "DRAW_BLOCK", block)
            result = run(e, m, iterations)
        runs.append((e.states.tobytes(), _stream_states(e),
                     [(r.mean_residual, r.psi_upper) for r in result.records]))
    assert runs[0] == runs[1] == runs[2]


def test_run_raises_diverged_at_first_nonfinite_state():
    m = counterexample2d(0.25).build_map("fb", SINGLETONS, [5.0, 5.0])
    e = init_ensemble(m, uniform_box_sampler([-2, -2], [2, 2]), 50, master_seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error replaces numpy's overflow warnings
        with pytest.raises(Diverged) as info:
            run(e, m, 1000)
    err = info.value
    assert 0 < err.k == e.k < 1000
    finite = np.isfinite(e.states).all(axis=-1)
    assert not finite[err.chain] and finite[: err.chain].all()
    assert f"k={err.k}" in str(err) and f"chain {err.chain}" in str(err)


def test_trajectory_csv_round_trip(tmp_path):
    records = [
        DiagnosticRecord(0, 1.0, 2.0, None, 0.5, np.array([0.1, 0.2])),
        DiagnosticRecord(1, 0.5, 1.0, 0.25, 0.4, np.array([0.05, 0.1])),
    ]
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, records)
    cols = read_trajectory_csv(path)
    np.testing.assert_array_equal(cols["k"], [0, 1])
    np.testing.assert_allclose(cols["mean_residual"], [1.0, 0.5])
    assert np.isnan(cols["dw_step"][0])
    assert cols["dw_step"][1] == pytest.approx(0.25)
    np.testing.assert_allclose(cols["block0_mean"], [0.1, 0.05])
    np.testing.assert_allclose(cols["block1_mean"], [0.2, 0.1])


def test_trajectory_csv_no_timestamp_and_full_precision(tmp_path):
    # byte content must be a pure function of the records
    v = 1.0 / 3.0
    records = [DiagnosticRecord(0, v, v, None, None, np.array([v]))]
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, records)
    text = path.read_text()
    assert format(v, ".17g") in text
    assert "20" not in text.split("\n")[0]  # header carries no dates
    cols = read_trajectory_csv(path)
    assert cols["mean_residual"][0] == v  # exact round trip through 17 digits


def test_snapshot_round_trip(tmp_path):
    states = np.random.default_rng(0).normal(size=(5, 3))
    path = tmp_path / "snap.csv"
    write_snapshot(path, states, k=12, seed=99)
    header, loaded = read_snapshot(path)
    assert header["k"] == 12
    assert header["seed"] == 99
    assert header["n"] == 5
    np.testing.assert_array_equal(loaded, states)


def test_snapshot_detects_corruption(tmp_path):
    states = np.zeros((2, 2))
    path = tmp_path / "snap.csv"
    write_snapshot(path, states, k=0, seed=0)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop one row
    with pytest.raises(DimensionMismatch):
        read_snapshot(path)


def test_samplers():
    rng = np.random.default_rng(0)
    p = point_sampler(np.array([1.0, 2.0]))
    np.testing.assert_array_equal(p(rng), [1.0, 2.0])
    u = uniform_box_sampler([0.0, 10.0], [1.0, 11.0])
    draw = u(rng)
    assert 0.0 <= draw[0] <= 1.0
    assert 10.0 <= draw[1] <= 11.0
