"""Ensemble simulation, diagnostics, and run file formats."""

import csv
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blocksplit import markov
from blocksplit.blockspace import BlockLayout, BlockSubsetScheme, block_probabilities
from blocksplit.errors import Diverged
from blocksplit.markov import (
    empirical_residual_psi,
    init_ensemble,
    point_sampler,
    read_trajectory_csv,
    run,
    sbi_step,
    trajectory_header,
    uniform_box_sampler,
    write_snapshot,
    write_trajectory_csv,
)
from blocksplit.operators import SeparableTerm, coupling_quadratic, h_l1
from blocksplit.problems import counterexample2d
from blocksplit.splitting import SplittingMap, apply_T, apply_full
from blocksplit.transport import (
    DiscreteMeasure,
    distance_to_point_mass,
    read_measure,
    wasserstein2_weighted,
    write_measure,
)

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
    traj = result.trajectory
    assert list(traj) == trajectory_header(2)
    assert traj["k"].tolist() == list(range(21))
    assert sorted(result.snapshots) == [0, 7, 14, 20]
    assert result.snapshots[0].shape == (10, 2)
    # diagnostics decrease toward the fixed point at the origin
    assert traj["mean_residual"][-1] < traj["mean_residual"][0]
    # no target and no dw_step stride: both distance columns are empty
    assert np.isnan(traj["d_target"]).all() and np.isnan(traj["dw_step"]).all()


def test_continued_run_counts_k_from_the_ensemble():
    m = _map()
    e = init_ensemble(m, uniform_box_sampler([-1, -1], [1, 1]), 4, master_seed=3)
    assert sorted(run(e, m, 5, snapshot_every=2).snapshots) == [0, 2, 4, 5]
    second = run(e, m, 5, snapshot_every=2)
    assert second.trajectory["k"].tolist() == list(range(5, 11))
    assert sorted(second.snapshots) == [5, 6, 8, 10]
    assert second.snapshots[10].tobytes() == e.states.tobytes()


def test_run_computes_distance_columns(tmp_path):
    m = _map()
    e = init_ensemble(m, uniform_box_sampler([-1, -1], [1, 1]), 10, master_seed=1)
    result = run(e, m, 10, snapshot_every=1, dw_step_every=3, target=np.zeros(2))
    traj = result.trajectory
    p = block_probabilities(SINGLETONS, m.layout)
    cloud = {k: DiscreteMeasure.empirical(s, m.layout) for k, s in result.snapshots.items()}
    for k in range(11):
        want = distance_to_point_mass(cloud[k], np.zeros(2), p)
        assert traj["d_target"][k] == want
        if k in (3, 6, 9):
            assert traj["dw_step"][k] == wasserstein2_weighted(cloud[k - 1], cloud[k], p)[0]
        else:
            assert np.isnan(traj["dw_step"][k])
    # the returned columns are the written file's, bit for bit
    write_trajectory_csv(tmp_path / "traj.csv", traj)
    cols = read_trajectory_csv(tmp_path / "traj.csv")
    assert list(cols) == list(traj)
    for name in cols:
        assert cols[name].tobytes() == traj[name].tobytes(), name


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
                     result.trajectory["mean_residual"].tobytes(),
                     result.trajectory["psi_upper"].tobytes()))
    assert runs[0] == runs[1] == runs[2]


def _reference_block_means(layout, states):
    # one np.mean per block view: the independent route
    return np.array([np.mean(layout.block(states, j)) for j in range(layout.num_blocks)])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=12),
       st.integers(1, 1500), st.integers(0, 2**32 - 1))
@example([2, 1, 2, 1], 129, 0)
@example([3, 1, 3], 1500, 1)
@example([1], 1, 2)
def test_block_means_match_per_block_mean_bitwise(dims, num_chains, seed):
    # interleaved dims make a dim group's columns non-contiguous; chain counts
    # cross numpy's pairwise-summation thresholds at 8 and 128 values, and
    # N*d stays within the 8192 values where block_means promises equal bits
    layout = BlockLayout(tuple(dims))
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-8, 8, size=layout.total_dim)
    states = rng.normal(size=(num_chains, layout.total_dim)) * scale
    got = layout.block_means(states)
    assert got.tobytes() == _reference_block_means(layout, states).tobytes()


def _mixed_dim_map(seed=0):
    layout = BlockLayout((2, 1, 2, 1))
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(7, 6))
    coupling = coupling_quadratic(layout, A.T @ A / 6, rng.normal(size=6))
    term = SeparableTerm(layout, [h_l1(0.1) for _ in range(4)])
    scheme = BlockSubsetScheme(((0,), (1, 2), (3,), (0, 1, 2, 3)), (0.25, 0.25, 0.25, 0.25))
    return SplittingMap("fb", coupling, term, np.full(4, 0.1), scheme, layout)


def test_run_writes_reference_block_means_bitwise(tmp_path):
    m = _mixed_dim_map()
    e = init_ensemble(m, uniform_box_sampler([-3.0] * 6, [3.0] * 6), 37, master_seed=5)
    result = run(e, m, 12, snapshot_every=1)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, result.trajectory)
    cols = read_trajectory_csv(path)
    for k in range(13):
        want = _reference_block_means(m.layout, result.snapshots[k])
        got = np.array([result.trajectory[f"block{j}_mean"][k] for j in range(4)])
        assert got.tobytes() == want.tobytes()
        written = np.array([cols[f"block{j}_mean"][k] for j in range(4)])
        assert written.tobytes() == want.tobytes()


def _columns(rows, num_blocks):
    """Trajectory columns from (k, mean_residual, psi_upper, dw_step, d_target,
    *block_means) rows; None is a value not computed."""
    table = np.array([[np.nan if v is None else v for v in row] for row in rows],
                     dtype=float).reshape(len(rows), 5 + num_blocks)
    return dict(zip(trajectory_header(num_blocks), table.T))


def test_writers_pinned_bytes(tmp_path):
    third = 1.0 / 3.0
    traj = _columns([(0, third, 2.0, None, None, np.nan, -0.0),
                     (1, 5e-324, np.inf, 0.25, -np.inf, 1e300, -1.5)], 2)
    write_trajectory_csv(tmp_path / "t.csv", traj)
    assert (tmp_path / "t.csv").read_bytes() == (
        b"k,mean_residual,psi_upper,dw_step,d_target,block0_mean,block1_mean\r\n"
        b"0,0.33333333333333331,2,,,nan,-0\r\n"
        b"1,4.9406564584124654e-324,inf,0.25,-inf,1.0000000000000001e+300,-1.5\r\n"
    )
    layout = BlockLayout((1, 1))
    mu = DiscreteMeasure(np.array([[5e-324, -0.0], [third, 2.0]]), np.array([0.25, 0.75]), layout)
    write_measure(tmp_path / "m.csv", mu)
    assert (tmp_path / "m.csv").read_bytes() == (
        b'{"block_dims": [1, 1], "dim": 2, "n": 2, "version": 1}\n'
        b"0.25,4.9406564584124654e-324,-0\r\n"
        b"0.75,0.33333333333333331,2\r\n"
    )
    # DiscreteMeasure refuses an empty support (its weights cannot sum to 1),
    # so the empty body is pinned on an instance built around that check
    empty = object.__new__(DiscreteMeasure)
    empty.support, empty.weights, empty.layout = np.empty((0, 2)), np.empty(0), layout
    write_measure(tmp_path / "m0.csv", empty)
    assert (tmp_path / "m0.csv").read_bytes() == (
        b'{"block_dims": [1, 1], "dim": 2, "n": 0, "version": 1}\n'
    )


def _reference_cell(v):
    if v is None:
        return ""
    if isinstance(v, (int, str)):
        return v
    return format(float(v), ".17g")


def _csv_reference(first_line, rows):
    # the independent route: csv.writer over format(v, ".17g") cells
    buf = io.StringIO()
    w = csv.writer(buf)
    for row in rows:
        w.writerow([_reference_cell(v) for v in row])
    return (first_line + buf.getvalue()).encode()


any_float = st.floats(allow_nan=True, allow_infinity=True, width=64)
finite_float = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.data())
def test_writers_match_csv_writer_reference(tmp_path_factory, width, data):
    tmp = tmp_path_factory.mktemp("w")
    cells = st.lists(any_float, min_size=width, max_size=width)
    rows = data.draw(st.lists(cells, max_size=6))
    optional = st.one_of(st.none(), any_float)
    rows = [(k, data.draw(any_float), data.draw(any_float), data.draw(optional),
             data.draw(optional), *row) for k, row in enumerate(rows)]
    write_trajectory_csv(tmp / "t.csv", _columns(rows, width))
    # a NaN distance is a value not computed: an empty cell
    blank = lambda v: None if v is None or math.isnan(v) else v
    want = _csv_reference("", [trajectory_header(width)] + [
        [k, res, psi, blank(dw), blank(d), *means] for k, res, psi, dw, d, *means in rows
    ])
    assert (tmp / "t.csv").read_bytes() == want

    support = data.draw(st.lists(st.lists(finite_float, min_size=width, max_size=width),
                                 min_size=1, max_size=6))
    raw = np.array(data.draw(st.lists(st.floats(1e-3, 1e3), min_size=len(support),
                                      max_size=len(support))))
    mu = DiscreteMeasure(np.array(support), raw / raw.sum(), BlockLayout((1,) * width))
    write_measure(tmp / "m.csv", mu)
    header = '{"block_dims": %s, "dim": %d, "n": %d, "version": 1}\n' % (
        [1] * width, width, len(support))
    want = _csv_reference(header, [[w, *row] for w, row in zip(mu.weights, support)])
    assert (tmp / "m.csv").read_bytes() == want


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


def test_run_raises_diverged_on_a_non_finite_diagnostic():
    # the states stay finite, but their squared residuals overflow from the start
    m = counterexample2d(0.25).build_map("fb", SINGLETONS, [0.25, 0.25])
    e = init_ensemble(m, point_sampler([1e200, 0.0]), 4, master_seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Diverged, match=r"^run diverged: mean_residual is inf at k=0$") as info:
            run(e, m, 3)
    assert info.value.k == 0 and info.value.chain is None
    assert np.isfinite(e.states).all()


def test_trajectory_csv_round_trip(tmp_path):
    traj = _columns([(0, 1.0, 2.0, None, 0.5, 0.1, 0.2), (1, 0.5, 1.0, 0.25, 0.4, 0.05, 0.1)], 2)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)
    cols = read_trajectory_csv(path)
    np.testing.assert_array_equal(cols["k"], [0, 1])
    np.testing.assert_allclose(cols["mean_residual"], [1.0, 0.5])
    assert np.isnan(cols["dw_step"][0])
    assert cols["dw_step"][1] == pytest.approx(0.25)
    np.testing.assert_allclose(cols["block0_mean"], [0.1, 0.05])
    np.testing.assert_allclose(cols["block1_mean"], [0.2, 0.1])
    # the written columns are the file's, bit for bit
    assert list(traj) == list(cols)
    for name in cols:
        assert traj[name].tobytes() == cols[name].tobytes(), name


def test_trajectory_csv_no_timestamp_and_full_precision(tmp_path):
    # byte content must be a pure function of the columns
    v = 1.0 / 3.0
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, _columns([(0, v, v, None, None, v)], 1))
    text = path.read_text()
    assert format(v, ".17g") in text
    assert "20" not in text.split("\n")[0]  # header carries no dates
    cols = read_trajectory_csv(path)
    assert cols["mean_residual"][0] == v  # exact round trip through 17 digits


def test_snapshot_round_trip(tmp_path):
    # a snapshot is the measure file of the equal-weight cloud
    states = np.random.default_rng(0).normal(size=(5, 3))
    layout = BlockLayout((1, 2))
    path = tmp_path / "snap.csv"
    write_snapshot(path, states, layout)
    mu = read_measure(path)
    assert mu.layout == layout
    assert mu.support.tobytes() == states.tobytes()
    assert mu.weights.tobytes() == np.full(5, 0.2).tobytes()
    write_measure(tmp_path / "m.csv", DiscreteMeasure.empirical(states, layout))
    assert path.read_bytes() == (tmp_path / "m.csv").read_bytes()


def test_snapshot_detects_corruption(tmp_path):
    path = tmp_path / "snap.csv"
    write_snapshot(path, np.zeros((2, 2)), BlockLayout((1, 1)))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop one row
    with pytest.raises(ValueError, match=r"measure body \(1, 2\) does not match header"):
        read_measure(path)


# Every double the %.17g writers can emit, with the edge cases drawn often.
EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                               1.7976931348623157e308, float("inf"), float("-inf"), float("nan")])
ANY_FLOAT = st.floats(width=64) | EDGE_FLOATS
FINITE_FLOAT = st.floats(width=64, allow_nan=False, allow_infinity=False) | EDGE_FLOATS.filter(np.isfinite)


def _cells_by_float(path):
    """The body of a written file (after its header line) parsed cell by cell with
    float(); empty cells are NaN."""
    with open(path, newline="") as fh:
        fh.readline()
        rows = list(csv.reader(fh))
    return [[float(v) if v != "" else np.nan for v in row] for row in rows]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(1, 4), st.data())
def test_readers_parse_bit_for_bit_like_float(tmp_path_factory, n, d, data):
    # each reader parses its body in one numpy call; the values must be
    # the bits float() gives for every cell the writers produce
    tmp = tmp_path_factory.mktemp("readers")
    grid = st.lists(st.lists(ANY_FLOAT, min_size=d, max_size=d), min_size=n, max_size=n)

    states = np.array(data.draw(grid), dtype=float).reshape(n, d)
    optional = st.none() | ANY_FLOAT
    rows = [(k, data.draw(ANY_FLOAT), data.draw(ANY_FLOAT), data.draw(optional),
             data.draw(optional), *row) for k, row in enumerate(states.tolist())]
    write_trajectory_csv(tmp / "traj.csv", _columns(rows, d))
    cols = read_trajectory_csv(tmp / "traj.csv")
    rows = _cells_by_float(tmp / "traj.csv")
    header = trajectory_header(d)
    assert list(cols) == header
    for idx, name in enumerate(header):
        want = np.array([row[idx] for row in rows], dtype=float)
        assert cols[name].tobytes() == want.tobytes()

    if n:
        support = np.array(data.draw(st.lists(st.lists(FINITE_FLOAT, min_size=d, max_size=d),
                                              min_size=n, max_size=n)))
        weights = np.full(n, 1.0 / n)
        write_measure(tmp / "mu.csv", DiscreteMeasure(support, weights, BlockLayout((1,) * d)))
        mu = read_measure(tmp / "mu.csv")
        want = np.array(_cells_by_float(tmp / "mu.csv"), dtype=float)
        assert mu.weights.tobytes() == want[:, 0].tobytes()
        assert mu.support.tobytes() == want[:, 1:].tobytes()


def test_samplers():
    rng = np.random.default_rng(0)
    p = point_sampler(np.array([1.0, 2.0]))
    np.testing.assert_array_equal(p(rng), [1.0, 2.0])
    u = uniform_box_sampler([0.0, 10.0], [1.0, 11.0])
    draw = u(rng)
    assert 0.0 <= draw[0] <= 1.0
    assert 10.0 <= draw[1] <= 11.0
