"""Certification sweeps: pointwise, in expectation, paracontraction, identities."""

import inspect
import tracemalloc

import numpy as np
import pytest

from blocksplit.blockspace import weighted_norm, weighted_sq
from blocksplit import markov
from blocksplit.config import BlockSubsetScheme, CertifySection, RateSection, RunSection
from blocksplit.errors import BlocksplitError, DimensionMismatch, InvalidFixedPoints
from blocksplit.problems import counterexample2d, feasibility, make_set, quadratic_l1
from blocksplit.rates import check_asymptotic_regularity, check_fejer
from blocksplit.regularity import (
    Region,
    certify_aafne_in_expectation,
    certify_paracontraction_in_expectation,
    certify_pointwise_aafne,
    verify_expectation_identities,
)
from blocksplit.splitting import (
    apply_T,
    apply_full,
    expected_weighted_terms,
    transport_discrepancy,
)

SINGLETONS = BlockSubsetScheme(((0,), (1,)), (0.5, 0.5))


# Each library function whose defaults a config section repeats, with that
# section and its field of each defaulted parameter (None: every defaulted
# parameter, under its own name).  check_gauge_monotone's tol_rel of 1e-9
# has no field: the rate command fixes its own 1e-3.
DEFAULT_PAIRS = [
    *((certifier, CertifySection, None) for certifier in (
        certify_pointwise_aafne, certify_aafne_in_expectation,
        certify_paracontraction_in_expectation, verify_expectation_identities)),
    (check_fejer, RateSection, {"tol_rel": "fejer_tol_rel"}),
    (check_asymptotic_regularity, RateSection, {"tail_tol": "tail_tol"}),
    (markov.run, RunSection, {"snapshot_every": "snapshot_every", "dw_step_every": "dw_step_every"}),
]


@pytest.mark.parametrize("function, section, pairs", DEFAULT_PAIRS,
                         ids=[function.__name__ for function, _, _ in DEFAULT_PAIRS])
def test_certifier_defaults_are_the_config_defaults(function, section, pairs):
    # a library call with defaults checks what the command checks
    # a section's fields are those its ``_fields`` names, defaulted by its constructor
    fields_ = {name: p.default for name, p in inspect.signature(section).parameters.items()
               if name in section._fields}
    defaults = {name: p.default for name, p in inspect.signature(function).parameters.items()
                if p.default is not p.empty}
    pairs = pairs or {name: name for name in defaults}
    assert pairs and {name: defaults[name] for name in pairs} == {
        name: fields_[field] for name, field in pairs.items()}


def test_region_validation_and_sampling():
    r = Region(np.array([-1.0, 2.0]), np.array([1.0, 2.0]))
    assert r.dim == 2
    xs = r.sample(np.random.default_rng(0), 100)
    assert np.all(xs[:, 0] >= -1.0) and np.all(xs[:, 0] <= 1.0)
    # degenerate coordinate is pinned: the affine restriction to a line
    np.testing.assert_array_equal(xs[:, 1], np.full(100, 2.0))
    with pytest.raises(ValueError):
        Region(np.array([1.0]), np.array([0.0]))


def test_pointwise_scaling_map_passes_at_half():
    # T = x/2 is firmly nonexpansive: passes alpha = 1/2 with no violation
    region = Region(np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
    report = certify_pointwise_aafne(
        lambda x: 0.5 * x, region, alpha=0.5, violation=0.0, num_pairs=500, seed=0
    )
    assert report.passed
    assert report.margin <= 1e-10


def test_pointwise_scaling_map_fails_below_half():
    # at alpha = 0.2 the transport weight overshoots: margin = 0.25 ||x-y||^2
    region = Region(np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
    report = certify_pointwise_aafne(
        lambda x: 0.5 * x, region, alpha=0.2, violation=0.0, num_pairs=500, seed=0
    )
    assert not report.passed
    # adversarial refinement drives the witness pair toward opposite corners
    assert report.margin == pytest.approx(0.25 * 200.0, rel=1e-6)


def test_pointwise_identity_passes_any_alpha():
    region = Region(np.array([-1.0]), np.array([1.0]))
    for alpha in (0.1, 0.5, 0.9):
        report = certify_pointwise_aafne(
            lambda x: x, region, alpha=alpha, violation=0.0, num_pairs=100, seed=1
        )
        assert report.passed


def test_pointwise_witness_replays():
    m = counterexample2d(0.25).build_map("fb", SINGLETONS)
    region = Region(np.array([-10.0, -10.0]), np.array([10.0, 10.0]))
    T = lambda x: apply_T(m, 0, x)
    report = certify_pointwise_aafne(T, region, 0.5, 0.0, 200, seed=2)
    assert not report.passed
    x, y = report.witness_x, report.witness_y
    Tx, Ty = T(x), T(y)

    def sq(a):
        return float(np.sum(a * a))

    replayed = sq(Tx - Ty) - sq(x - y) + 1.0 * transport_discrepancy(x, y, Tx, Ty)
    assert replayed == pytest.approx(report.margin, rel=1e-12)


def test_pointwise_violation_loosens_the_test():
    # a 2x expansion fails with violation 0 but passes with violation 3.1
    # at alpha close to 1 (transport term negligible): ||2x-2y||^2 = 4 d
    region = Region(np.array([-1.0]), np.array([1.0]))
    fail = certify_pointwise_aafne(lambda x: 2.0 * x, region, 0.999, 0.0, 200, seed=3)
    assert not fail.passed
    # psi for T = 2x: ||(x-2x)-(y-2y)||^2 = d, so margin = 4d - (1+eps)d + w d
    ok = certify_pointwise_aafne(lambda x: 2.0 * x, region, 0.999, 3.1, 200, seed=3)
    assert ok.passed


def test_expectation_certificate_counterexample():
    # blockwise updates certify (2/3, 0) in the weighted expectation sense
    # even though each individual block map fails pointwise
    m = counterexample2d(0.25).build_map("fb", SINGLETONS)
    region = Region(np.array([-10.0, -10.0]), np.array([10.0, 10.0]))
    report = certify_aafne_in_expectation(m, region, 2.0 / 3.0, 0.0, 1000, seed=4, adversarial=False)
    assert report.passed
    assert report.margin <= 1e-10


def test_expectation_certificate_detects_wrong_alpha():
    # alpha far below the true constant inflates the transport weight
    m = counterexample2d(0.45).build_map("fb", SINGLETONS)
    region = Region(np.array([-10.0, -10.0]), np.array([10.0, 10.0]))
    report = certify_aafne_in_expectation(
        m, region, 0.05, 0.0, 1000, seed=5, adversarial=True
    )
    assert not report.passed


def test_paracontraction_counterexample():
    m = counterexample2d(0.25).build_map("fb", SINGLETONS)
    region = Region(np.array([-10.0, -10.0]), np.array([10.0, 10.0]))
    report = certify_paracontraction_in_expectation(
        m, np.array([0.0, 0.0]), region, 2000, seed=6
    )
    assert report.passed
    assert report.margin < 0.0
    assert report.details["num_eligible"] > 0


def test_a_sweep_without_a_finite_margin_names_the_sample():
    # squared distances of +-1e200 coordinates overflow: no sample has a verdict
    m = counterexample2d(0.25).build_map("fb", SINGLETONS)
    far = Region(np.array([-1e200, -1e200]), np.array([1e200, 1e200]))
    for certify, what in (
        (lambda: certify_pointwise_aafne(lambda x: 2.0 * x, far, 0.5, 0.0, 50, seed=3,
                                         adversarial=False), "pointwise_aafne: the margin"),
        (lambda: certify_aafne_in_expectation(m, far, 0.5, 0.0, 50, seed=3),
         "aafne_in_expectation: the margin"),
        (lambda: verify_expectation_identities(m, far, 50, seed=3), "expectation_identities: the margin"),
        (lambda: certify_paracontraction_in_expectation(m, np.zeros(2), far, 50, seed=3),
         "paracontraction_in_expectation: the residual"),
    ):
        with pytest.raises(BlocksplitError, match=f"^certify {what} of sample 0 is (nan|inf)$"):
            certify()
    # every sampled margin is finite, but the search walks T = 2x into an overflow
    wide = Region(np.array([-3e153, -3e153]), np.array([3e153, 3e153]))
    with pytest.raises(BlocksplitError, match=r"^certify pointwise_aafne: the margin of the pair "
                                              r"refined from sample \d+ is inf$"):
        certify_pointwise_aafne(lambda x: 2.0 * x, wide, 0.5, 0.0, 5, seed=0)


def test_paracontraction_rejects_moving_points():
    m = counterexample2d(0.25).build_map("fb", SINGLETONS)
    region = Region(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    with pytest.raises(InvalidFixedPoints):
        certify_paracontraction_in_expectation(
            m, np.array([1.0, 1.0]), region, 100, seed=7
        )


def test_paracontraction_takes_one_point():
    m = counterexample2d(0.25).build_map("fb", SINGLETONS)
    region = Region(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    with pytest.raises(DimensionMismatch, match=r"expected one point of shape \(2,\), got \(1, 2\)"):
        certify_paracontraction_in_expectation(m, np.zeros((1, 2)), region, 100, seed=7)


def test_expectation_identities_hold():
    for t in (0.1, 0.25, 0.45):
        m = counterexample2d(t).build_map("fb", SINGLETONS)
        region = Region(np.array([-10.0, -10.0]), np.array([10.0, 10.0]))
        report = verify_expectation_identities(m, region, 500, seed=8)
        assert report.passed
        assert report.margin <= 1e-9


def test_expectation_identities_uneven_scheme():
    scheme = BlockSubsetScheme(((0,), (1,), (0, 1)), (0.25, 0.35, 0.4))
    m = counterexample2d(0.2).build_map("fb", scheme)
    region = Region(np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
    report = verify_expectation_identities(m, region, 500, seed=9)
    assert report.passed


OVERLAP2 = BlockSubsetScheme(((0,), (1,), (0, 1)), (0.3, 0.3, 0.4))


def _lasso():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(6, 4))
    return quadratic_l1(A.T @ A / 6, -A.T @ rng.normal(size=6), np.full(4, 0.1))


@pytest.mark.parametrize(
    "problem, flavor, scheme",
    [
        (counterexample2d(0.25), "fb", OVERLAP2),
        (counterexample2d(0.25), "dr", OVERLAP2),
        (feasibility([make_set("ball", center=[0.0, 0.0], radius=1.0),
                      make_set("box", lo=[0.5, -3.0], hi=[3.0, 3.0])]), "dr", OVERLAP2),
        (feasibility([make_set("ball", center=[0.0, 0.0], radius=1.0),
                      make_set("box", lo=[0.5, -3.0], hi=[3.0, 3.0])]), "fb", SINGLETONS),
        (_lasso(), "fb", BlockSubsetScheme(((0, 1), (1, 2, 3), (3,), (0, 1, 2, 3)),
                                           (0.25, 0.25, 0.2, 0.3))),
    ],
)
def test_masked_route_matches_per_outcome_sums_bitwise(problem, flavor, scheme):
    # the expectation certifier reads the closed form over one T1 of the
    # stacked pair batch; summing each outcome's own apply_T on x and on y
    # agrees with it to roundoff
    m = problem.build_map(flavor, scheme)
    p = m.probabilities
    region = problem.region
    rng = np.random.default_rng(12)
    x, y = region.sample(rng, 40), region.sample(rng, 40)
    sq = psi = 0.0
    for i, q in enumerate(m.scheme.probs):
        Tx, Ty = apply_T(m, i, x), apply_T(m, i, y)
        sq = sq + q * weighted_sq(Tx - Ty, p)
        psi = psi + q * weighted_sq((x - Tx) - (y - Ty), p)
    closed_sq, closed_psi = expected_weighted_terms(m, x, y)
    assert np.all(np.abs(closed_sq - sq) <= 1e-12 * np.maximum(1.0, np.abs(sq)))
    assert np.all(np.abs(closed_psi - psi) <= 1e-12 * np.maximum(1.0, np.abs(psi)))

    # paracontraction keeps the masked route, so it stays bitwise: replay
    # the certifier's samples, run each outcome map on the whole batch (as
    # the certifier runs T1 once on it), keep the eligible rows and take the
    # worst margin over per-outcome sums
    seed, n = 13, 300
    z = problem.target_point
    report = certify_paracontraction_in_expectation(m, z, region, n, seed)
    xs = region.sample(np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2,))), n)
    keep = np.linalg.norm(xs - apply_full(m, xs), axis=-1) > 1e-8
    expected = 0.0
    for i, q in enumerate(m.scheme.probs):
        expected = expected + q * weighted_norm(apply_T(m, i, xs)[keep] - z, p)
    worst = float(np.max(expected - weighted_norm(xs[keep] - z, p)))
    assert report.details["num_eligible"] == np.count_nonzero(keep) > 0
    assert np.float64(report.margin).tobytes() == np.float64(worst).tobytes()


@pytest.mark.parametrize("adversarial", [False, True])
def test_expectation_certifier_takes_one_full_map_per_margin_batch(monkeypatch, adversarial):
    # the closed form reads T1 of the stacked (x; y) batch once, whatever
    # the number of outcomes, and never runs an outcome map
    from blocksplit import regularity, splitting

    scheme = BlockSubsetScheme(((0, 1), (1, 2, 3), (3,), (0, 1, 2, 3)), (0.25, 0.25, 0.2, 0.3))
    problem = _lasso()
    m = problem.build_map("fb", scheme)
    calls = {"apply_full": 0, "batches": 0}
    full, terms = splitting.apply_full, regularity.expected_weighted_terms

    def counted_full(*args):
        calls["apply_full"] += 1
        return full(*args)

    def counted_terms(*args):
        calls["batches"] += 1
        return terms(*args)

    def refuse(*args):
        raise AssertionError("apply_T called")

    monkeypatch.setattr(splitting, "apply_full", counted_full)
    monkeypatch.setattr(splitting, "apply_T", refuse)
    monkeypatch.setattr(regularity, "apply_T", refuse)
    monkeypatch.setattr(regularity, "expected_weighted_terms", counted_terms)
    monkeypatch.setattr(regularity, "REFINE_STEPS", 3)
    report = certify_aafne_in_expectation(m, problem.region, 2.0 / 3.0, 0.0, 200, seed=14,
                                          adversarial=adversarial)
    assert report.passed
    assert calls["apply_full"] == calls["batches"]
    assert calls["batches"] > 1 if adversarial else calls["batches"] == 1


def _quadratic50():
    # a dim-50 lasso-type map: its gradient is one BLAS product per batch,
    # which rounds a row differently in small batches; b = 0 fixes the origin
    rng = np.random.default_rng(31)
    A = rng.normal(size=(25, 50))
    problem = quadratic_l1(A.T @ A / 25, np.zeros(50), np.full(50, 0.15))
    scheme = BlockSubsetScheme(tuple((j,) for j in range(50)), (0.02,) * 50)
    return problem, problem.build_map("fb", scheme), np.zeros(50)


def test_chunks_are_balanced_and_never_below_the_row_floor():
    from blocksplit.regularity import CHUNK_MIN_ROWS, _by_chunks

    def sizes(n, dim):
        seen = []
        out = _by_chunks(lambda x, y: (seen.append(len(x)) or x[:, 0], y[:, 0]),
                         np.arange(n * dim, dtype=float).reshape(n, dim), np.zeros((n, dim)))
        assert np.array_equal(out[0], np.arange(n) * dim)
        return seen

    assert CHUNK_MIN_ROWS == 256
    assert sizes(1001, 50) == [334, 334, 333]  # 8192 // 50 = 163 rows: the floor holds
    assert sizes(9001, 2) == [4501, 4500]  # 8192 // 2 = 4096 rows
    assert sizes(8191, 2) == [8191]  # less than two chunks: one call
    assert sizes(20_000, 4) == [2223] * 2 + [2222] * 7  # 2048 rows, 9 chunks


CERTIFIERS = {
    "pointwise_full": lambda prob, m, c, n: certify_pointwise_aafne(
        lambda x: apply_full(m, x), prob.region, 2.0 / 3.0, 0.0, n, seed=41, adversarial=False),
    "pointwise_subset": lambda prob, m, c, n: certify_pointwise_aafne(
        lambda x: apply_T(m, 1, x), prob.region, 0.5, 0.1, n, seed=42, adversarial=False),
    "aafne_in_expectation": lambda prob, m, c, n: certify_aafne_in_expectation(
        m, prob.region, 2.0 / 3.0, 0.0, n, seed=43, adversarial=False),
    "paracontraction": lambda prob, m, c, n: certify_paracontraction_in_expectation(
        m, c, prob.region, n, seed=44),
    "identities": lambda prob, m, c, n: verify_expectation_identities(m, prob.region, n, seed=45),
}


@pytest.mark.parametrize("certifier", sorted(CERTIFIERS))
@pytest.mark.parametrize("case", ["quadratic50", "counterexample2d"])
def test_chunked_certifiers_match_one_whole_batch_evaluation(monkeypatch, certifier, case):
    # chunking bounds a sweep's working set; the sampled pairs, the margin,
    # the witnesses and the deviation are those of one whole-batch call
    from blocksplit import regularity

    if case == "quadratic50":
        problem, m, c_points = _quadratic50()
        n, chunks = 1001, 3  # of 333 or 334 pairs
    else:
        problem = counterexample2d(0.25)
        m, c_points = problem.build_map("fb", OVERLAP2), problem.target_point
        n, chunks = 9001, 2  # of 4500 or 4501 pairs
    calls = []
    by_chunks = regularity._by_chunks

    def counted(fn, *arrays):
        calls.append(len(arrays[0]))
        return by_chunks(lambda *chunk: (calls.append(len(chunk[0])), fn(*chunk))[1], *arrays)

    monkeypatch.setattr(regularity, "_by_chunks", counted)
    chunked = CERTIFIERS[certifier](problem, m, c_points, n)
    assert calls[0] == n and len(calls) == 1 + chunks  # the whole sample, then its chunks
    monkeypatch.setattr(regularity, "CHUNK_VALUES", 10**12)
    whole = CERTIFIERS[certifier](problem, m, c_points, n)
    assert calls[1 + chunks:] == [n, n]  # one call, on the whole sample
    assert np.float64(chunked.margin).tobytes() == np.float64(whole.margin).tobytes()
    assert chunked.witness_x.tobytes() == whole.witness_x.tobytes()
    assert chunked.witness_y.tobytes() == whole.witness_y.tobytes()
    assert chunked.details == whole.details and chunked.passed == whole.passed


def test_certify_working_set_is_its_samples_and_one_chunk():
    # 20,000 pairs in 50 dimensions: two 8 MB sample arrays, evaluated
    # 256-pair chunk by chunk, not all at once (9 times the samples)
    problem, m, _ = _quadratic50()
    certify_aafne_in_expectation(m, problem.region, 2.0 / 3.0, 0.0, 300, seed=46, adversarial=False)
    tracemalloc.start()
    try:
        report = certify_aafne_in_expectation(m, problem.region, 2.0 / 3.0, 0.0, 20_000, seed=46,
                                              adversarial=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.num_samples == 20_000
    samples = 2 * 20_000 * 50 * 8
    assert peak <= 1.25 * samples + 2 * 2**20
