"""`run` against the exact law of the affine gallery (law_oracle.py)."""

from statistics import NormalDist

import numpy as np
import pytest

from blocksplit.config import BlockSubsetScheme
from blocksplit.markov import init_ensemble, run, uniform_box_sampler
from blocksplit.problems import counterexample2d, feasibility, make_set
from blocksplit.splitting import apply_T
from law_oracle import UniformBoxLaw, law_rate, outcome_matrices

SINGLETONS = BlockSubsetScheme(((0,), (1,)), (0.5, 0.5))
FEAS_TARGET = np.array([2.0 / 3.0, 0.0, 4.0 / 3.0, 0.0])


def _two_points_dr():
    """feas_draws' map: the points (0, 0) and (2, 0), DR at steps 1."""
    prob = feasibility([make_set("point", point=[0.0, 0.0]), make_set("point", point=[2.0, 0.0])])
    return prob.build_map("dr", SINGLETONS, (1.0, 1.0))


@pytest.mark.parametrize("m, z, rate", [
    (counterexample2d(0.2).build_map("fb", SINGLETONS), np.zeros(2), 0.9324315),
    (counterexample2d(0.25).build_map("fb", SINGLETONS), np.zeros(2), 0.9183250),
    (counterexample2d(0.2).build_map("dr", SINGLETONS), np.zeros(2), 0.9727235),
    (_two_points_dr(), FEAS_TARGET, 0.8423513),
], ids=["ce2d_t0.2_fb", "ce2d_t0.25_fb", "ce2d_t0.2_dr", "two_points_dr"])
def test_law_rate_of_the_affine_gallery(m, z, rate):
    # every outcome map is affine around its fixed point z: A_i read at
    # another base point predicts the update there
    v = np.array([0.3, -1.7, 2.9, 0.5])[:z.size]
    for i, a in enumerate(outcome_matrices(m, z)):
        np.testing.assert_allclose(apply_T(m, i, z), z, rtol=0, atol=1e-12)
        np.testing.assert_allclose(apply_T(m, i, z + v), z + a @ v, rtol=0, atol=1e-12)
    assert law_rate(m, z) == pytest.approx(rate, abs=5e-8)


@pytest.mark.parametrize("flavor", ["fb", "dr"])
def test_run_d_target_matches_the_law(flavor):
    # README's problem from its region, N chains.  An N-chain d_target^2 is
    # the mean of N independent squared distances s_k, so it lies within
    # z sqrt(Var(s_k) / N) of the law's E s_k; Var(s_k) is exact (the law's
    # fourth moment).  z is two-sided at a family-wise level of 1e-3 over the
    # 8 checks of both flavors (Bonferroni), under the normal approximation
    # of a mean of N = 5000 terms.
    num_chains, ks = 5000, [0, 50, 100, 200]
    z = NormalDist().inv_cdf(1.0 - 1e-3 / 16)
    prob = counterexample2d(0.2)
    m = prob.build_map(flavor, SINGLETONS)
    law = UniformBoxLaw(m, np.zeros(2), prob.region.lo, prob.region.hi)
    mean, var = law.mean_sq(ks[-1])[ks], np.diag(law.covariance(ks[-1]))[ks]
    ensemble = init_ensemble(m, uniform_box_sampler(prob.region.lo, prob.region.hi), num_chains, 42)
    d = run(ensemble, m, ks[-1], target=np.zeros(2)).trajectory["d_target"][ks]
    assert np.all(np.abs(d ** 2 - mean) <= z * np.sqrt(var / num_chains))
