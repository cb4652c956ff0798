"""Tests for the contrastive-bound laboratory.

Every derived expectation is recomputed by an independent oracle in the
test body: closed forms for entropies, a binomial collision formula for the
identity coupling, and direct enumeration for posteriors.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest

from mocadet import milab as ml
from mocadet.cli import main
from mocadet.errors import ValidationError


# -- oracles ---------------------------------------------------------------


def _transposed(joint):
    """The joint of (V, U)."""
    return ml.DiscreteJoint(joint.table.T.copy())


def _constant_critic(n_u, n_v, value=0.0):
    """A critic that scores every pair alike, so the loss is ln(1 + K)."""
    return ml.Critic(kind="constant", scores=np.full((n_u, n_v), value))


def _exact_posterior_entropy(joint, K):
    """E[H(J | U, V_0..V_K)] by enumerating every u and candidate tuple: the
    irreducible part of the contrastive loss. The posterior of slot j is
    proportional to p(u, v_j) / p(v_j)."""
    nu, nv = joint.shape
    total = 0.0
    for u in range(nu):
        for cands in itertools.product(range(nv), repeat=K + 1):
            # probability of the tuple: sum over the positive's slot j
            slot = np.array([joint.table[u, cands[j]] / (K + 1)
                             * math.prod(joint.pv[cands[m]] for m in range(K + 1) if m != j)
                             for j in range(K + 1)])
            w = slot.sum()
            if w == 0:
                continue
            post = slot / w
            nz = post[post > 0]
            total += w * float(-(nz * np.log(nz)).sum())
    return total


def _looped_candidates(joint, K, rng, n):
    """``sample_candidates`` as a per-row loop: the same rng calls, then each
    row built as negatives before slot j, the positive, negatives after."""
    nu, nv = joint.shape
    flat = rng.choice(nu * nv, size=n, p=joint.table.reshape(-1))
    u, v = np.divmod(flat, nv)
    negs = rng.choice(nv, size=(n, K), p=joint.pv)
    j = rng.integers(0, K + 1, size=n)
    cands = np.empty((n, K + 1), dtype=np.int64)
    for i in range(n):
        cands[i, :j[i]] = negs[i, :j[i]]
        cands[i, j[i]] = v[i]
        cands[i, j[i] + 1:] = negs[i, j[i]:]
    return u, cands, j


def test_joint_validation():
    with pytest.raises(ValidationError):
        ml.DiscreteJoint(np.array([[0.5, 0.6]]))  # sums to 1.1
    with pytest.raises(ValidationError):
        ml.DiscreteJoint(np.array([[-0.1, 1.1]]))
    with pytest.raises(ValidationError):
        ml.DiscreteJoint(np.zeros((0, 2)))


def test_exact_mi_independent_identity_symmetry():
    prod = ml.product_joint([0.3, 0.7], [0.2, 0.5, 0.3])
    assert abs(ml.exact_mi(prod)) < 1e-14

    assert ml.exact_mi(ml.identity_joint(4)) == pytest.approx(math.log(4), abs=1e-14)

    rng = np.random.default_rng(0)
    for _ in range(10):
        j = ml.random_joint(4, 6, rng)
        assert ml.exact_mi(j) == pytest.approx(ml.exact_mi(_transposed(j)), abs=1e-13)
        assert ml.exact_mi(j) >= -1e-14


def test_sample_candidates_counts_and_uniform_slot():
    joint = ml.correlated_joint(4, 0.6, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    u, cands, j = ml.sample_candidates(joint, 1, rng, 1)
    assert u.shape == j.shape == (1,) and cands.shape == (1, 2)
    assert 0 <= j[0] <= 1

    n = 100_000
    K = 3
    u, cands, j = ml.sample_candidates(joint, K, rng, n)
    # slot uniformity: binomial 3-sigma around n/(K+1)
    p = 1.0 / (K + 1)
    sigma = math.sqrt(n * p * (1 - p))
    for slot in range(K + 1):
        assert abs(np.sum(j == slot) - n * p) <= 3 * sigma

    # negatives follow the marginal p(v): 3-sigma per symbol
    mask = np.ones_like(cands, dtype=bool)
    mask[np.arange(n), j] = False
    negs = cands[mask]
    for v in range(joint.shape[1]):
        pv = joint.pv[v]
        s = math.sqrt(len(negs) * pv * (1 - pv))
        assert abs(np.sum(negs == v) - len(negs) * pv) <= 3 * s


def test_sample_candidates_equals_the_per_row_loop():
    joint = ml.random_joint(5, 4, np.random.default_rng(3))
    for K in (1, 2, 7):
        for n in (1, 9, 500):
            for seed in (0, 1, 2):
                got = ml.sample_candidates(joint, K, np.random.default_rng(seed), n)
                want = _looped_candidates(joint, K, np.random.default_rng(seed), n)
                for a, b in zip(got, want):
                    np.testing.assert_array_equal(a, b)


def test_constant_critic_gives_log1pk_exactly():
    joint = ml.random_joint(3, 5, np.random.default_rng(3))
    for K in (1, 4):
        est = ml.infonce_estimate(joint, _constant_critic(3, 5), K, 2000,
                                  np.random.default_rng(4))
        assert est.loss == pytest.approx(math.log(1 + K), abs=1e-12)
        assert est.bound == pytest.approx(0.0, abs=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)


def test_independent_joint_bound_near_zero():
    joint = ml.product_joint([0.4, 0.6], [0.1, 0.2, 0.3, 0.4])
    for critic in (ml.optimal_critic(joint),
                   ml.cosine_critic(2, 4, 8, 0.5, np.random.default_rng(5))):
        est = ml.infonce_estimate(joint, critic, 3, 20_000, np.random.default_rng(6))
        assert est.bound <= 0.0 + 3 * est.stderr + 1e-12


def test_identity_coupling_exact_value_binomial_oracle():
    """Optimal critic on the uniform identity coupling over 4 symbols, K=3.

    Negatives are i.i.d. from the marginal, so they collide with the
    positive symbol X ~ Binom(3, 1/4) times and the irreducible loss is
    E[ln(1+X)]; the bound is ln4 minus that, strictly below MI = ln4.
    """
    joint = ml.identity_joint(4)
    critic = ml.optimal_critic(joint)
    oracle_loss = sum(math.comb(3, k) * 0.25 ** k * 0.75 ** (3 - k) * math.log(1 + k)
                      for k in range(4))
    exact = ml.exact_infonce(joint, critic, 3)
    assert exact == pytest.approx(oracle_loss, abs=1e-12)

    exact_bound = math.log(4) - exact
    assert exact_bound <= ml.exact_mi(joint) + 1e-12

    est = ml.infonce_estimate(joint, critic, 3, 40_000, np.random.default_rng(7))
    assert abs(est.bound - exact_bound) <= 3 * est.stderr
    assert est.bound <= math.log(1 + 3)  # structural cap


def test_exact_bound_never_exceeds_mi_small_supports():
    rng = np.random.default_rng(8)
    for trial in range(8):
        joint = ml.random_joint(int(rng.integers(2, 6)), int(rng.integers(2, 6)), rng)
        mi = ml.exact_mi(joint)
        for critic in (ml.optimal_critic(joint),
                       ml.cosine_critic(*joint.shape, 6, 0.4, rng)):
            for K in (1, 2, 3):
                bound = math.log(1 + K) - ml.exact_infonce(joint, critic, K)
                assert bound <= mi + 1e-9, (trial, critic.kind, K)


def test_optimal_bound_monotone_in_k_exact():
    joint = ml.correlated_joint(5, 0.8, np.random.default_rng(3))
    critic = ml.optimal_critic(joint)
    bounds = [math.log(1 + K) - ml.exact_infonce(joint, critic, K) for K in (1, 2, 3)]
    assert bounds[0] < bounds[1] < bounds[2]
    assert bounds[2] <= min(ml.exact_mi(joint), math.log(4)) + 1e-12


def test_optimal_bound_monotone_in_k_monte_carlo():
    joint = ml.correlated_joint(6, 0.9, np.random.default_rng(9))
    critic = ml.optimal_critic(joint)
    prev = None
    for K in (1, 3, 7, 15):
        est = ml.infonce_estimate(joint, critic, K, 30_000, np.random.default_rng(10 + K))
        if prev is not None:
            slack = 2 * math.sqrt(est.stderr ** 2 + prev.stderr ** 2)
            assert est.bound >= prev.bound - slack
        prev = est
    # grows toward min(MI, ln(1+K))
    mi = ml.exact_mi(joint)
    assert prev.bound <= min(mi, math.log(16)) + 3 * prev.stderr


def test_random_critic_below_optimal():
    joint = ml.correlated_joint(6, 0.9, np.random.default_rng(11))
    opt = ml.infonce_estimate(joint, ml.optimal_critic(joint), 7, 20_000,
                              np.random.default_rng(12))
    cos = ml.infonce_estimate(joint, ml.cosine_critic(6, 6, 8, 0.5, np.random.default_rng(13)),
                              7, 20_000, np.random.default_rng(14))
    assert cos.bound < opt.bound


def test_posterior_identity_for_optimal_critic():
    rng = np.random.default_rng(15)
    for _ in range(5):
        joint = ml.random_joint(int(rng.integers(2, 7)), int(rng.integers(2, 7)), rng)
        gap = ml.posterior_identity_gap(joint, ml.optimal_critic(joint), 2)
        assert gap < 1e-10
        bad = ml.posterior_identity_gap(
            joint, ml.cosine_critic(*joint.shape, 8, 0.5, rng), 2)
        assert bad > 1e-3  # a generic critic does not match the posterior


def test_cross_entropy_decomposition():
    """Exact loss >= E[H(J|U,V_0:K)], equality exactly for the optimal critic."""
    rng = np.random.default_rng(16)
    for _ in range(5):
        joint = ml.random_joint(int(rng.integers(2, 7)), int(rng.integers(2, 7)), rng)
        for K in (1, 2):
            eh = _exact_posterior_entropy(joint, K)
            l_opt = ml.exact_infonce(joint, ml.optimal_critic(joint), K)
            assert l_opt == pytest.approx(eh, abs=1e-10)
            l_cos = ml.exact_infonce(
                joint, ml.cosine_critic(*joint.shape, 8, 0.5, rng), K)
            assert l_cos >= eh - 1e-12
            assert l_cos > eh + 1e-6  # strict for a non-posterior critic


def test_verify_bound_suite_passes():
    report = ml.verify_bound(ml.seeded_joint_suite(6, seed=5), Ks=(1, 3, 7),
                             n_samples=5000, seed=2)
    assert report["passed"], [c for c in report["cells"] if c["violated"]]
    assert report["n_violations"] == 0 and report["n_cells"] == len(report["cells"]) == 36
    assert report["n_exact_cells"] > 0
    assert report["posterior_gap_max"] < 1e-10


def test_cli_report_matches_the_pinned_digest(tmp_path):
    """The sha256 of the report of ``mi-lab --n-joints 4 --K 1,3 --samples 2000
    --seed 0`` was recorded at commit 6600e97, the parent of the change that
    made the estimator's tau, its scalar sampling mode and the certificate's
    slack arguments into constants. A change to the joints, the critics, the
    sampling, the estimators or the report's format moves it."""
    report = tmp_path / "mi.json"
    assert main(["mi-lab", "--n-joints", "4", "--K", "1,3", "--samples", "2000",
                 "--seed", "0", "--report", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "7c4c02a4f20de0cfd10f3cd4cbae6a737bef4fac6673a7976d8f72168d69f214")


def test_cli_mi_lab_flags_an_understated_mi_and_exits_2(capsys, monkeypatch):
    # one 7x7 joint at K = 7, so no exact cell is checked: the Monte-Carlo
    # test alone must flag an MI stated 10 standard errors below the optimal
    # critic's bound, twice the slack it allows
    suite, K = ml.seeded_joint_suite(1, seed=0), 7
    assert suite[0].shape == (7, 7)
    cell = next(c for c in ml.verify_bound(suite, Ks=(K,), n_samples=2000, seed=0)["cells"]
                if c["critic"] == "optimal")
    assert not cell["violated"]
    monkeypatch.setattr(ml, "exact_mi", lambda joint: cell["bound"] - 10 * cell["stderr"])
    assert main(["mi-lab", "--n-joints", "1", "--K", str(K), "--samples", "2000",
                 "--seed", "0"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("mi-lab FAIL: 2 cells (0 exact), 1 bound violations")
    assert f"VIOLATION joint=0 critic=optimal K={K}" in out


def test_verify_bound_flags_an_mi_below_the_exact_bound(monkeypatch):
    # a 3x3 joint at K = 3 is checked by enumeration; an MI stated 1e-8 (ten
    # times the exact tolerance) below the optimal critic's exact bound adds
    # a violated optimal-exact cell
    joint, K = ml.identity_joint(3), 3
    exact = math.log(1 + K) - ml.exact_infonce(joint, ml.optimal_critic(joint), K)
    monkeypatch.setattr(ml, "exact_mi", lambda j: exact - 1e-8)
    report = ml.verify_bound([joint], Ks=(K,), n_samples=2000, seed=0)
    flagged = [c for c in report["cells"] if c["critic"] == "optimal-exact"]
    assert [(c["K"], c["bound"], c["stderr"], c["violated"]) for c in flagged] == \
        [(K, exact, 0.0, True)]
    assert report["n_exact_cells"] == 2 and report["n_violations"] == 1
    assert not report["passed"]


def test_cli_mi_lab_flags_falling_optimal_bounds_and_exits_2(capsys, monkeypatch):
    # every estimate is below the MI, so no cell is violated, but the bound
    # falls by 0.02 from K = 1 to K = 3, seven times the slack of two
    # combined standard errors of 1e-3; the 7x7 joint has no exact cells
    def falling(joint, critic, K, n_samples, rng):
        bound = -0.01 * K
        return ml.NCEEstimate(K, n_samples, math.log(1 + K) - bound, bound, 1e-3)

    monkeypatch.setattr(ml, "infonce_estimate", falling)
    assert main(["mi-lab", "--n-joints", "1", "--K", "1,3", "--samples", "2000",
                 "--seed", "0"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("mi-lab FAIL: 4 cells (0 exact), 0 bound violations")
    assert out.count("NON-MONOTONE") == 1
    assert "NON-MONOTONE joint=0 K 1->3: -0.010000 -> -0.030000" in out
