import itertools
import warnings

import numpy as np
import pytest

from normmatch.matching import accuracy, affinity, decode_matching, sinkhorn_log


def _naive_sinkhorn(C, temperature, iters):
    """Probability-space reference: explicit kernel, alternate row/col division."""
    K = np.exp(C / temperature)
    for _ in range(iters):
        K = K / K.sum(axis=1, keepdims=True)
        K = K / K.sum(axis=0, keepdims=True)
    return K


def _brute_force_assignment(C):
    best, best_score = None, -np.inf
    for perm in itertools.permutations(range(len(C))):
        score = sum(C[i, perm[i]] for i in range(len(C)))
        if score > best_score:
            best, best_score = perm, score
    return np.array(best)


class TestAffinity:
    def test_orthonormal_basis_gives_identity(self):
        eye = np.eye(4)
        np.testing.assert_allclose(affinity(eye, eye), np.eye(4))

    def test_equal_rows_give_one(self):
        v = np.array([[0.6, 0.8]])
        np.testing.assert_allclose(affinity(v, v), [[1.0]])

    def test_antipodal_rows_give_minus_one(self):
        v = np.array([[0.6, 0.8]])
        np.testing.assert_allclose(affinity(v, -v), [[-1.0]])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            affinity(np.ones((2, 3)), np.ones((2, 4)))


class TestSinkhornLog:
    def test_one_by_one_is_one(self):
        plan = sinkhorn_log(np.array([[0.37]]), temperature=0.1, iters=5)
        np.testing.assert_allclose(plan.values, [[1.0]])

    def test_constant_matrix_gives_uniform_plan(self):
        for m in (2, 3, 7):
            plan = sinkhorn_log(np.full((m, m), 0.25), temperature=0.3, iters=3)
            np.testing.assert_allclose(plan.values, np.full((m, m), 1.0 / m), atol=1e-12)

    def test_two_by_two_sharpens_to_diagonal(self):
        C = np.array([[1.0, -1.0], [-1.0, 1.0]])
        plan = sinkhorn_log(C, temperature=0.1, iters=50)
        assert plan.values[0, 0] > 0.999
        assert plan.values[1, 1] > 0.999
        naive = _naive_sinkhorn(C, 0.1, 50)
        np.testing.assert_allclose(plan.values, naive, atol=1e-8)

    @pytest.mark.parametrize("temperature", [1.0, 0.3, 0.05])
    def test_matches_naive_space_oracle(self, temperature):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(2, 9))
            C = rng.uniform(-1.0, 1.0, size=(m, m))
            plan = sinkhorn_log(C, temperature, iters=20)
            naive = _naive_sinkhorn(C, temperature, 20)
            assert np.max(np.abs(plan.values - naive)) < 1e-8

    def test_marginals_converge_at_moderate_temperature(self):
        # 30 rounds at temperature 0.5 brings both marginals within 1e-4
        for seed in range(10):
            rng = np.random.default_rng(700 + seed)
            m = int(rng.integers(2, 17))
            C = rng.uniform(-1.0, 1.0, size=(m, m))
            plan = sinkhorn_log(C, temperature=0.5, iters=30)
            assert plan.max_marginal_error < 1e-4, f"seed {seed}: {plan.max_marginal_error}"

    def test_recorded_marginal_error_is_authoritative(self):
        rng = np.random.default_rng(3)
        C = rng.uniform(-1.0, 1.0, size=(6, 6))
        plan = sinkhorn_log(C, temperature=0.2, iters=7)
        rows = np.abs(plan.values.sum(axis=1) - 1.0).max()
        cols = np.abs(plan.values.sum(axis=0) - 1.0).max()
        np.testing.assert_allclose(max(rows, cols), plan.max_marginal_error, atol=1e-12)
        assert plan.iterations_used == 7

    def test_row_constant_shift_absorbed(self):
        rng = np.random.default_rng(4)
        C = rng.uniform(-1.0, 1.0, size=(5, 5))
        shifted = C + rng.uniform(-2.0, 2.0, size=(5, 1))
        a = sinkhorn_log(C, temperature=0.2, iters=15)
        b = sinkhorn_log(shifted, temperature=0.2, iters=15)
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        m = 6
        C = rng.uniform(-1.0, 1.0, size=(m, m))
        rp, cp = rng.permutation(m), rng.permutation(m)
        plan = sinkhorn_log(C, 0.2, 12).values
        permuted = sinkhorn_log(C[rp][:, cp], 0.2, 12).values
        np.testing.assert_allclose(permuted, plan[rp][:, cp], atol=1e-12)

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError, match="square"):
            sinkhorn_log(np.ones((2, 3)), 0.1, 5)

    def test_non_finite_rejected(self):
        C = np.array([[0.0, np.inf], [0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            sinkhorn_log(C, 0.1, 5)

    def test_bad_temperature_and_iters_rejected(self):
        C = np.zeros((2, 2))
        for temperature in (0.0, np.nan):
            with pytest.raises(ValueError, match="temperature"):
                sinkhorn_log(C, temperature, 5)
        with pytest.raises(ValueError, match="iters"):
            sinkhorn_log(C, 0.1, 0)

    def test_extreme_affinities_stay_finite(self):
        # log-space formulation must not overflow where naive exp would
        C = np.array([[400.0, -400.0], [-400.0, 400.0]])
        plan = sinkhorn_log(C, temperature=0.05, iters=10)
        assert np.all(np.isfinite(plan.values))
        np.testing.assert_allclose(plan.values[0, 0], 1.0, atol=1e-9)


class TestDecodeMatching:
    def test_dominant_diagonal(self):
        plan = np.array([[0.9, 0.1], [0.1, 0.9]])
        match = decode_matching(plan)
        np.testing.assert_array_equal(match.assignment, [0, 1])
        assert match.injective

    def test_uniform_ties_resolve_to_lowest_column(self):
        match = decode_matching(np.full((3, 3), 1.0 / 3.0))
        np.testing.assert_array_equal(match.assignment, [0, 0, 0])
        assert not match.injective

    def test_accepts_transport_plan(self):
        plan = sinkhorn_log(np.eye(3) * 2.0, temperature=0.1, iters=20)
        match = decode_matching(plan)
        np.testing.assert_array_equal(match.assignment, [0, 1, 2])
        assert match.injective

    def test_agrees_with_linear_assignment_under_margin(self):
        # when one permutation dominates every row by a clear margin, the
        # sharp-temperature plan decodes to the brute-force optimum
        for seed in range(20):
            rng = np.random.default_rng(900 + seed)
            m = int(rng.integers(2, 8))
            truth = rng.permutation(m)
            C = rng.uniform(-1.0, 0.5, size=(m, m))
            C[np.arange(m), truth] = rng.uniform(0.7, 1.0, size=m)
            plan = sinkhorn_log(C, temperature=0.05, iters=30)
            match = decode_matching(plan)
            expected = _brute_force_assignment(C)
            np.testing.assert_array_equal(match.assignment, expected, f"seed {seed}")
            assert match.injective


class TestAccuracy:
    def test_exact_match(self):
        assert accuracy(np.array([0, 1, 2]), np.array([0, 1, 2])) == 1.0

    def test_total_mismatch(self):
        assert accuracy(np.array([1, 0]), np.array([0, 1])) == 0.0

    def test_partial(self):
        assert accuracy(np.array([0, 1, 3, 2]), np.array([0, 1, 2, 3])) == 0.5

    def test_accepts_matching(self):
        match = decode_matching(np.eye(4))
        assert accuracy(match, np.arange(4)) == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            accuracy(np.array([0, 1]), np.array([0, 1, 2]))


@pytest.mark.parametrize("fn, args, name", [
    (sinkhorn_log, (np.eye(3), 0.1, 2.5), "iters"),
    (sinkhorn_log, (np.zeros((0, 0)), 0.1, 5), "C"),
    (decode_matching, (np.zeros((0, 0)),), "plan"),
    (accuracy, (np.array([], np.intp), np.array([], np.intp)), "truth"),
    (affinity, (np.ones(3), np.ones(3)), "f1"),
], ids=["fractional iters", "empty affinity", "empty plan", "empty accuracy", "1-D rows"])
def test_bad_input_fails_where_it_enters(fn, args, name):
    """A ValueError naming the argument, raised by the entry function itself
    rather than by numpy (or as a NaN with warnings) further in."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"\b{name}\b") as info:
            fn(*args)
    assert info.traceback[-1].name == fn.__name__
