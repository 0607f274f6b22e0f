import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gesturemetrics.errors import InsufficientDataError, StructuralError
from gesturemetrics.fgd import fgd, frechet_distance, stats_from_features
from gesturemetrics.gmm import GmmModel, fit, posterior_matrix
from gesturemetrics.model import N_JOINTS, GestureDataset
from gesturemetrics.synth import beat_gesture_corpus


def two_pass_stats(features):
    """Naive reference: explicit mean pass, then explicit covariance pass."""
    n, d = features.shape
    mean = np.array([sum(features[:, j]) / n for j in range(d)])
    cov = np.zeros((d, d))
    for row in features:
        diff = row - mean
        cov += np.outer(diff, diff)
    return mean, cov / (n - 1)


def toy_model(separation=8.0):
    means = np.zeros((2, N_JOINTS))
    means[0, 0] = -separation / 2
    means[1, 0] = separation / 2
    return GmmModel(weights=np.array([0.5, 0.5]), means=means,
                    covariance=np.eye(N_JOINTS), mu=1, dt=0.25)


def gauss_stats(mean, cov):
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    return mean, cov


class TestStatsFromFeatures:
    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(40, 6))
        mean, cov = stats_from_features(feats)
        want_mean, want_cov = two_pass_stats(feats)
        assert np.allclose(mean, want_mean, atol=1e-12)
        assert np.allclose(cov, want_cov, atol=1e-12)

    def test_covariance_is_unbiased(self):
        feats = np.array([[0.0], [2.0]])
        _, cov = stats_from_features(feats)
        assert cov[0, 0] == pytest.approx(2.0)  # n-1 denominator

    def test_array_argument_left_unchanged(self):
        feats = np.random.default_rng(5).normal(size=(30, 4)) + 3.0
        before = feats.copy()
        mean, cov = stats_from_features(feats)
        assert np.array_equal(feats, before)
        want_mean, want_cov = reference_stats(before)
        assert np.array_equal(mean, want_mean) and np.array_equal(cov, want_cov)

    def test_nested_list_accepted(self):
        rows = [[0.0, 1.0], [2.0, 5.0], [4.0, 3.0]]
        mean, cov = stats_from_features(rows)
        want_mean, want_cov = reference_stats(np.array(rows))
        assert np.array_equal(mean, want_mean) and np.array_equal(cov, want_cov)
        assert rows == [[0.0, 1.0], [2.0, 5.0], [4.0, 3.0]]

    def test_single_row_rejected(self):
        with pytest.raises(InsufficientDataError):
            stats_from_features(np.ones((1, 3)))

    def test_model_features_live_on_simplex(self):
        rng = np.random.default_rng(1)
        model = toy_model()
        ds = GestureDataset(matrix=rng.normal(size=(30, N_JOINTS)), dt=0.25)
        mean, _ = stats_from_features(posterior_matrix(model, ds))
        assert mean.shape == (2,)
        assert mean.sum() == pytest.approx(1.0, abs=1e-10)


def reference_stats(features):
    """``stats_from_features`` as first written: a centred copy, then its Gram matrix."""
    mean = features.mean(axis=0)
    centered = features - mean
    cov = centered.T @ centered / (features.shape[0] - 1)
    return mean, (cov + cov.T) / 2.0


def reference_fgd(model, ds_a, ds_b, bootstrap, seed):
    """``fgd`` with its bootstrap as first written: each draw gathers fresh copies
    of the resampled rows by fancy indexing, then takes their statistics."""
    feats_a, feats_b = posterior_matrix(model, ds_a), posterior_matrix(model, ds_b)
    value = frechet_distance(reference_stats(feats_a), reference_stats(feats_b))
    rng = np.random.Generator(np.random.Philox(seed))
    draws = []
    for _ in range(bootstrap):
        idx_a = rng.integers(feats_a.shape[0], size=feats_a.shape[0])
        idx_b = rng.integers(feats_b.shape[0], size=feats_b.shape[0])
        draws.append(frechet_distance(reference_stats(feats_a[idx_a]),
                                      reference_stats(feats_b[idx_b])))
    draws = np.asarray(draws)
    return {"value": value, "bootstrap_mean": float(draws.mean()),
            "bootstrap_std": float(draws.std(ddof=1)) if bootstrap > 1 else 0.0}


class TestFrechetClosedForms:
    def test_scalar_gaussians(self):
        # 1-D closed form: (m1-m2)^2 + (s1-s2)^2
        rng = np.random.default_rng(2)
        for _ in range(50):
            m1, m2 = rng.normal(size=2)
            s1, s2 = rng.uniform(0.1, 3.0, size=2)
            got = frechet_distance(gauss_stats([m1], [[s1 ** 2]]),
                                   gauss_stats([m2], [[s2 ** 2]]))
            want = (m1 - m2) ** 2 + (s1 - s2) ** 2
            assert got == pytest.approx(want, abs=1e-10)

    def test_diagonal_gaussians(self):
        # diagonal case decouples per dimension; zero variances make the
        # covariances singular, where the closed form is exact too
        rng = np.random.default_rng(3)
        d = 5
        for _ in range(200):
            m1, m2 = rng.normal(size=(2, d))
            v1, v2 = rng.uniform(0.1, 2.0, size=(2, d)) * (rng.random(size=(2, d)) < 0.6)
            got = frechet_distance(gauss_stats(m1, np.diag(v1)),
                                   gauss_stats(m2, np.diag(v2)))
            want = np.sum((m1 - m2) ** 2) + np.sum((np.sqrt(v1) - np.sqrt(v2)) ** 2)
            assert got == pytest.approx(want, abs=1e-10)

    def test_empty_component_matches_sandwich_route(self):
        # no unit of the first dataset comes near the third component, so its
        # posterior column is exactly 0 there: the first covariance is singular
        # in a direction where the second is not, which a jitter would bias
        means = np.zeros((3, N_JOINTS))
        means[:2, 0] = (-2.0, 2.0)
        means[2, 1] = 100.0
        model = GmmModel(weights=np.full(3, 1.0 / 3.0), means=means,
                         covariance=np.eye(N_JOINTS), mu=1, dt=0.25)
        units = np.random.default_rng(14).normal(size=(160, N_JOINTS))
        units[:80, 0] -= 2.0
        units[80:, 0] += 2.0
        units[140:, 1] += 100.0
        feats = [posterior_matrix(model, GestureDataset(matrix=m, dt=0.25))
                 for m in (units[:80], units[80:])]
        assert not np.any(feats[0][:, 2]) and np.all(feats[1][140 - 80:, 2] > 0.5)
        (mean_a, cov_a), (mean_b, cov_b) = (stats_from_features(f) for f in feats)

        def root(mat):
            evals, evecs = np.linalg.eigh(mat)
            return (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T

        # Tr((S_b^1/2 S_a S_b^1/2)^1/2): the sandwich route, not the nuclear norm
        sandwich = np.linalg.eigvalsh(root(cov_b) @ cov_a @ root(cov_b))
        want = (np.sum((mean_a - mean_b) ** 2) + np.trace(cov_a) + np.trace(cov_b)
                - 2.0 * np.sum(np.sqrt(np.clip(sandwich, 0.0, None))))
        got = frechet_distance((mean_a, cov_a), (mean_b, cov_b))
        assert got == pytest.approx(want, rel=1e-7)

    def test_identical_gaussians_zero(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=4)
        a = rng.normal(size=(4, 4))
        cov = a @ a.T + 0.1 * np.eye(4)
        assert frechet_distance(gauss_stats(m, cov),
                                gauss_stats(m.copy(), cov.copy())) == 0.0

    def test_mean_term_lower_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m1, m2 = rng.normal(size=(2, 3))
            a = rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3))
            got = frechet_distance(gauss_stats(m1, a @ a.T + 0.1 * np.eye(3)),
                                   gauss_stats(m2, b @ b.T + 0.1 * np.eye(3)))
            assert got >= np.sum((m1 - m2) ** 2) - 1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m1, m2 = rng.normal(size=(2, 4))
            a = rng.normal(size=(4, 4))
            b = rng.normal(size=(4, 4))
            sa = gauss_stats(m1, a @ a.T + 0.05 * np.eye(4))
            sb = gauss_stats(m2, b @ b.T + 0.05 * np.eye(4))
            assert frechet_distance(sa, sb) == pytest.approx(
                frechet_distance(sb, sa), abs=1e-10)

    def test_singular_covariances_handled(self):
        # simplex-style features have rank-deficient covariances
        feats_a = np.array([[0.9, 0.1], [0.8, 0.2], [0.7, 0.3], [0.6, 0.4]])
        feats_b = feats_a[::-1].copy()
        value = frechet_distance(stats_from_features(feats_a),
                                 stats_from_features(feats_b))
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_permuted_large_features_read_zero(self):
        # the same rows in another order; with traces near 2.4e7 each, the round-off
        # of Tr S_a + Tr S_b - 2 cross can fall to -6e-8, below an absolute floor of 1e-8
        for seed in range(10):
            x = np.random.default_rng(seed).normal(size=(400, 24)) * 1000
            y = x[np.random.default_rng(seed + 1000).permutation(400)]
            sa, sb = stats_from_features(x), stats_from_features(y)
            value = frechet_distance(sa, sb)
            assert 0.0 <= value <= 1e-12 * (np.trace(sa[1]) + np.trace(sb[1]))

    def test_indefinite_covariance_refused(self):
        with pytest.raises(StructuralError, match="distance -3.0 below numerical-noise floor"):
            frechet_distance(gauss_stats(np.zeros(3), -np.eye(3)),
                             gauss_stats(np.zeros(3), np.zeros((3, 3))))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(StructuralError, match="feature dimensions do not match"):
            frechet_distance(gauss_stats([0.0], [[1.0]]),
                             gauss_stats([0.0, 0.0], np.eye(2)))

    @pytest.mark.parametrize("cov", [np.ones((2, 3)), np.eye(3), np.ones(2)])
    def test_covariance_not_square_of_mean_size_rejected(self, cov):
        for a, b in (((np.zeros(2), cov), gauss_stats([0.0, 0.0], np.eye(2))),
                     (gauss_stats([0.0, 0.0], np.eye(2)), (np.zeros(2), cov))):
            with pytest.raises(StructuralError, match="covariance shape does not match mean"):
                frechet_distance(a, b)

    def test_asymmetric_covariance_rejected(self):
        skewed = np.array([[1.0, 0.2], [0.3, 1.0]])
        for a, b in (((np.zeros(2), skewed), gauss_stats([0.0, 0.0], np.eye(2))),
                     (gauss_stats([0.0, 0.0], np.eye(2)), (np.zeros(2), skewed))):
            with pytest.raises(StructuralError, match="covariance must be symmetric"):
                frechet_distance(a, b)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_covariance_rejected(self, value):
        cov = np.array([[1.0, value], [value, 1.0]])
        with pytest.raises(StructuralError, match="covariance must be finite"):
            frechet_distance((np.zeros(2), cov), gauss_stats([0.0, 0.0], np.eye(2)))

    def test_asymmetry_above_tolerance_rejected(self):
        # 2e-6 apart at entries near 1: a relative tolerance of 1e-5 would accept it
        skewed = np.array([[1.0, 0.3], [0.3 + 2e-6, 1.0]])
        with pytest.raises(StructuralError, match="covariance must be symmetric"):
            frechet_distance((np.zeros(2), skewed), gauss_stats([0.1, 0.1], np.eye(2)))

    def test_symmetry_tolerance_scales_with_the_covariance(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        small = frechet_distance((np.zeros(2), cov), gauss_stats([0.0, 0.0], np.eye(2)))
        big = cov * 1e6
        assert frechet_distance((np.zeros(2), big),
                                gauss_stats([0.0, 0.0], 1e6 * np.eye(2))) == pytest.approx(
            1e6 * small, rel=1e-9)
        big[1, 0] *= 1 + 1e-15      # round-off far above 1e-12 in absolute terms
        assert not np.array_equal(big, big.T)
        frechet_distance((np.zeros(2), big), gauss_stats([0.0, 0.0], np.eye(2)))


def gaussians(dim):
    """(mean, covariance) with any positive semi-definite covariance, singular ones too."""
    values = st.floats(-3.0, 3.0, allow_subnormal=False)
    return st.tuples(arrays(np.float64, dim, elements=values),
                     arrays(np.float64, (dim, dim), elements=values)).map(
        lambda mf: (mf[0], mf[1] @ mf[1].T))


GAUSSIAN_PAIRS = st.integers(1, 4).flatmap(lambda dim: st.tuples(gaussians(dim), gaussians(dim)))


class TestFrechetProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pair=GAUSSIAN_PAIRS)
    def test_symmetric_and_non_negative(self, pair):
        a, b = pair
        ab, ba = frechet_distance(a, b), frechet_distance(b, a)
        assert min(ab, ba) >= 0.0
        assert ab == pytest.approx(ba, rel=1e-9, abs=1e-9)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(pair=GAUSSIAN_PAIRS)
    def test_equal_pairs_are_exactly_zero(self, pair):
        (mean, cov), _ = pair
        assert frechet_distance((mean, cov), (mean.copy(), cov.copy())) == 0.0


class TestUnitOrder:
    """Metamorphic relation: FGD does not depend on the order of a dataset's units."""

    @staticmethod
    @functools.cache
    def corpora():
        a = beat_gesture_corpus(1200, mu=4, seed=0)
        b = beat_gesture_corpus(1200, mu=4, seed=1)
        return fit(a, k=6, seed=0), a, b

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), side=st.sampled_from(["a", "b", "both"]))
    def test_permuting_units_keeps_the_value(self, seed, side):
        model, a, b = self.corpora()
        rng = np.random.default_rng(seed)

        def permuted(ds, name):
            if side not in (name, "both"):
                return ds
            return GestureDataset(matrix=ds.matrix[rng.permutation(len(ds.matrix))], dt=ds.dt)

        want = fgd(model, a, b)["value"]
        assert want > 0.01
        assert fgd(model, permuted(a, "a"), permuted(b, "b"))["value"] == pytest.approx(
            want, rel=1e-6)


class TestOverflow:
    def test_unit_whose_whitened_distances_overflow_is_refused(self):
        matrix = np.random.default_rng(7).normal(size=(50, N_JOINTS))
        matrix[0, 3] = 1e308
        far = GestureDataset(matrix=matrix, dt=0.25)
        near = GestureDataset(matrix=matrix[1:], dt=0.25)
        with pytest.raises(StructuralError, match="whitened squared distances overflow"):
            posterior_matrix(toy_model(), far)
        for pair in ((far, near), (near, far)):
            with pytest.raises(StructuralError, match="whitened squared distances overflow"):
                fgd(toy_model(), *pair)

    def test_far_unit_that_fits_gets_a_posterior(self):
        matrix = np.random.default_rng(7).normal(size=(50, N_JOINTS))
        matrix[0, 0] = 1e6
        resp = posterior_matrix(toy_model(), GestureDataset(matrix=matrix, dt=0.25))
        assert resp[0].tolist() == [0.0, 1.0]
        assert np.allclose(resp.sum(axis=1), 1.0)


class TestFgdPipeline:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(7)
        model = toy_model()
        ds = GestureDataset(matrix=rng.normal(size=(50, N_JOINTS)), dt=0.25)
        res = fgd(model, ds, ds)
        assert res["value"] == pytest.approx(0.0, abs=1e-12)
        assert res["bootstrap_mean"] is None

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        model = toy_model()
        a = GestureDataset(matrix=rng.normal(size=(60, N_JOINTS)) - 1.0, dt=0.25)
        b = GestureDataset(matrix=rng.normal(size=(60, N_JOINTS)) + 1.0, dt=0.25)
        assert fgd(model, a, b)["value"] == pytest.approx(fgd(model, b, a)["value"],
                                                          abs=1e-10)

    def test_noise_increases_distance(self):
        rng = np.random.default_rng(9)
        model = toy_model()
        base = rng.normal(size=(300, N_JOINTS)) * 0.5
        base[:150, 0] -= 4.0
        base[150:, 0] += 4.0
        ds = GestureDataset(matrix=base, dt=0.25, source_tag="ref")
        values = []
        for shift in (0.0, 3.0, 4.0, 5.0):
            moved = base.copy()
            moved[:, 0] += shift
            values.append(fgd(model, ds, GestureDataset(matrix=moved, dt=0.25))["value"])
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        # up to shift 1 FGD is round-off (~1e-16) and at shift 2 about 1e-9, so
        # the ordering is asserted from shift 3 on, where the distance is real
        assert all(values[i] < values[i + 1] for i in range(1, len(values) - 1))

    def test_bootstrap_deterministic(self):
        rng = np.random.default_rng(10)
        model = toy_model()
        a = GestureDataset(matrix=rng.normal(size=(40, N_JOINTS)) - 0.5, dt=0.25)
        b = GestureDataset(matrix=rng.normal(size=(40, N_JOINTS)) + 0.5, dt=0.25)
        r1 = fgd(model, a, b, bootstrap=20, seed=3)
        r2 = fgd(model, a, b, bootstrap=20, seed=3)
        assert r1["bootstrap_mean"] == r2["bootstrap_mean"]
        assert r1["bootstrap_std"] == r2["bootstrap_std"]
        assert r1["bootstrap_std"] >= 0.0
        assert r1["value"] == r2["value"]

    @pytest.mark.parametrize("k", [3, 24])
    @pytest.mark.parametrize("bootstrap", [1, 2, 25])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_bootstrap_matches_the_copying_loop(self, k, bootstrap, seed):
        rng = np.random.default_rng(k)
        model = GmmModel(weights=np.full(k, 1.0 / k), means=2.0 * rng.normal(size=(k, N_JOINTS)),
                         covariance=np.eye(N_JOINTS), mu=1, dt=0.25)
        a = GestureDataset(matrix=2.0 * rng.normal(size=(45, N_JOINTS)), dt=0.25)
        b = GestureDataset(matrix=2.0 * rng.normal(size=(71, N_JOINTS)) + 0.5, dt=0.25)
        want = reference_fgd(model, a, b, bootstrap, seed)
        assert want["bootstrap_mean"] > 0.0
        assert fgd(model, a, b, bootstrap=bootstrap, seed=seed) == want

    def test_bootstrap_mean_near_point_estimate(self):
        rng = np.random.default_rng(11)
        model = toy_model()
        a = GestureDataset(matrix=rng.normal(size=(200, N_JOINTS)) - 2.0, dt=0.25)
        b = GestureDataset(matrix=rng.normal(size=(200, N_JOINTS)) + 2.0, dt=0.25)
        res = fgd(model, a, b, bootstrap=50, seed=0)
        assert res["bootstrap_mean"] == pytest.approx(res["value"],
                                                      rel=0.5, abs=0.05)

    def test_negative_bootstrap_rejected(self):
        ds = GestureDataset(matrix=np.random.default_rng(13).normal(size=(30, N_JOINTS)),
                            dt=0.25)
        with pytest.raises(StructuralError, match="bootstrap must be at least 0"):
            fgd(toy_model(), ds, ds, bootstrap=-3)

    def test_document_keys(self):
        rng = np.random.default_rng(12)
        model = toy_model()
        ds = GestureDataset(matrix=rng.normal(size=(30, N_JOINTS)), dt=0.25)
        d = fgd(model, ds, ds, bootstrap=3, seed=0)
        assert set(d) == {"value", "bootstrap_mean", "bootstrap_std"}
