import numpy as np
import pytest

from gesturemetrics.errors import ParseError, StructuralError
from gesturemetrics.gmm import (
    GmmModel,
    fit,
    load_model,
    posterior_matrix,
    sample,
    save_model,
)
from gesturemetrics.model import N_JOINTS, GestureDataset, as_matrix

D = N_JOINTS  # mu=1 keeps the tests fast


def gaussian_dataset(rng, n, center=0.0, scale=1.0):
    x = center + scale * rng.normal(size=(n, D))
    return GestureDataset(matrix=x, dt=0.25)


def two_cluster_dataset(rng, n_per, separation=10.0, scale=0.5):
    a = rng.normal(size=(n_per, D)) * scale
    b = rng.normal(size=(n_per, D)) * scale
    a[:, 0] -= separation / 2
    b[:, 0] += separation / 2
    return GestureDataset(matrix=np.vstack([a, b]), dt=0.25)


class TestFit:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(0)
        ds = gaussian_dataset(rng, 200)
        x = as_matrix(ds)
        model = fit(ds, k=1, seed=0)
        assert model.weights[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(model.means[0], x.mean(axis=0), atol=1e-8)
        centered = x - x.mean(axis=0)
        biased = centered.T @ centered / x.shape[0]
        # shared covariance equals the biased ML estimate plus the small floor
        assert np.allclose(model.covariance, biased, atol=1e-4)

    def test_two_cluster_recovery(self):
        rng = np.random.default_rng(1)
        scale = 0.5
        ds = two_cluster_dataset(rng, 200, separation=10.0, scale=scale)
        model = fit(ds, k=2, seed=0)
        order = np.argsort(model.means[:, 0])
        left, right = model.means[order]
        true_left = np.zeros(D)
        true_left[0] = -5.0
        true_right = np.zeros(D)
        true_right[0] = 5.0
        assert np.max(np.abs(left - true_left)) < 0.1 * scale * 5
        assert np.max(np.abs(right - true_right)) < 0.1 * scale * 5
        assert np.allclose(np.sort(model.weights), [0.5, 0.5], atol=0.05)

    def test_loglikelihood_trace_monotone(self):
        rng = np.random.default_rng(2)
        ds = two_cluster_dataset(rng, 150)
        model = fit(ds, k=4, seed=3)
        lls = np.array(model.log_likelihoods)
        assert lls.size >= 2
        assert np.all(np.diff(lls) >= 0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        ds = gaussian_dataset(rng, 120)
        m1 = fit(ds, k=5, seed=11)
        m2 = fit(ds, k=5, seed=11)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.means, m2.means)
        assert np.array_equal(m1.covariance, m2.covariance)

    def test_records_mu_and_dt(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(60, 2 * N_JOINTS))
        ds = GestureDataset(matrix=x, dt=0.5)
        model = fit(ds, k=3, seed=0)
        assert model.mu == 2
        assert model.dt == 0.5

    def test_too_few_units_rejected(self):
        rng = np.random.default_rng(5)
        ds = gaussian_dataset(rng, 4)
        with pytest.raises(StructuralError):
            fit(ds, k=5, seed=0)


class TestModelValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(StructuralError):
            GmmModel(weights=np.array([0.6, 0.6]), means=np.zeros((2, D)),
                     covariance=np.eye(D), mu=1, dt=0.25)

    def test_covariance_must_be_symmetric(self):
        cov = np.eye(D)
        cov[0, 1] = 0.5
        with pytest.raises(StructuralError):
            GmmModel(weights=np.array([1.0]), means=np.zeros((1, D)),
                     covariance=cov, mu=1, dt=0.25)

    def test_means_shape_checked(self):
        with pytest.raises(StructuralError):
            GmmModel(weights=np.array([0.5, 0.5]), means=np.zeros((3, D)),
                     covariance=np.eye(D), mu=1, dt=0.25)


def toy_model(separation=8.0):
    means = np.zeros((2, D))
    means[0, 0] = -separation / 2
    means[1, 0] = separation / 2
    return GmmModel(weights=np.array([0.3, 0.7]), means=means,
                    covariance=np.eye(D), mu=1, dt=0.25)


def posteriors(model, rows):
    return posterior_matrix(model, GestureDataset(matrix=np.atleast_2d(rows), dt=0.25))


class TestPosterior:
    def test_simplex(self):
        rng = np.random.default_rng(6)
        model = toy_model()
        p = posteriors(model, rng.normal(size=(20, D)))
        assert np.all(p >= 0)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_dominant_component_at_each_mean(self):
        model = toy_model()
        p = posteriors(model, model.means)
        for j in range(model.k):
            assert np.argmax(p[j]) == j
            assert p[j, j] > 0.99

    def test_equidistant_point_follows_weights(self):
        model = toy_model()
        p = posteriors(model, np.zeros(D))[0]
        # equal likelihoods, so responsibilities reduce to the priors
        assert p[0] == pytest.approx(0.3, abs=1e-10)
        assert p[1] == pytest.approx(0.7, abs=1e-10)

    def test_matrix_matches_per_unit(self):
        rng = np.random.default_rng(7)
        model = toy_model()
        ds = gaussian_dataset(rng, 15)
        mat = posterior_matrix(model, ds)
        assert mat.shape == (15, 2)
        for i, row in enumerate(as_matrix(ds)):
            assert np.allclose(mat[i], posteriors(model, row)[0], atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        model = toy_model()
        rng = np.random.default_rng(8)
        ds = GestureDataset(matrix=rng.normal(size=(5, 2 * N_JOINTS)), dt=0.25)
        with pytest.raises(StructuralError):
            posterior_matrix(model, ds)


class TestSampling:
    def test_moments_match_mixture(self):
        model = toy_model()
        n = 100_000
        ds = sample(model, n, seed=0)
        x = as_matrix(ds)
        mix_mean = model.mixture_mean()
        # per-dimension variance of the mixture with unit shared covariance
        second = model.weights @ (model.means ** 2 + 1.0)
        var = second - mix_mean ** 2
        se = np.sqrt(var / n)
        assert np.all(np.abs(x.mean(axis=0) - mix_mean) < 4.0 * se)
        assert np.allclose(x.var(axis=0), var, rtol=0.05)

    def test_component_frequencies(self):
        model = toy_model()
        x = as_matrix(sample(model, 50_000, seed=1))
        frac_right = float(np.mean(x[:, 0] > 0))
        assert frac_right == pytest.approx(0.7, abs=0.01)

    def test_deterministic_given_seed(self):
        model = toy_model()
        a = as_matrix(sample(model, 100, seed=9))
        b = as_matrix(sample(model, 100, seed=9))
        assert np.array_equal(a, b)

    def test_preserves_mu_and_dt(self):
        model = toy_model()
        ds = sample(model, 10, seed=0)
        assert ds.mu == 1
        assert ds.dt == 0.25

    def test_bad_count_rejected(self):
        with pytest.raises(StructuralError):
            sample(toy_model(), 0, seed=0)


class TestModelIO:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        ds = gaussian_dataset(rng, 80)
        model = fit(ds, k=3, seed=0)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.means, model.means)
        assert np.array_equal(back.covariance, model.covariance)
        assert back.mu == model.mu
        assert back.dt == model.dt
        assert back.covariance_floored == model.covariance_floored

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(11)
        model = fit(gaussian_dataset(rng, 50), k=2, seed=0)
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ParseError):
            load_model(path)

    def test_wrong_version_rejected(self, tmp_path):
        rng = np.random.default_rng(12)
        model = fit(gaussian_dataset(rng, 50), k=2, seed=0)
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text().replace('"format_version": 1',
                                                 '"format_version": 99'))
        with pytest.raises(ParseError):
            load_model(path)

    def test_shape_disagreement_rejected(self, tmp_path):
        rng = np.random.default_rng(13)
        model = fit(gaussian_dataset(rng, 50), k=2, seed=0)
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text().replace('"k": 2', '"k": 3'))
        with pytest.raises(ParseError):
            load_model(path)
