import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gesturemetrics import gmm, pipeline
from gesturemetrics.errors import ParseError, StructuralError
from gesturemetrics.gmm import (
    DEFAULT_REL_TOL,
    GmmModel,
    _e_step,
    _kmeanspp_centers,
    _log_gaussian,
    _m_step,
    fit,
    load_model,
    posterior_matrix,
    sample,
    save_model,
)
from gesturemetrics.model import N_JOINTS, GestureDataset, philox
from gesturemetrics.synth import beat_gesture_corpus

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
        x = ds.matrix
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

    def test_covariance_symmetric_at_large_magnitude(self):
        rng = np.random.default_rng(23)
        x = 1e6 * (two_cluster_dataset(rng, 100).matrix + 5.0)
        model = fit(GestureDataset(matrix=x, dt=0.25), k=3, seed=0)
        assert np.array_equal(model.covariance, model.covariance.T)

    @pytest.mark.parametrize("mu", [8, 10])
    def test_rank_deficient_corpus_converges(self, mu):
        # 14*mu columns but rank about 85: only the fixed ridge keeps the
        # covariance invertible, and EM must still converge monotonically
        ds = beat_gesture_corpus(2400, mu, seed=0)
        lls = np.array(fit(ds, k=24, seed=0).log_likelihoods)
        assert lls.size > 7
        assert np.all(np.diff(lls) >= 0)
        assert lls[-1] - lls[-2] < DEFAULT_REL_TOL * abs(lls[-1])

    def test_too_few_units_rejected(self):
        rng = np.random.default_rng(5)
        ds = gaussian_dataset(rng, 4)
        with pytest.raises(StructuralError):
            fit(ds, k=5, seed=0)

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_one_rejected(self, k):
        ds = gaussian_dataset(np.random.default_rng(5), 20)
        with pytest.raises(StructuralError, match="k must be at least 1"):
            fit(ds, k=k, seed=0)

    def test_squared_distances_that_overflow_are_refused_before_seeding(self):
        # k-means++ turned the inf distances into NaN probabilities
        x = beat_gesture_corpus(240, 4, seed=0).matrix.copy()
        x[0, 3] = 1e308
        with pytest.raises(StructuralError, match="squared distances overflow"):
            fit(GestureDataset(matrix=x, dt=0.25), k=2, seed=0)

    def test_column_whose_sum_overflows_is_refused_before_seeding(self):
        # its spread is 0, but the data mean that centres the fit overflows
        x = beat_gesture_corpus(240, 4, seed=0).matrix.copy()
        x[:, 3] = 1.7e308
        with pytest.raises(StructuralError, match="^dataset values are too large: a column sum"):
            fit(GestureDataset(matrix=x, dt=0.25), k=2, seed=0)

    @pytest.mark.parametrize("k, seed", [(2, 0), (3, 0), (2, 1)])
    def test_outlier_that_breaks_the_em_covariance_is_refused(self, k, seed):
        # the M step's X'X - sum n_k m_k m_k' cancels to an indefinite covariance
        x = beat_gesture_corpus(60, 4, seed=0).matrix.copy()
        x[0, 0] = 9999999.0
        with pytest.raises(StructuralError, match="round-off made the covariance indefinite"):
            fit(GestureDataset(matrix=x, dt=0.25), k=k, seed=seed)


def per_component_log_gaussian(x, means, covariance):
    """Reference E-step: one triangular solve per component."""
    d = x.shape[1]
    chol = np.linalg.cholesky(covariance)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    out = np.empty((x.shape[0], means.shape[0]))
    for j, m in enumerate(means):
        sol = np.linalg.solve(chol, (x - m).T)
        out[:, j] = -0.5 * (d * np.log(2.0 * np.pi) + logdet + np.sum(sol ** 2, axis=0))
    return out


def per_component_scatter(x, means, resp):
    """Reference M-step scatter: sum over components of the weighted outer products."""
    scatter = np.zeros((x.shape[1], x.shape[1]))
    for j in range(means.shape[0]):
        diff = x - means[j]
        scatter += (resp[:, j][:, None] * diff).T @ diff
    return scatter


def list_min_kmeanspp(x, k, rng):
    """Reference k-means++ seeding: nearest-center distance recomputed from every center."""
    n = x.shape[0]
    centers = [x[rng.integers(n)]]
    for _ in range(1, k):
        d2 = np.min([np.sum((x - c) ** 2, axis=1) for c in centers], axis=0)
        total = d2.sum()
        if total <= 0:
            centers.append(x[rng.integers(n)])
            continue
        centers.append(x[rng.choice(n, p=d2 / total)])
    return np.array(centers)


def random_covariance(rng, d, condition):
    """Symmetric positive definite matrix with eigenvalues from 1 down to 1/condition."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    cov = (q * np.logspace(0.0, -np.log10(condition), d)) @ q.T
    return (cov + cov.T) / 2.0


class TestAgainstReference:
    @pytest.mark.parametrize("offset, condition", [(0.0, 10.0), (50.0, 1e10)])
    def test_log_gaussian_matches_per_component(self, offset, condition):
        rng = np.random.default_rng(20)
        d = 4 * N_JOINTS
        cov = random_covariance(rng, d, condition)
        assert np.linalg.cond(cov) >= 0.5 * condition
        chol = np.linalg.cholesky(cov)
        x = offset + rng.normal(size=(300, d)) @ chol.T
        means = offset + rng.normal(size=(6, d)) @ chol.T
        expected = per_component_log_gaussian(x, means, cov)
        got, _ = _log_gaussian(np.vstack([x, means]) - x.mean(axis=0), len(x), cov)
        assert np.max(np.abs(got - expected) / np.abs(expected)) <= 1e-9

    @pytest.mark.parametrize("d", [2, 14, 56, 112])
    @pytest.mark.parametrize("condition", [1.0, 1e3, 1e6])
    def test_e_step_trace_is_trace_of_inverse(self, d, condition):
        # the penalty's tr(cov^-1) comes from the whitening factor: ||L^-1||_F^2
        rng = np.random.default_rng(d)
        cov = random_covariance(rng, d, condition)
        block = rng.normal(size=(12, d))
        trace_inv = _e_step(block - block[:10].mean(axis=0), 10, cov, np.log(np.full(2, 0.5)))[2]
        assert trace_inv == pytest.approx(np.trace(np.linalg.inv(cov)), rel=1e-9)

    def test_one_inversion_per_e_step(self, monkeypatch):
        # one Cholesky factor and one inverse of it per EM iteration; the model's
        # own positive-definiteness check makes the one extra Cholesky
        calls = {"inv": 0, "cholesky": 0, "e_step": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
        monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
        monkeypatch.setattr(gmm, "_e_step", counted("e_step", gmm._e_step))
        model = fit(two_cluster_dataset(np.random.default_rng(25), 60), k=3, seed=0)
        assert calls["e_step"] >= len(model.log_likelihoods) >= 2
        assert calls["inv"] == calls["e_step"]
        assert calls["cholesky"] == calls["e_step"] + 1

    def test_m_step_matches_per_component_scatter(self):
        rng = np.random.default_rng(21)
        x = 3.0 + rng.normal(size=(400, D)) * rng.uniform(0.1, 2.0, D)
        resp = rng.dirichlet(np.ones(5), size=400)
        center = x.mean(axis=0)
        xc = x - center
        weights, means, cov = _m_step(xc, xc.T @ xc, resp)
        nk = resp.sum(axis=0)
        assert np.allclose(weights, nk / 400, rtol=1e-12)
        assert np.allclose(means + center, (resp.T @ x) / nk[:, None], rtol=1e-12)
        expected = per_component_scatter(x, means + center, resp) / 400
        assert np.max(np.abs(cov - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert np.array_equal(cov, cov.T)

    @pytest.mark.parametrize("seed", range(6))
    def test_kmeanspp_picks_same_centers(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(200, D)) + 10.0 * rng.integers(0, 4, size=(200, 1))
        # three distinct rows: once all three are centers every distance is zero
        few = np.repeat(x[:3], 10, axis=0)
        for data, k in ((x, 12), (few, 6)):
            assert np.array_equal(_kmeanspp_centers(data, k, philox(seed)),
                                  list_min_kmeanspp(data, k, philox(seed)))


class TestTranslationInvariance:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(offset=st.lists(st.floats(-1e3, 1e3), min_size=D, max_size=D))
    @example(offset=[1e3] * D)
    def test_offset_leaves_posteriors_and_fit_unchanged(self, offset):
        shift = np.array(offset)
        ds = two_cluster_dataset(np.random.default_rng(24), 80)
        x = ds.matrix
        moved = GestureDataset(matrix=x + shift, dt=0.25)
        model = fit(ds, k=3, seed=1)
        shifted = GmmModel(weights=model.weights, means=model.means + shift,
                           covariance=model.covariance, mu=1, dt=0.25)
        assert np.allclose(posterior_matrix(shifted, moved),
                           posterior_matrix(model, ds), rtol=0.0, atol=1e-9)
        refit = fit(moved, k=3, seed=1)
        assert len(refit.log_likelihoods) == len(model.log_likelihoods)
        scale = np.max(np.abs(model.covariance))
        assert np.allclose(refit.covariance, model.covariance, rtol=0.0, atol=1e-10 * scale)


class TestModelValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(StructuralError):
            GmmModel(weights=np.array([0.6, 0.6]), means=np.zeros((2, D)),
                     covariance=np.eye(D), mu=1, dt=0.25)

    def test_weights_must_be_a_vector(self):
        # a K x 1 column sums to 1 too, but sample and posterior_matrix need a vector
        with pytest.raises(StructuralError, match="weights must be a non-negative vector"):
            GmmModel(weights=np.array([[0.5], [0.5]]), means=np.zeros((2, D)),
                     covariance=np.eye(D), mu=1, dt=0.25)

    def test_covariance_must_be_symmetric(self):
        cov = np.eye(D)
        cov[0, 1] = 0.5
        with pytest.raises(StructuralError):
            GmmModel(weights=np.array([1.0]), means=np.zeros((1, D)),
                     covariance=cov, mu=1, dt=0.25)

    def test_asymmetry_within_a_relative_tolerance_rejected(self):
        # |0.5 - 0.500004| is inside allclose's default rtol=1e-5, but Cholesky
        # would read only the lower triangle and drop the upper one
        cov = np.eye(D)
        cov[0, 1], cov[1, 0] = 0.5, 0.500004
        with pytest.raises(StructuralError, match="covariance must be symmetric"):
            GmmModel(weights=np.array([1.0]), means=np.zeros((1, D)),
                     covariance=cov, mu=1, dt=0.25)

    def test_means_shape_checked(self):
        with pytest.raises(StructuralError):
            GmmModel(weights=np.array([0.5, 0.5]), means=np.zeros((3, D)),
                     covariance=np.eye(D), mu=1, dt=0.25)

    def test_covariance_shape_checked(self):
        with pytest.raises(StructuralError, match="covariance must be d x d"):
            GmmModel(weights=np.array([1.0]), means=np.zeros((1, D)),
                     covariance=np.eye(D + 1), mu=1, dt=0.25)

    @pytest.mark.parametrize("field", ["weights", "means", "covariance", "dt"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, field, value):
        parts = {"weights": np.array([0.5, 0.5]), "means": np.zeros((2, D)),
                 "covariance": np.eye(D), "dt": 0.25}
        if field == "dt":
            parts["dt"] = value
        else:
            parts[field].flat[-1] = value
        with pytest.raises(StructuralError, match="must be finite"):
            GmmModel(mu=1, **parts)

    def test_mu_must_be_at_least_one(self):
        # d = 14 * mu holds at mu 0 too, but sample would divide by mu
        with pytest.raises(StructuralError, match="mu must be at least 1, got 0"):
            GmmModel(weights=np.array([1.0]), means=np.zeros((1, 0)),
                     covariance=np.zeros((0, 0)), mu=0, dt=0.25)

    # the dataset rule (model.check_dt), so a model's samples always form a dataset
    @pytest.mark.parametrize("dt", [0.0, -0.25, 1e-300])
    def test_dt_must_be_a_dataset_dt(self, dt):
        with pytest.raises(StructuralError, match="dt"):
            GmmModel(weights=np.array([1.0]), means=np.zeros((1, D)),
                     covariance=np.eye(D), mu=1, dt=dt)

    def test_dimension_must_be_fourteen_mu(self):
        with pytest.raises(StructuralError, match="not 14 \\* mu"):
            GmmModel(weights=np.array([1.0]), means=np.zeros((1, 4 * D)),
                     covariance=np.eye(4 * D), mu=3, dt=0.25)

    @pytest.mark.parametrize("diagonal", [0.0, -1.0])
    def test_covariance_must_be_positive_definite(self, diagonal):
        # finite and symmetric, but Cholesky fails: all zeros, or one negative variance
        cov = np.eye(D) if diagonal else np.zeros((D, D))
        cov[0, 0] = diagonal
        with pytest.raises(StructuralError, match="covariance must be positive definite"):
            GmmModel(weights=np.array([1.0]), means=np.zeros((1, D)),
                     covariance=cov, mu=1, dt=0.25)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(GmmModel)])
    def test_field_cannot_be_reassigned(self, name):
        model = toy_model()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, name, getattr(model, name))

    @pytest.mark.parametrize("name", ["weights", "means", "covariance"])
    def test_arrays_are_read_only_views_of_the_callers_arrays(self, name):
        given = {"weights": np.array([1.0]), "means": np.zeros((1, D)), "covariance": np.eye(D)}
        model = GmmModel(mu=1, dt=0.25, **given)
        assert np.shares_memory(getattr(model, name), given[name])
        assert given[name].flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            getattr(model, name)[0] = 0.5

    def test_trace_becomes_a_tuple_that_defaults_to_empty(self):
        assert toy_model().log_likelihoods == ()
        model = dataclasses.replace(toy_model(), log_likelihoods=[-2.0, -1.0])
        assert model.log_likelihoods == (-2.0, -1.0)


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
        for i, row in enumerate(ds.matrix):
            assert np.allclose(mat[i], posteriors(model, row)[0], atol=1e-12)

    # scored around a point the model fixes, a unit's row depends on that unit alone: a
    # far unit, which moves the dataset's own mean, or a subset leaves the other rows as
    # they are, up to the blocking of the BLAS products
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_row_does_not_depend_on_the_other_units(self, seed):
        corpus = beat_gesture_corpus(800, 4, seed=seed)
        model = fit(corpus, k=4, seed=seed)
        x = sample(model, 300, seed=seed).matrix.copy()
        x[0, 3] = 1e6
        full = posterior_matrix(model, GestureDataset(matrix=x, dt=corpus.dt))
        rng = np.random.default_rng(seed)
        for rows in ([1], np.arange(1, 8), rng.choice(np.arange(1, 300), 100, replace=False)):
            alone = posterior_matrix(model, GestureDataset(matrix=x[rows], dt=corpus.dt))
            assert np.allclose(alone, full[rows], rtol=0.0, atol=1e-13), len(rows)

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
        x = ds.matrix
        mix_mean = model.weights @ model.means
        # per-dimension variance of the mixture with unit shared covariance
        second = model.weights @ (model.means ** 2 + 1.0)
        var = second - mix_mean ** 2
        se = np.sqrt(var / n)
        assert np.all(np.abs(x.mean(axis=0) - mix_mean) < 4.0 * se)
        assert np.allclose(x.var(axis=0), var, rtol=0.05)

    def test_component_frequencies(self):
        model = toy_model()
        x = sample(model, 50_000, seed=1).matrix
        frac_right = float(np.mean(x[:, 0] > 0))
        assert frac_right == pytest.approx(0.7, abs=0.01)

    def test_deterministic_given_seed(self):
        model = toy_model()
        a = sample(model, 100, seed=9).matrix
        b = sample(model, 100, seed=9).matrix
        assert np.array_equal(a, b)

    def test_preserves_mu_and_dt(self):
        model = toy_model()
        ds = sample(model, 10, seed=0)
        assert ds.mu == 1
        assert ds.dt == 0.25

    def test_bad_count_rejected(self):
        with pytest.raises(StructuralError):
            sample(toy_model(), 0, seed=0)

    def test_more_poses_than_the_cap_rejected_before_drawing(self, monkeypatch):
        def refuse(seed):
            raise AssertionError("sample drew units above the pose cap")

        monkeypatch.setattr(gmm, "philox", refuse)
        n = pipeline.MAX_POSES + 1                  # mu 1: one pose more than the cap
        with pytest.raises(StructuralError, match=f"n {n} units of 1 poses give more than "
                                                  f"{pipeline.MAX_POSES} poses"):
            sample(toy_model(), n)

    def test_cap_counts_every_pose_of_a_unit(self, monkeypatch):
        model = GmmModel(weights=np.ones(1), means=np.zeros((1, 4 * D)),
                         covariance=np.eye(4 * D), mu=4, dt=0.25)
        monkeypatch.setattr(pipeline, "MAX_POSES", 19)
        assert len(sample(model, 4)) == 4           # 16 poses
        with pytest.raises(StructuralError, match="n 5 units of 4 poses give more than 19"):
            sample(model, 5)                        # 20 poses
        with pytest.raises(StructuralError, match="units of 4 poses give more than 19"):
            sample(model, np.int64(2 ** 62))        # n * mu wraps to 0 in int64


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

    def test_scaled_symmetric_covariance_loads(self, tmp_path):
        # an asymmetry in the last bit of 1e6-sized entries is round-off
        rng = np.random.default_rng(15)
        a = rng.normal(size=(D, D))
        cov = 1e6 * (a @ a.T + D * np.eye(D))
        cov[0, 1] = np.nextafter(cov[1, 0], np.inf)
        model = GmmModel(weights=np.array([1.0]), means=np.zeros((1, D)),
                         covariance=cov, mu=1, dt=0.25)
        path = tmp_path / "model.json"
        save_model(model, path)
        assert np.array_equal(load_model(path).covariance, cov)

    def test_file_with_covariance_floored_key_loads(self, tmp_path):
        # models written before the fixed ridge carry a covariance_floored flag
        rng = np.random.default_rng(14)
        model = fit(gaussian_dataset(rng, 50), k=2, seed=0)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["covariance_floored"] = True
        path.write_text(json.dumps(doc))
        back = load_model(path)
        assert np.array_equal(back.covariance, model.covariance)
        assert np.array_equal(back.means, model.means)

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

    def test_boolean_mu_rejected(self, tmp_path):
        # json.load gives True, which operator.index would read as mu = 1
        model = GmmModel(weights=np.array([1.0]), means=np.zeros((1, D)),
                         covariance=np.eye(D), mu=1, dt=0.25)
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text().replace('"mu": 1', '"mu": true'))
        with pytest.raises(ParseError, match="mu must be a JSON integer"):
            load_model(path)

    @pytest.mark.parametrize("key, value", [
        ("dt", True), ("dt", "0.25"), ("k", True), ("k", 1.0), ("d", float(D)),
        ("weights", [True]), ("means", [[False] * D]), ("covariance", np.eye(D, dtype=bool)),
    ], ids=["dt-true", "dt-string", "k-true", "k-float", "d-float", "weights-true",
            "means-false", "covariance-booleans"])
    def test_booleans_and_non_integers_rejected(self, tmp_path, key, value):
        # float() and numpy read true as 1 and float() parses "0.25"; 1.0 == 1 and 14.0 == 14
        model = GmmModel(weights=np.array([1.0]), means=np.zeros((1, D)),
                         covariance=np.eye(D), mu=1, dt=0.25)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc[key] = value.tolist() if isinstance(value, np.ndarray) else value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_model(path)

    def test_deeply_nested_file_rejected(self, tmp_path):
        # deeper than the JSON decoder's recursion limit
        path = tmp_path / "model.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ParseError, match="corrupted model file"):
            load_model(path)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff{}")
        with pytest.raises(ParseError, match="corrupted model file"):
            load_model(path)

    @pytest.mark.parametrize("key", ["covariance", "dt"])
    def test_entry_too_large_for_a_float_rejected(self, tmp_path, key):
        model = GmmModel(weights=np.array([1.0]), means=np.zeros((1, D)),
                         covariance=np.eye(D), mu=1, dt=0.25)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        if key == "dt":
            doc["dt"] = 10 ** 400
        else:
            doc["covariance"][0][0] = 10 ** 400
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="^malformed model file: int too large"):
            load_model(path)

    def test_shape_disagreement_rejected(self, tmp_path):
        rng = np.random.default_rng(13)
        model = fit(gaussian_dataset(rng, 50), k=2, seed=0)
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text().replace('"k": 2', '"k": 3'))
        with pytest.raises(ParseError):
            load_model(path)
