import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gesturemetrics.errors import DegenerateGeometryError, StructuralError
from gesturemetrics.pcoa import (
    analyze_dataset_structure,
    correlation_distance,
    explained_variance,
    fidelity_report,
    geometric_variability,
    leading_coordinates,
    pcoa,
    r2_recovery,
    scale_to_unit_geometric_variability,
)


def euclidean_distances(points):
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt(np.sum(diff ** 2, axis=-1))


class TestCorrelationDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(20, 4))
        dm = correlation_distance(data)
        assert np.all(np.diag(dm) == 0)

    def test_negated_column_sqrt_two(self):
        rng = np.random.default_rng(1)
        col = rng.normal(size=30)
        data = np.column_stack([col, -col])
        dm = correlation_distance(data)
        assert dm[0, 1] == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_half_correlation_pearson_oracle(self):
        # construct a 5-sample pair with Pearson r exactly 0.5
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        xc = x - x.mean()
        z = np.array([1.0, -1.0, 0.0, 1.0, -1.0])
        z = z - z.mean()
        z -= (z @ xc) / (xc @ xc) * xc          # orthogonalize
        z *= np.sqrt(3.0 * (xc @ xc) / (z @ z))  # r = 1/sqrt(1+3) = 0.5
        y = xc + z
        r = (xc @ (y - y.mean())) / np.sqrt((xc @ xc) * ((y - y.mean()) @ (y - y.mean())))
        assert r == pytest.approx(0.5, abs=1e-12)
        dm = correlation_distance(np.column_stack([x, y]))
        assert dm[0, 1] == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_zero_variance_column_warns_and_gets_unit_distance(self):
        rng = np.random.default_rng(2)
        data = np.column_stack([rng.normal(size=10), np.full(10, 3.0)])
        with pytest.warns(UserWarning, match="zero-variance"):
            dm = correlation_distance(data, labels=["a", "b"])
        assert dm[0, 1] == pytest.approx(1.0)

    def test_dead_column_leaves_live_block_unchanged(self):
        rng = np.random.default_rng(4)
        live = rng.normal(size=(30, 5))
        data = np.insert(live, 2, 3.0, axis=1)
        with pytest.warns(UserWarning, match="zero-variance"):
            dm = correlation_distance(data)
        keep = [0, 1, 3, 4, 5]
        assert np.allclose(dm[np.ix_(keep, keep)], correlation_distance(live),
                           rtol=0.0, atol=1e-12)
        assert np.all(dm[2, keep] == 1.0)

    def test_constants_with_inexact_mean_are_dead(self):
        # np.mean of 37 copies of 0.3 or 1.7 is not exact, so their std is ~1e-16
        rng = np.random.default_rng(5)
        data = np.column_stack([rng.normal(size=(37, 3)), np.full(37, 0.3),
                                np.full(37, 1.7), np.full(37, 3.0)])
        labels = ["a", "b", "c", "k03", "k17", "k30"]
        with pytest.warns(UserWarning, match="zero-variance") as record:
            dm = correlation_distance(data, labels=labels)
        assert "k03, k17, k30" in str(record[0].message)
        dead = [3, 4, 5]
        off_diagonal = ~np.eye(6, dtype=bool)
        assert np.all(dm[dead][off_diagonal[dead]] == 1.0)  # d is symmetric

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(25, 6))
        scales = rng.uniform(0.5, 4.0, 6)
        shifts = rng.normal(size=6)
        dm1 = correlation_distance(data)
        dm2 = correlation_distance(data * scales + shifts)
        assert np.allclose(dm1, dm2, atol=1e-10)

    def test_too_few_samples_rejected(self):
        with pytest.raises(StructuralError):
            correlation_distance(np.zeros((2, 3)))

    @pytest.mark.parametrize("shape", [(10,), (10, 3, 2)])
    def test_data_that_is_not_2d_rejected(self, shape):
        with pytest.raises(StructuralError, match="expected an N x p data matrix"):
            correlation_distance(np.zeros(shape))

    def test_column_whose_products_overflow_is_refused(self):
        # np.corrcoef would warn and give r = 0 (d = 1) against every column
        data = np.random.default_rng(6).normal(size=(60, 5))
        data[0, 3] = 1e308
        with pytest.raises(StructuralError, match="squared distances overflow"):
            correlation_distance(data)

    def test_column_whose_sum_overflows_is_refused(self):
        # a constant column near the float maximum has no spread, but np.corrcoef's
        # mean of it overflows
        data = np.random.default_rng(6).normal(size=(60, 5))
        data[:, 3] = 1.7e308
        with pytest.raises(StructuralError, match="^dataset values are too large: a column sum"):
            correlation_distance(data)

    def test_large_column_that_fits_keeps_its_correlations(self):
        data = np.random.default_rng(6).normal(size=(60, 5))
        data[0, 3] = 1e150
        dm = correlation_distance(data)
        scaled = data.copy()
        scaled[:, 3] /= 1e140
        assert np.allclose(dm, correlation_distance(scaled), rtol=0.0, atol=1e-12)
        assert not np.allclose(dm[3, [0, 1, 2, 4]], 1.0)


class TestGeometricVariability:
    def test_two_by_two_formula(self):
        dm = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert geometric_variability(dm) == pytest.approx(1.0)
        scaled = scale_to_unit_geometric_variability(dm)
        assert scaled[0, 1] == pytest.approx(2.0)

    def test_scaling_divides_by_sqrt_v(self):
        dm = np.array([[0.0, 2.0], [2.0, 0.0]]) * np.sqrt(2.0)
        assert geometric_variability(dm) == pytest.approx(2.0)
        scaled = scale_to_unit_geometric_variability(dm)
        assert scaled[0, 1] == pytest.approx(2.0)
        assert geometric_variability(scaled) == pytest.approx(1.0, abs=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(8, 3))
        dm = euclidean_distances(pts)
        once = scale_to_unit_geometric_variability(dm)
        twice = scale_to_unit_geometric_variability(once)
        assert np.allclose(once, twice, atol=1e-12)

    def test_fixed_point_unchanged(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(6, 2))
        dm = scale_to_unit_geometric_variability(euclidean_distances(pts))
        again = scale_to_unit_geometric_variability(dm)
        assert np.allclose(dm, again, atol=1e-12)

    def test_all_zero_rejected(self):
        dm = np.zeros((3, 3))
        with pytest.raises(DegenerateGeometryError):
            scale_to_unit_geometric_variability(dm)


class TestPcoa:
    def test_right_triangle_embedding(self):
        d = np.array([[0.0, 3.0, 4.0],
                      [3.0, 0.0, 5.0],
                      [4.0, 5.0, 0.0]])
        res = pcoa(d)
        assert res.eigenvalues.size == 2
        rebuilt = euclidean_distances(res.coordinates)
        assert np.allclose(rebuilt, d, atol=1e-8)

    def test_zero_distances_zero_dimensions(self):
        res = pcoa(np.zeros((4, 4)))
        assert res.eigenvalues.size == 0

    def test_collinear_points_one_dominant_axis(self):
        pts = np.column_stack([np.arange(4.0), np.zeros(4), np.zeros(4)])
        res = pcoa(euclidean_distances(pts))
        assert res.eigenvalues[0] / res.eigenvalues.sum() >= 0.9999

    def test_eigenvalues_sorted_and_column_norms(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(12, 4))
        res = pcoa(euclidean_distances(pts))
        lam = res.eigenvalues
        assert np.all(np.diff(lam) <= 1e-12)
        norms2 = np.sum(res.coordinates ** 2, axis=0)
        assert np.allclose(norms2, lam, rtol=1e-8)

    def test_columns_orthogonal(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(10, 3))
        res = pcoa(euclidean_distances(pts))
        gram = res.coordinates.T @ res.coordinates
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-8 * np.max(np.diag(gram))

    def test_eigen_sum_equals_gram_trace(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(9, 3))
        d = euclidean_distances(pts)
        res = pcoa(d)
        n = d.shape[0]
        h = np.eye(n) - np.ones((n, n)) / n
        gram = -0.5 * h @ (d ** 2) @ h
        assert np.sum(res.eigenvalues) == pytest.approx(np.trace(gram), rel=1e-8)

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(7, 2))
        d = euclidean_distances(pts)
        res1 = pcoa(d)
        res2 = pcoa(d.copy())
        assert np.array_equal(res1.coordinates, res2.coordinates)

    @pytest.mark.parametrize("d, message", [
        (np.zeros((3, 2)), "must be square"),
        (np.zeros(3), "must be square"),
        (np.array([[0.0, 1.0], [1.001, 0.0]]), "must be symmetric"),
        (np.array([[1e-3, 1.0], [1.0, 0.0]]), "diagonal must be zero"),
        (np.array([[0.0, -1.0], [-1.0, 0.0]]), "must be non-negative"),
        (np.array([[0.0, np.inf], [np.inf, 0.0]]), "must be finite"),
        (np.array([[0.0, np.nan], [np.nan, 0.0]]), "must be finite"),
        (np.zeros((1, 1)), "need at least 2 units"),
    ])
    def test_malformed_distances_rejected(self, d, message):
        with pytest.raises(StructuralError, match=message):
            pcoa(d)

    def test_asymmetry_below_tolerance_accepted(self):
        d = np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]])
        assert pcoa(d).eigenvalues.size == 1

    def test_asymmetry_above_tolerance_rejected(self):
        # 1e-9 apart at distances near 1: a relative tolerance of 1e-5 would accept it
        with pytest.raises(StructuralError, match="must be symmetric"):
            pcoa([[0, 1], [1 + 1e-9, 0]])

    def test_symmetry_tolerance_scales_with_the_distances(self):
        d = euclidean_distances(np.random.default_rng(4).normal(size=(6, 2)))
        big = d * 1e6
        assert np.array_equal(big, big.T)
        np.testing.assert_allclose(pcoa(big).eigenvalues, 1e12 * pcoa(d).eigenvalues,
                                   rtol=1e-9)
        big[0, 1] *= 1 + 1e-15      # round-off far above 1e-12 in absolute terms
        assert not np.array_equal(big, big.T)
        assert pcoa(big).eigenvalues.size == 2
        big[0, 1] *= 1 + 1e-9
        with pytest.raises(StructuralError, match="must be symmetric"):
            pcoa(big)


POINT_SETS = st.tuples(st.integers(3, 8), st.integers(1, 4)).flatmap(
    lambda shape: arrays(np.float64, shape,
                         elements=st.floats(-10.0, 10.0, allow_subnormal=False)))


class TestGowerEmbedding:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pts=POINT_SETS)
    def test_row_distances_reproduce_euclidean_distances(self, pts):
        """Gower (1966): PCoA of Euclidean distances embeds the points exactly.

        The eigenvalue cut drops at most n eigenvalues of at most
        ``EIG_TOL * lambda_max`` each, and lambda_max is below n * max(d^2),
        so squared distances agree to 1e-8 of the largest one.
        """
        d = euclidean_distances(pts)
        rebuilt = euclidean_distances(pcoa(d).coordinates)
        assert np.allclose(rebuilt ** 2, d ** 2, rtol=0.0,
                           atol=1e-8 * np.max(d ** 2) + 1e-12)


class TestExplainedVariance:
    def test_all_dims_is_hundred(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(8, 3))
        res = pcoa(euclidean_distances(pts))
        assert explained_variance(res, res.eigenvalues.size) == pytest.approx(100.0)

    def test_nine_to_one_split(self):
        from gesturemetrics.pcoa import PcoaResult
        fake = PcoaResult(coordinates=np.zeros((2, 2)),
                          eigenvalues=np.array([9.0, 1.0]),
                          dropped_negative_mass=0.0)
        assert explained_variance(fake, 1) == pytest.approx(90.0)

    def test_too_many_dims_rejected(self):
        from gesturemetrics.pcoa import PcoaResult
        fake = PcoaResult(coordinates=np.zeros((2, 1)),
                          eigenvalues=np.array([1.0]),
                          dropped_negative_mass=0.0)
        with pytest.raises(StructuralError):
            explained_variance(fake, 2)


def ols_r2_oracle(y, design_cols):
    """Direct normal-equations computation of R^2 for one response."""
    x = np.column_stack([np.ones(len(y)), design_cols])
    beta = np.linalg.solve(x.T @ x, x.T @ y)
    resid = y - x @ beta
    return 1.0 - (resid @ resid) / np.sum((y - y.mean()) ** 2)


class TestR2Recovery:
    def test_self_regression_all_ones(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=(40, 10))
        r2, flag = r2_recovery(y, y)
        assert np.allclose(r2, 1.0, atol=1e-10)
        assert not flag

    def test_invertible_remix_all_ones(self):
        rng = np.random.default_rng(12)
        y = rng.normal(size=(40, 10))
        mix = rng.normal(size=(10, 10))
        assert abs(np.linalg.det(mix)) > 1e-6
        r2, _ = r2_recovery(y, y @ mix)
        assert np.allclose(r2, 1.0, atol=1e-8)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(13)
        y_o = rng.normal(size=(30, 10))
        y_g = rng.normal(size=(30, 10))
        r2a, _ = r2_recovery(y_o, y_g)
        flips = np.where(rng.uniform(size=10) > 0.5, 1.0, -1.0)
        r2b, _ = r2_recovery(y_o * flips, y_g)
        assert np.allclose(r2a, r2b, atol=1e-10)

    def test_noise_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(14)
        n = 500
        y_o = rng.normal(size=(n, 10))
        y_g = rng.normal(size=(n, 10))
        r2, _ = r2_recovery(y_o, y_g)
        for j in range(10):
            assert r2[j] == pytest.approx(ols_r2_oracle(y_o[:, j], y_g), abs=1e-10)
        # independent noise: R^2 stays near the p/(n-1) chance level
        assert np.all(r2 < 5.0 * 10.0 / (n - 1))

    def test_rank_deficiency_flagged(self):
        rng = np.random.default_rng(15)
        y_o = rng.normal(size=(20, 3))
        y_g = rng.normal(size=(20, 3))
        y_g[:, 2] = y_g[:, 0]  # duplicated predictor
        _, flag = r2_recovery(y_o, y_g)
        assert flag

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(StructuralError, match="same number of rows"):
            r2_recovery(np.zeros((5, 2)), np.zeros((4, 2)))


class TestFidelityReport:
    def test_identity_comparison(self):
        rng = np.random.default_rng(16)
        data = rng.normal(size=(60, 28))
        report = fidelity_report(analyze_dataset_structure(data),
                                 analyze_dataset_structure(data.copy()))
        assert np.allclose(report["r2"], 1.0, atol=1e-8)
        assert report["eigen_spectrum_original"] == report["eigen_spectrum_generated"]
        assert 0 < report["explained_variance_original_pct"] <= 100.0
        assert len(report["eigen_spectrum_original"]) == 28

    def test_spectrum_padding(self):
        rng = np.random.default_rng(17)
        data = rng.normal(size=(30, 14))
        res = analyze_dataset_structure(data)
        report = fidelity_report(res, res)
        assert len(report["eigen_spectrum_original"]) == 28
        assert report["eigen_spectrum_original"][-1] == 0.0

    def test_dims_cut_to_retained(self):
        rng = np.random.default_rng(18)
        res_o = analyze_dataset_structure(rng.normal(size=(30, 14)))
        res_g = analyze_dataset_structure(rng.normal(size=(30, 14)))
        retained = min(res_o.eigenvalues.size, res_g.eigenvalues.size)
        y_o, y_g = leading_coordinates(res_o, res_g, 99)
        assert y_o.shape == y_g.shape == (14, retained)
        assert fidelity_report(res_o, res_g, dims=99)["dims"] == retained
        assert fidelity_report(res_o, res_g, dims=3)["dims"] == 3

    @pytest.mark.parametrize("shape", [(30, 15), (30,)])
    def test_matrix_width_must_be_a_multiple_of_fourteen(self, shape):
        data = np.random.default_rng(20).normal(size=shape)
        data[..., -1] = 1.0     # a dead last column is named in a warning
        with pytest.raises(StructuralError, match="N x \\(14\\*mu\\) dataset matrix"):
            analyze_dataset_structure(data)

    @pytest.mark.parametrize("dims", [0, -1])
    def test_dims_below_one_rejected(self, dims):
        res = analyze_dataset_structure(np.random.default_rng(19).normal(size=(30, 14)))
        with pytest.raises(StructuralError, match="dims must be at least 1"):
            fidelity_report(res, res, dims=dims)
