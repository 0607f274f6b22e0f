import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gesturemetrics.errors import DegenerateGeometryError, StructuralError
from gesturemetrics.procrustes import procrustes


def centered(rng, n, dim):
    x = rng.normal(size=(n, dim))
    return x - x.mean(axis=0)


def random_orthogonal(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q


def grid_search_ss(y_o, y_g, angle_step=1e-3, scale_step=1e-3, reflections=True):
    """Brute-force minimum of ||Y_O - s Y_G Q||^2 over a dense grid of 2-D
    rotations (and reflections, unless ``reflections`` is false) and positive
    scales. Independent of the SVD path."""
    m = y_g.T @ y_o
    c_oo = float(np.sum(y_o ** 2))
    g = float(np.sum(y_g ** 2))
    angles = np.arange(0.0, 2.0 * np.pi, angle_step)
    cos, sin = np.cos(angles), np.sin(angles)
    # trace(Q^T M) for proper rotations and for reflections
    t_rot = cos * (m[0, 0] + m[1, 1]) + sin * (m[0, 1] - m[1, 0])
    t_ref = cos * (m[0, 0] - m[1, 1]) + sin * (m[0, 1] + m[1, 0])
    traces = np.concatenate([t_rot, t_ref]) if reflections else t_rot
    s_max = max(2.0 * float(traces.max()) / g, 10.0 * scale_step)
    scales = np.arange(scale_step, s_max + scale_step, scale_step)
    # At a fixed trace t, ss(s) = c_oo - 2ts + gs^2 is convex in s, so its
    # minimum over the scale grid is at one of the two grid scales around t/g.
    upper = np.clip(np.searchsorted(scales, traces / g), 1, scales.size - 1)
    pair = np.stack([scales[upper - 1], scales[upper]])
    return float((c_oo - 2.0 * traces * pair + g * pair ** 2).min())


class TestExactCases:
    def test_identity(self):
        rng = np.random.default_rng(0)
        y = centered(rng, 8, 3)
        res = procrustes(y, y, mu=4)
        assert res["ss"] == pytest.approx(0.0, abs=1e-18)
        assert res["scale"] == pytest.approx(1.0, abs=1e-12)

    def test_scaled_rotated_copy_recovered(self):
        rng = np.random.default_rng(1)
        y_o = centered(rng, 10, 4)
        r = random_orthogonal(rng, 4)
        y_g = (1.0 / 3.0) * y_o @ r
        res = procrustes(y_o, y_g, mu=4)
        assert res["ss"] == pytest.approx(0.0, abs=1e-18)
        assert res["scale"] == pytest.approx(3.0, abs=1e-10)

    def test_normalization_is_exact_division(self):
        rng = np.random.default_rng(2)
        y_o = centered(rng, 12, 5)
        y_g = centered(rng, 12, 5)
        res = procrustes(y_o, y_g, mu=6)
        assert res["ss_normalized"] == res["ss"] / (14 * 6)


class TestGridOracle:
    @pytest.mark.parametrize("seed", range(10))
    def test_svd_matches_grid(self, seed):
        rng = np.random.default_rng(seed)
        y_o = centered(rng, 4, 2)
        y_g = centered(rng, 4, 2)
        res = procrustes(y_o, y_g, mu=4)
        oracle = grid_search_ss(y_o, y_g)
        assert res["ss"] == pytest.approx(oracle, abs=1e-4)
        assert res["ss"] <= oracle + 1e-12  # SVD result is the true minimum


def seeded_pair(seed, n, dim):
    """Two centred n x dim configurations drawn from one seeded generator."""
    rng = np.random.default_rng(seed)
    return centered(rng, n, dim), centered(rng, n, dim)


@st.composite
def centred_pairs(draw):
    """Two column-centred n x k configurations, n in 3-12 and k in 1-4, each with
    a spread far above the round-off of its centring."""
    n, k = draw(st.integers(3, 12)), draw(st.integers(1, 4))
    pair = []
    for _ in range(2):
        x = draw(arrays(float, (n, k), elements=st.floats(-10, 10, allow_subnormal=False)))
        x = x - x.mean(axis=0)
        assume(np.sum(x ** 2) > 1e-6)
        pair.append(x)
    return tuple(pair)


def same_ss(value, base, y_o):
    """``value`` equals ``base`` up to round-off on the scale of ``||y_o||^2``."""
    return value == pytest.approx(base, rel=1e-8, abs=1e-12 * np.sum(y_o ** 2))


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


class TestInvariances:
    @PROPERTY
    @given(pair=centred_pairs(), seed=st.integers(0, 2 ** 32 - 1))
    @example(pair=seeded_pair(4, 9, 3), seed=4)
    def test_rotation_invariance_both_sides(self, pair, seed):
        y_o, y_g = pair
        rng = np.random.default_rng(seed)
        base = procrustes(y_o, y_g, mu=4)["ss"]
        r1 = random_orthogonal(rng, y_o.shape[1])
        r2 = random_orthogonal(rng, y_o.shape[1])
        assert same_ss(procrustes(y_o @ r1, y_g, mu=4)["ss"], base, y_o)
        assert same_ss(procrustes(y_o, y_g @ r2, mu=4)["ss"], base, y_o)

    @PROPERTY
    @given(pair=centred_pairs(), factor=st.floats(1e-3, 1e3))
    @example(pair=seeded_pair(5, 9, 3), factor=7.3)
    def test_positive_rescaling_of_generated(self, pair, factor):
        y_o, y_g = pair
        base = procrustes(y_o, y_g, mu=4)["ss"]
        assert same_ss(procrustes(y_o, factor * y_g, mu=4)["ss"], base, y_o)

    @PROPERTY
    @given(pair=centred_pairs())
    @example(pair=seeded_pair(6, 6, 3))
    def test_upper_bound_norm_of_target(self, pair):
        y_o, y_g = pair
        res = procrustes(y_o, y_g, mu=4)
        assert res["ss"] <= np.sum(y_o ** 2) * (1 + 1e-12)

    def test_noise_monotonicity_spearman(self):
        rng = np.random.default_rng(7)
        y_o = centered(rng, 10, 4)
        eps = np.linspace(0.05, 2.0, 10)
        curves = []
        for _ in range(100):
            z = rng.normal(size=y_o.shape)
            z -= z.mean(axis=0)
            curves.append([procrustes(y_o, y_o + e * z, mu=4)["ss"] for e in eps])
        mean_ss = np.mean(curves, axis=0)
        ranks_e = np.argsort(np.argsort(eps))
        ranks_s = np.argsort(np.argsort(mean_ss))
        rho = np.corrcoef(ranks_e, ranks_s)[0, 1]
        assert rho > 0.9


class TestReflections:
    def test_reflection_allowed_by_default(self):
        rng = np.random.default_rng(8)
        y_o = centered(rng, 8, 3)
        flip = np.diag([1.0, 1.0, -1.0])
        res = procrustes(y_o, y_o @ flip, mu=4)
        assert res["ss"] == pytest.approx(0.0, abs=1e-16)

    def test_proper_rotation_flag_costs_residual(self):
        rng = np.random.default_rng(9)
        y_o = centered(rng, 8, 2)
        y_g = y_o @ np.diag([1.0, -1.0])
        ss = procrustes(y_o, y_g, mu=4, allow_reflections=False)["ss"]
        oracle = grid_search_ss(y_o, y_g, reflections=False)
        assert ss == pytest.approx(oracle, abs=1e-4)
        assert ss <= oracle + 1e-12
        assert ss > 0


class TestErrors:
    def test_all_zero_generated_rejected(self):
        rng = np.random.default_rng(10)
        with pytest.raises(DegenerateGeometryError):
            procrustes(centered(rng, 5, 2), np.zeros((5, 2)), mu=4)

    @pytest.mark.parametrize("side", [0, 1])
    def test_configuration_whose_squares_overflow_rejected(self, side):
        rng = np.random.default_rng(13)
        pair = [centered(rng, 4, 2), centered(rng, 4, 2)]
        pair[side] = np.array([[1e308, 0.0], [-1e308, 0.0], [0.0, 1.0], [0.0, -1.0]])
        name = ("first", "second")[side]
        with pytest.raises(StructuralError, match=f"{name} configuration's values lie too far"):
            procrustes(*pair, mu=4)

    def test_uncentered_configuration_whose_mean_overflows_rejected(self):
        rng = np.random.default_rng(14)
        with pytest.raises(StructuralError, match="second configuration is not column-centered"):
            procrustes(centered(rng, 4, 2), np.full((4, 2), 1e308), mu=4)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(StructuralError):
            procrustes(centered(rng, 5, 2), centered(rng, 6, 2), mu=4)

    def test_uncentered_input_rejected(self):
        rng = np.random.default_rng(12)
        y = centered(rng, 5, 2) + 10.0
        with pytest.raises(StructuralError):
            procrustes(y, y, mu=4)

    def test_anti_correlated_flagged(self):
        y_o = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        res = procrustes(y_o, y_o, mu=4)
        assert not res["anti_correlated"]
        # a proper rotation of one axis is the identity, so -y cannot be turned onto y
        y = np.array([[1.0], [-1.0], [2.0], [-2.0]])
        res = procrustes(y, -y, mu=1, allow_reflections=False)
        assert res["anti_correlated"]
        assert res["scale"] == 1e-12
        assert res["ss"] == pytest.approx(10.0)

    @pytest.mark.parametrize("mu", [0, -1, 0.5])
    def test_mu_below_one_rejected(self, mu):
        y = centered(np.random.default_rng(13), 4, 2)
        with pytest.raises(StructuralError, match=f"mu must be at least 1, got {mu}"):
            procrustes(y, y, mu=mu)
