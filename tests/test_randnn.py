import math

import numpy as np
import pytest

from randfnn.encoding import TrainingSet
from randfnn.errors import ParameterError, ShapeError
from randfnn.numerics import fit_hyperplane, knn, sigmoid
from randfnn.randnn import (
    HiddenLayer,
    HyperParams,
    RandFnnModel,
    derive_rng,
    fit,
    gen_ddm,
    gen_ralpham,
    gen_ram,
    gen_standard,
    hidden_output,
    make_layer,
    predict,
)


def random_phi(n_pairs=30, n=24, p=24, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_pairs, n))
    x -= x.mean(axis=1, keepdims=True)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return TrainingSet.from_arrays(x, rng.normal(size=(n_pairs, p)))


def linear_phi(n_pairs=40, n=8, seed=1):
    """Scalar targets exactly affine in x: y = c.x + d."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=n)
    d = rng.normal()
    x = rng.normal(size=(n_pairs, n))
    return TrainingSet.from_arrays(x, (x @ c + d)[:, None]), c, d


def anchor_deviation(layer, x_patterns):
    """Max |h(anchor) - 0.5| over nodes."""
    anchors = layer.anchor_indices
    acts = sigmoid(np.einsum("ij,ij->i", layer.weights, x_patterns[anchors])
                   + layer.biases)
    return np.abs(acts - 0.5).max()


class TestGenStandard:
    def test_bounds(self):
        layer = gen_standard(10, 24, 0.01, derive_rng(0))
        assert np.abs(layer.weights).max() <= 0.01
        assert np.abs(layer.biases).max() <= 0.01

    def test_deterministic(self):
        a = gen_standard(5, 8, 1.0, derive_rng(42))
        b = gen_standard(5, 8, 1.0, derive_rng(42))
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.biases, b.biases)

    def test_distribution_sanity(self):
        # mean of 240 U(-1,1) draws within 3 sigma of 0
        layer = gen_standard(10, 24, 1.0, derive_rng(7))
        sigma = (1.0 / math.sqrt(3.0)) / math.sqrt(240.0)
        assert abs(layer.weights.mean()) < 3.0 * sigma

    def test_bad_u(self):
        with pytest.raises(ParameterError):
            gen_standard(5, 8, 0.0, derive_rng(0))


class TestGenRam:
    def test_inflection_on_anchor(self):
        phi = random_phi()
        layer = gen_ram(20, 0.5, phi.x, derive_rng(3))
        assert anchor_deviation(layer, phi.x) <= 1e-12

    def test_bias_reproducible_from_anchor(self):
        phi = random_phi()
        layer = gen_ram(20, 0.5, phi.x, derive_rng(3))
        for j in range(layer.m):
            dot = float(layer.weights[j] @ phi.x[layer.anchor_indices[j]])
            assert layer.biases[j] == pytest.approx(-dot, abs=1e-12)

    def test_tiny_u_flattens_outputs(self):
        phi = random_phi()
        layer = gen_ram(10, 1e-9, phi.x, derive_rng(1))
        h = hidden_output(layer, np.random.default_rng(0).normal(size=(5, 24)))
        np.testing.assert_allclose(h, 0.5, atol=1e-6)

    def test_anchors_sample_with_replacement(self):
        phi = random_phi(n_pairs=5)
        layer = gen_ram(20, 1.0, phi.x, derive_rng(2))
        assert set(layer.anchor_indices) <= set(range(5))
        assert len(set(layer.anchor_indices)) < 20  # pigeonhole: repeats exist

    def test_weight_bounds(self):
        phi = random_phi()
        layer = gen_ram(50, 0.2, phi.x, derive_rng(9))
        assert np.abs(layer.weights).max() <= 0.2

    def test_empty_patterns(self):
        with pytest.raises(ParameterError):
            gen_ram(5, 1.0, np.empty((0, 24)), derive_rng(0))


class TestGenRalpham:
    def test_magnitude_law(self):
        phi = random_phi()
        layer = gen_ralpham(15, 40.0, phi.x, derive_rng(4))
        np.testing.assert_allclose(
            np.abs(layer.weights), 4.0 * np.tan(np.radians(layer.angles)),
            rtol=1e-12)
        assert np.all(layer.angles >= 0) and np.all(layer.angles <= 40.0)

    def test_45_degrees_maps_to_4(self):
        assert 4.0 * math.tan(math.radians(45.0)) == pytest.approx(4.0, rel=1e-15)

    def test_small_alpha_bounds_weights(self):
        phi = random_phi()
        layer = gen_ralpham(20, 2.0, phi.x, derive_rng(5))
        cap = 4.0 * math.tan(math.radians(2.0))
        assert cap == pytest.approx(0.1396831, abs=1e-7)
        assert np.abs(layer.weights).max() <= cap

    def test_signs_go_both_ways(self):
        phi = random_phi()
        layer = gen_ralpham(10, 30.0, phi.x, derive_rng(6))
        assert (layer.weights > 0).any() and (layer.weights < 0).any()

    def test_inflection_on_anchor(self):
        phi = random_phi()
        layer = gen_ralpham(20, 60.0, phi.x, derive_rng(7))
        assert anchor_deviation(layer, phi.x) <= 1e-12

    def test_singularity_guard(self):
        phi = random_phi()
        with pytest.raises(ParameterError):
            gen_ralpham(5, 90.0, phi.x, derive_rng(0))
        with pytest.raises(ParameterError):
            gen_ralpham(5, 0.0, phi.x, derive_rng(0))


class TestGenDdm:
    def test_exact_linear_recovery(self):
        phi, c, _ = linear_phi()
        layer = gen_ddm(12, 9, phi, derive_rng(8))  # k = n+1
        np.testing.assert_allclose(layer.weights, np.tile(4.0 * c, (12, 1)),
                                   atol=1e-6)

    def test_full_neighborhood_shares_slope(self):
        phi, c, _ = linear_phi(n_pairs=20)
        layer = gen_ddm(8, 19, phi, derive_rng(9))  # k = N-1: whole set
        np.testing.assert_allclose(layer.weights,
                                   np.tile(layer.weights[0], (8, 1)), atol=1e-8)

    def test_matches_local_ols_oracle(self):
        phi = random_phi(n_pairs=30, n=6, p=3, seed=10)
        k = 5
        layer = gen_ddm(25, k, phi, derive_rng(10))
        for j in range(layer.m):
            centre = layer.anchor_indices[j]
            comp = layer.output_components[j]
            # independent oracle: brute-force neighbors + lstsq with intercept
            d = np.linalg.norm(phi.x - phi.x[centre], axis=1)
            order = [i for i in np.argsort(d, kind="stable") if i != centre][:k]
            hood = [centre] + order
            design = np.hstack([phi.x[hood], np.ones((k + 1, 1))])
            sol, *_ = np.linalg.lstsq(design, phi.y[hood, comp], rcond=None)
            np.testing.assert_allclose(layer.weights[j], 4.0 * sol[:-1], atol=1e-6)

    def test_inflection_on_anchor(self):
        phi = random_phi()
        layer = gen_ddm(20, 10, phi, derive_rng(11))
        assert anchor_deviation(layer, phi.x) <= 1e-12

    def test_k_bounds(self):
        phi = random_phi(n_pairs=10)
        with pytest.raises(ParameterError):
            gen_ddm(5, 10, phi, derive_rng(0))  # k >= N
        with pytest.raises(ParameterError):
            gen_ddm(5, 0, phi, derive_rng(0))

    def test_components_cover_outputs(self):
        phi = random_phi(n_pairs=40, p=24)
        layer = gen_ddm(200, 5, phi, derive_rng(12))
        assert set(layer.output_components) == set(range(24))


def reference_ddm(m, k, phi, rng):
    """gen_ddm without its cache: a kNN and a hyperplane fit per node."""
    anchors = rng.integers(0, len(phi), size=m)
    components = rng.integers(0, phi.y.shape[1], size=m)
    weights = np.empty((m, phi.n))
    for j, (centre, comp) in enumerate(zip(anchors, components)):
        hood = np.concatenate(([centre], knn(phi.x, phi.x[centre], k)))
        weights[j] = 4.0 * fit_hyperplane(phi.x[hood], phi.y[hood, comp])[0]
    return weights, -np.einsum("ij,ij->i", weights, phi.x[anchors])


def assert_same_bits(layer, reference):
    weights, biases = reference
    assert layer.weights.tobytes() == weights.tobytes()
    assert layer.biases.tobytes() == biases.tobytes()


class TestDdmCache:
    """gen_ddm's per-training-set cache must leave every layer's bits as
    the uncached per-node fits give them."""

    @pytest.mark.parametrize("k", [1, 31, 59])  # 59 = N - 1
    @pytest.mark.parametrize("n, p", [(24, 24), (12, 5)])
    def test_matches_uncached_fits(self, k, n, p):
        phi = random_phi(n_pairs=60, n=n, p=p, seed=k + n)
        for t in range(12):  # later layers hit entries earlier ones filled
            m = (5, 20, 50)[t % 3]
            assert_same_bits(gen_ddm(m, k, phi, derive_rng(3, t)),
                             reference_ddm(m, k, phi, derive_rng(3, t)))
        assert phi.memo["ddm"].k == k

    def test_duplicated_x_row(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(25, 6))
        x[9] = x[4]  # knn drops only the first equal row, whichever is the anchor
        phi = TrainingSet.from_arrays(x, rng.normal(size=(25, 3)))
        for t in range(20):
            assert_same_bits(gen_ddm(30, 6, phi, derive_rng(4, t)),
                             reference_ddm(30, 6, phi, derive_rng(4, t)))

    def test_switching_k_refills(self):
        phi = random_phi(n_pairs=40, n=8, p=4, seed=5)
        for t, k in enumerate((5, 9, 5, 9)):
            assert_same_bits(gen_ddm(20, k, phi, derive_rng(6, t)),
                             reference_ddm(20, k, phi, derive_rng(6, t)))

    def test_sets_of_one_shape_share_nothing(self):
        a = random_phi(n_pairs=30, n=8, p=4, seed=1)
        b = random_phi(n_pairs=30, n=8, p=4, seed=2)
        for t in range(6):  # interleaved, same seeds on both sets
            for phi in (a, b):
                assert_same_bits(gen_ddm(20, 7, phi, derive_rng(7, t)),
                                 reference_ddm(20, 7, phi, derive_rng(7, t)))
        assert a.memo["ddm"] is not b.memo["ddm"]
        assert not np.array_equal(gen_ddm(20, 7, a, derive_rng(8)).weights,
                                  gen_ddm(20, 7, b, derive_rng(8)).weights)


class TestHiddenOutput:
    def test_zero_layer_gives_half(self):
        layer = HiddenLayer("standard", np.zeros((3, 4)), np.zeros(3))
        np.testing.assert_array_equal(
            hidden_output(layer, np.ones((2, 4))), np.full((2, 3), 0.5))

    def test_single_node_single_pattern(self):
        layer = HiddenLayer("standard", np.array([[1.0, -1.0]]), np.array([0.25]))
        h = hidden_output(layer, np.array([[0.5, 0.3]]))
        assert h[0, 0] == pytest.approx(sigmoid(0.5 - 0.3 + 0.25), rel=1e-15)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(13)
        layer = gen_standard(3, 5, 1.0, derive_rng(13))
        X = rng.normal(size=(4, 5))
        h = hidden_output(layer, X)
        for i in range(4):
            for j in range(3):
                expected = 1.0 / (1.0 + math.exp(-(layer.weights[j] @ X[i]
                                                   + layer.biases[j])))
                assert h[i, j] == pytest.approx(expected, abs=1e-15)

    def test_dimension_mismatch(self):
        layer = gen_standard(3, 5, 1.0, derive_rng(0))
        with pytest.raises(ShapeError):
            hidden_output(layer, np.ones((2, 7)))


class TestFitPredict:
    def test_interpolation_regime(self):
        phi = random_phi(n_pairs=10, n=24, p=4, seed=14)
        layer = gen_ram(40, 1.0, phi.x, derive_rng(14))  # m >= N
        model = fit(layer, phi)
        np.testing.assert_allclose(predict(model, phi.x), phi.y, atol=1e-6)

    def test_scalar_case(self):
        phi = TrainingSet.from_arrays([[2.0]], [[3.0]])
        layer = HiddenLayer("standard", np.array([[1.0]]), np.array([0.0]))
        model = fit(layer, phi)
        h = sigmoid(2.0)
        assert model.beta[0, 0] == pytest.approx(3.0 / h, rel=1e-12)

    def test_matches_ridge_oracle(self):
        phi = random_phi(n_pairs=20, n=24, p=24, seed=15)
        layer = gen_ram(10, 0.8, phi.x, derive_rng(15))
        model = fit(layer, phi)
        H = hidden_output(layer, phi.x)
        ridge = np.linalg.solve(H.T @ H + 1e-10 * np.eye(10), H.T @ phi.y)
        res = np.linalg.norm(H @ model.beta - phi.y)
        res_oracle = np.linalg.norm(H @ ridge - phi.y)
        assert abs(res - res_oracle) < 1e-6

    def test_fit_residual_optimality(self):
        phi = random_phi(n_pairs=25, n=24, p=6, seed=16)
        layer = gen_ram(8, 0.5, phi.x, derive_rng(16))
        model = fit(layer, phi)
        H = hidden_output(layer, phi.x)
        base = np.linalg.norm(H @ model.beta - phi.y)
        rng = np.random.default_rng(16)
        for _ in range(20):
            other = model.beta + rng.normal(size=model.beta.shape) * 0.01
            assert base <= np.linalg.norm(H @ other - phi.y) + 1e-8

    def test_predict_zero_beta(self):
        layer = gen_standard(4, 6, 1.0, derive_rng(17))
        model = fit(layer, TrainingSet.from_arrays(np.eye(6), np.zeros((6, 2))))
        np.testing.assert_allclose(predict(model, np.ones(6)), 0.0, atol=1e-12)

    def test_predict_compositional_oracle(self):
        phi = random_phi(seed=18)
        layer = gen_ram(12, 0.7, phi.x, derive_rng(18))
        model = fit(layer, phi)
        x = np.random.default_rng(18).normal(size=24)
        manual = sigmoid(layer.weights @ x + layer.biases) @ model.beta
        np.testing.assert_allclose(predict(model, x), manual, atol=1e-12)

    def test_predict_batch_and_single_agree(self):
        # Cases run in a loop rather than through parametrize so the test
        # keeps its id. beta = I makes predict return the hidden product
        # itself, exactly, so both products are pinned.
        phi = random_phi(seed=19)
        for m in (6, 50):
            layer = gen_ram(m, 0.3, phi.x, derive_rng(19))
            models = {"hidden": RandFnnModel(layer, np.eye(m)), "output": fit(layer, phi)}
            for rows in (1, 3, 30):
                for name, model in models.items():
                    batch = predict(model, phi.x[:rows])
                    singles = np.array([predict(model, x) for x in phi.x[:rows]])
                    np.testing.assert_array_equal(
                        batch, singles, err_msg=f"{name} product, m={m}, rows={rows}")

    @pytest.mark.parametrize("m", [6, 20, 50, 120])
    @pytest.mark.parametrize("method,smoothing", [("ram", 0.05), ("ralpham", 10.0)])
    def test_single_row_path_unchanged(self, method, smoothing, m):
        # A lone query keeps the bits of the plain hidden_output(...) @ beta
        # path, and a 40-row stack gives exactly those rows.
        phi = random_phi(n_pairs=40, seed=25)
        hp = HyperParams(method, m, smoothing, seed=25)
        model = fit(make_layer(hp, phi), phi)
        queries = np.random.default_rng(25).normal(size=(40, 24))
        plain = np.array([(hidden_output(model.hidden, x[None]) @ model.beta)[0]
                          for x in queries])
        for i, x in enumerate(queries):
            np.testing.assert_array_equal(predict(model, x), plain[i])
        np.testing.assert_array_equal(predict(model, queries), plain)


class TestMakeLayerAndDeterminism:
    @pytest.mark.parametrize("method,smoothing", [
        ("standard", 0.5), ("ram", 0.5), ("ralpham", 30.0), ("ddm", 7.0)])
    def test_full_determinism(self, method, smoothing):
        phi = random_phi(seed=20)
        hp = HyperParams(method, 9, smoothing, seed=123)
        a = fit(make_layer(hp, phi), phi)
        b = fit(make_layer(hp, phi), phi)
        np.testing.assert_array_equal(a.hidden.weights, b.hidden.weights)
        np.testing.assert_array_equal(a.hidden.biases, b.hidden.biases)
        np.testing.assert_array_equal(a.beta, b.beta)

    def test_ralpham_90_label_clamped(self):
        phi = random_phi(seed=21)
        layer = make_layer(HyperParams("ralpham", 5, 90.0, seed=0), phi)
        assert np.all(layer.angles < 90.0)
        assert np.all(layer.angles <= 89.9)

    def test_method_dispatch(self):
        phi = random_phi(seed=22)
        for method, smoothing in [("standard", 0.1), ("ram", 0.1),
                                  ("ralpham", 15.0), ("ddm", 5.0)]:
            layer = make_layer(HyperParams(method, 4, smoothing), phi)
            assert layer.method == method
            assert layer.m == 4

    def test_hyperparams_validation(self):
        with pytest.raises(ParameterError):
            HyperParams("bogus", 5, 0.5)
        with pytest.raises(ParameterError):
            HyperParams("ram", 0, 0.5)
        with pytest.raises(ParameterError):
            HyperParams("ram", 5, 0.0)
        with pytest.raises(ParameterError):
            HyperParams("ralpham", 5, 95.0)
        with pytest.raises(ParameterError):
            HyperParams("ddm", 5, 2.5)
