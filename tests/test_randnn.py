import math
import re
from datetime import date, timedelta

import numpy as np
import pytest

from randfnn.encoding import TrainingSet, build_training_set
from randfnn.errors import EmptyTrainingSet, ParameterError, ShapeError
from randfnn.numerics import fit_hyperplane, sigmoid
from randfnn.randnn import MAX_U, HyperParams, derive_rng, fit, hidden_output, make_layer, predict
from randfnn.timeseries import SynthSpec, synth_generate
from randfnn.tuning import default_grid

import reference as ref


def random_phi(n_pairs=30, n=24, p=24, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_pairs, n))
    x -= x.mean(axis=1, keepdims=True)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return TrainingSet(x, rng.normal(size=(n_pairs, p)))


def linear_phi(n_pairs=40, n=8, seed=1):
    """Scalar targets exactly affine in x: y = c.x + d."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=n)
    d = rng.normal()
    x = rng.normal(size=(n_pairs, n))
    return TrainingSet(x, (x @ c + d)[:, None]), c, d


def draw(method, m, smoothing, phi, *keys):
    """One layer of `method`, drawn from derive_rng(*keys) by the
    one-layer reference."""
    return ref.make_layer(HyperParams(method, m, smoothing), phi, derive_rng(*keys))


def stacked(layer):
    """`layer` as a stack of one, as the kernel takes it."""
    return layer.weights[None], layer.biases[None]


def anchor_deviation(layer, x_patterns):
    """Max |h(anchor) - 0.5| over nodes."""
    anchors = layer.anchor_indices
    acts = sigmoid(np.einsum("ij,ij->i", layer.weights, x_patterns[anchors])
                   + layer.biases)
    return np.abs(acts - 0.5).max()


class TestGenStandard:
    def test_bounds(self):
        layer = draw("standard", 10, 0.01, random_phi(), 0)
        assert np.abs(layer.weights).max() <= 0.01
        assert np.abs(layer.biases).max() <= 0.01

    def test_deterministic(self):
        phi = random_phi(n=8)
        a = draw("standard", 5, 1.0, phi, 42)
        b = draw("standard", 5, 1.0, phi, 42)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.biases, b.biases)

    def test_distribution_sanity(self):
        # mean of 240 U(-1,1) draws within 3 sigma of 0
        layer = draw("standard", 10, 1.0, random_phi(), 7)
        sigma = (1.0 / math.sqrt(3.0)) / math.sqrt(240.0)
        assert abs(layer.weights.mean()) < 3.0 * sigma

    def test_bad_u(self):
        with pytest.raises(ParameterError):
            draw("standard", 5, 0.0, random_phi(n=8), 0)


class TestGenRam:
    def test_inflection_on_anchor(self):
        phi = random_phi()
        layer = draw("ram", 20, 0.5, phi, 3)
        assert anchor_deviation(layer, phi.x) <= 1e-12

    def test_bias_reproducible_from_anchor(self):
        phi = random_phi()
        layer = draw("ram", 20, 0.5, phi, 3)
        for j in range(layer.m):
            dot = float(layer.weights[j] @ phi.x[layer.anchor_indices[j]])
            assert layer.biases[j] == pytest.approx(-dot, abs=1e-12)

    def test_tiny_u_flattens_outputs(self):
        phi = random_phi()
        layer = draw("ram", 10, 1e-9, phi, 1)
        h = ref.hidden_output(layer, np.random.default_rng(0).normal(size=(5, 24)))
        np.testing.assert_allclose(h, 0.5, atol=1e-6)

    def test_anchors_sample_with_replacement(self):
        phi = random_phi(n_pairs=5)
        layer = draw("ram", 20, 1.0, phi, 2)
        assert set(layer.anchor_indices) <= set(range(5))
        assert len(set(layer.anchor_indices)) < 20  # pigeonhole: repeats exist

    def test_weight_bounds(self):
        phi = random_phi()
        layer = draw("ram", 50, 0.2, phi, 9)
        assert np.abs(layer.weights).max() <= 0.2

    def test_empty_patterns(self):
        # a ram layer never sees an empty set: no TrainingSet is empty
        with pytest.raises(EmptyTrainingSet):
            TrainingSet(np.empty((0, 24)), np.empty((0, 24)))


class TestGenRalpham:
    def test_magnitude_law(self):
        phi = random_phi()
        layer = draw("ralpham", 15, 40.0, phi, 4)
        angles = derive_rng(4).uniform(0.0, 40.0, size=(15, 24))  # the layer's first draw
        np.testing.assert_allclose(
            np.abs(layer.weights), 4.0 * np.tan(np.radians(angles)), rtol=1e-12)
        assert np.all(angles >= 0) and np.all(angles <= 40.0)

    def test_45_degrees_maps_to_4(self):
        assert 4.0 * math.tan(math.radians(45.0)) == pytest.approx(4.0, rel=1e-15)

    def test_small_alpha_bounds_weights(self):
        phi = random_phi()
        layer = draw("ralpham", 20, 2.0, phi, 5)
        cap = 4.0 * math.tan(math.radians(2.0))
        assert cap == pytest.approx(0.1396831, abs=1e-7)
        assert np.abs(layer.weights).max() <= cap

    def test_signs_go_both_ways(self):
        phi = random_phi()
        layer = draw("ralpham", 10, 30.0, phi, 6)
        assert (layer.weights > 0).any() and (layer.weights < 0).any()

    def test_inflection_on_anchor(self):
        phi = random_phi()
        layer = draw("ralpham", 20, 60.0, phi, 7)
        assert anchor_deviation(layer, phi.x) <= 1e-12

    def test_singularity_guard(self):
        # 90 is a legal label, drawn at 89.9 (test_ralpham_90_label_clamped)
        phi = random_phi()
        for alpha_max in (0.0, 95.0):
            with pytest.raises(ParameterError):
                draw("ralpham", 5, alpha_max, phi, 0)


class TestGenDdm:
    def test_exact_linear_recovery(self):
        phi, c, _ = linear_phi()
        layer = draw("ddm", 12, 9, phi, 8)  # k = n+1
        np.testing.assert_allclose(layer.weights, np.tile(4.0 * c, (12, 1)),
                                   atol=1e-6)

    def test_full_neighborhood_shares_slope(self):
        phi, c, _ = linear_phi(n_pairs=20)
        layer = draw("ddm", 8, 19, phi, 9)  # k = N-1: whole set
        np.testing.assert_allclose(layer.weights,
                                   np.tile(layer.weights[0], (8, 1)), atol=1e-8)

    def test_matches_local_ols_oracle(self):
        phi = random_phi(n_pairs=30, n=6, p=3, seed=10)
        k = 5
        layer = draw("ddm", 25, k, phi, 10)
        anchors, components = ddm_draws(25, phi, derive_rng(10))
        np.testing.assert_array_equal(layer.anchor_indices, anchors)
        for j in range(layer.m):
            centre = layer.anchor_indices[j]
            comp = components[j]
            # independent oracle: brute-force neighbors + lstsq with intercept
            d = np.linalg.norm(phi.x - phi.x[centre], axis=1)
            order = [i for i in np.argsort(d, kind="stable") if i != centre][:k]
            hood = [centre] + order
            design = np.hstack([phi.x[hood], np.ones((k + 1, 1))])
            sol, *_ = np.linalg.lstsq(design, phi.y[hood, comp], rcond=None)
            np.testing.assert_allclose(layer.weights[j], 4.0 * sol[:-1], atol=1e-6)

    def test_inflection_on_anchor(self):
        phi = random_phi()
        layer = draw("ddm", 20, 10, phi, 11)
        assert anchor_deviation(layer, phi.x) <= 1e-12

    def test_k_bounds(self):
        phi = random_phi(n_pairs=10)
        with pytest.raises(ParameterError):
            draw("ddm", 5, 10, phi, 0)  # k >= N
        with pytest.raises(ParameterError):
            draw("ddm", 5, 0, phi, 0)

    def test_components_cover_outputs(self):
        phi = random_phi(n_pairs=40, p=24)
        layer = draw("ddm", 200, 5, phi, 12)
        anchors, components = ddm_draws(200, phi, derive_rng(12))
        np.testing.assert_array_equal(layer.anchor_indices, anchors)
        assert set(components) == set(range(24))


def ddm_draws(m, phi, rng):
    """A ddm layer's anchors and target components, as one generator draws them."""
    return rng.integers(0, len(phi), size=m), rng.integers(0, phi.y.shape[1], size=m)


def reference_ddm(m, k, phi, rng):
    """A ddm layer without the cache: a kNN and a hyperplane fit per node,
    all target columns in one block, as the table solves them."""
    anchors, components = ddm_draws(m, phi, rng)
    weights = np.empty((m, phi.n))
    for j, (centre, comp) in enumerate(zip(anchors, components)):
        hood = np.concatenate(([centre], ref.knn(phi.x, phi.x[centre], k)))
        weights[j] = 4.0 * fit_hyperplane(phi.x[hood], phi.y[hood])[0][comp]
    return weights, -np.einsum("ij,ij->i", weights, phi.x[anchors])


def assert_same_bits(layer, reference):
    weights, biases = reference
    assert layer.weights.tobytes() == weights.tobytes()
    assert layer.biases.tobytes() == biases.tobytes()


class TestDdmCache:
    """ddm's per-training-set cache must leave every layer's bits as
    the uncached per-node fits give them."""

    @pytest.mark.parametrize("k", [1, 31, 59])  # 59 = N - 1
    @pytest.mark.parametrize("n, p", [(24, 24), (12, 5)])
    def test_matches_uncached_fits(self, k, n, p):
        phi = random_phi(n_pairs=60, n=n, p=p, seed=k + n)
        for t in range(12):  # later layers hit entries earlier ones filled
            m = (5, 20, 50)[t % 3]
            assert_same_bits(draw("ddm", m, k, phi, 3, t),
                             reference_ddm(m, k, phi, derive_rng(3, t)))
        assert list(phi.memo) == [("ddm", k)]  # one table per k

    def test_matches_uncached_fits_at_workload_shape(self):
        # a ddm_fixed day: N=178 pairs, n = p = 24, k=31, 100 trials of m=20
        phi = random_phi(n_pairs=178, n=24, p=24, seed=178)
        weights, biases = make_layer("ddm", 20, [31.0], phi,
                                     [derive_rng(9, t) for t in range(100)])
        for t in range(100):
            ref_weights, ref_biases = reference_ddm(20, 31, phi, derive_rng(9, t))
            assert weights[t].tobytes() == ref_weights.tobytes()
            assert biases[t].tobytes() == ref_biases.tobytes()

    def test_duplicated_x_row(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(25, 6))
        x[9] = x[4]  # knn drops only the first equal row, whichever is the anchor
        phi = TrainingSet(x, rng.normal(size=(25, 3)))
        for t in range(20):
            assert_same_bits(draw("ddm", 30, 6, phi, 4, t),
                             reference_ddm(30, 6, phi, derive_rng(4, t)))

    def test_switching_k_refills(self):
        # each k keeps its own table: switching back reads it, unchanged
        phi = random_phi(n_pairs=40, n=8, p=4, seed=5)
        for t, k in enumerate((5, 9, 5, 9)):
            assert_same_bits(draw("ddm", 20, k, phi, 6, t),
                             reference_ddm(20, k, phi, derive_rng(6, t)))
        assert sorted(phi.memo) == [("ddm", 5), ("ddm", 9)]

    def test_sets_of_one_shape_share_nothing(self):
        a = random_phi(n_pairs=30, n=8, p=4, seed=1)
        b = random_phi(n_pairs=30, n=8, p=4, seed=2)
        for t in range(6):  # interleaved, same seeds on both sets
            for phi in (a, b):
                assert_same_bits(draw("ddm", 20, 7, phi, 7, t),
                                 reference_ddm(20, 7, phi, derive_rng(7, t)))
        assert a.memo["ddm", 7] is not b.memo["ddm", 7]
        assert not np.array_equal(draw("ddm", 20, 7, a, 8).weights,
                                  draw("ddm", 20, 7, b, 8).weights)


class TestHiddenOutput:
    def test_zero_layer_gives_half(self):
        layers = np.zeros((1, 3, 4)), np.zeros((1, 3))
        np.testing.assert_array_equal(
            hidden_output(layers, np.ones((2, 4))), np.full((1, 2, 3), 0.5))

    def test_single_node_single_pattern(self):
        layers = np.array([[[1.0, -1.0]]]), np.array([[0.25]])
        h = hidden_output(layers, np.array([[0.5, 0.3]]))
        assert h[0, 0, 0] == pytest.approx(sigmoid(0.5 - 0.3 + 0.25), rel=1e-15)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(13)
        layer = draw("standard", 3, 1.0, random_phi(n=5), 13)
        X = rng.normal(size=(4, 5))
        h = hidden_output(stacked(layer), X)[0]
        for i in range(4):
            for j in range(3):
                expected = 1.0 / (1.0 + math.exp(-(layer.weights[j] @ X[i]
                                                   + layer.biases[j])))
                assert h[i, j] == pytest.approx(expected, abs=1e-15)

    def test_dimension_mismatch(self):
        layer = draw("standard", 3, 1.0, random_phi(n=5), 0)
        with pytest.raises(ShapeError):
            hidden_output(stacked(layer), np.ones((2, 7)))


class TestFitPredict:
    def test_interpolation_regime(self):
        phi = random_phi(n_pairs=10, n=24, p=4, seed=14)
        layers = stacked(draw("ram", 40, 1.0, phi, 14))  # m >= N
        np.testing.assert_allclose(predict(layers, phi.x, fit(layers, phi))[0], phi.y, atol=1e-6)

    def test_scalar_case(self):
        phi = TrainingSet([[2.0]], [[3.0]])
        beta = fit((np.array([[[1.0]]]), np.array([[0.0]])), phi)
        h = sigmoid(2.0)
        assert beta[0, 0, 0] == pytest.approx(3.0 / h, rel=1e-12)

    def test_matches_ridge_oracle(self):
        phi = random_phi(n_pairs=20, n=24, p=24, seed=15)
        layers = stacked(draw("ram", 10, 0.8, phi, 15))
        beta = fit(layers, phi)[0]
        H = hidden_output(layers, phi.x)[0]
        ridge = np.linalg.solve(H.T @ H + 1e-10 * np.eye(10), H.T @ phi.y)
        res = np.linalg.norm(H @ beta - phi.y)
        res_oracle = np.linalg.norm(H @ ridge - phi.y)
        assert abs(res - res_oracle) < 1e-6

    def test_fit_residual_optimality(self):
        phi = random_phi(n_pairs=25, n=24, p=6, seed=16)
        layers = stacked(draw("ram", 8, 0.5, phi, 16))
        beta = fit(layers, phi)[0]
        H = hidden_output(layers, phi.x)[0]
        base = np.linalg.norm(H @ beta - phi.y)
        rng = np.random.default_rng(16)
        for _ in range(20):
            other = beta + rng.normal(size=beta.shape) * 0.01
            assert base <= np.linalg.norm(H @ other - phi.y) + 1e-8

    def test_predict_zero_beta(self):
        phi = TrainingSet(np.eye(6), np.zeros((6, 2)))
        layers = stacked(draw("standard", 4, 1.0, phi, 17))
        np.testing.assert_allclose(predict(layers, np.ones((1, 6)), fit(layers, phi)), 0.0,
                                   atol=1e-12)

    def test_predict_compositional_oracle(self):
        phi = random_phi(seed=18)
        layer = draw("ram", 12, 0.7, phi, 18)
        beta = fit(stacked(layer), phi)
        x = np.random.default_rng(18).normal(size=24)
        manual = sigmoid(layer.weights @ x + layer.biases) @ beta[0]
        np.testing.assert_allclose(predict(stacked(layer), x[None], beta)[0, 0], manual,
                                   atol=1e-12)

    def test_predict_batch_and_single_agree(self):
        # Cases run in a loop rather than through parametrize so the test
        # keeps its id. beta = I makes predict return the hidden product
        # itself, exactly, so both products are pinned.
        phi = random_phi(seed=19)
        for m in (6, 50):
            layers = stacked(draw("ram", m, 0.3, phi, 19))
            betas = {"hidden": np.eye(m)[None], "output": fit(layers, phi)}
            for rows in (1, 3, 30):
                for name, beta in betas.items():
                    batch = predict(layers, phi.x[:rows], beta)
                    singles = np.concatenate([predict(layers, x[None], beta)
                                              for x in phi.x[:rows]], axis=1)
                    np.testing.assert_array_equal(
                        batch, singles, err_msg=f"{name} product, m={m}, rows={rows}")

    @pytest.mark.parametrize("m", [6, 20, 50, 120])
    @pytest.mark.parametrize("method,smoothing", [("ram", 0.05), ("ralpham", 10.0)])
    def test_single_row_path_unchanged(self, method, smoothing, m):
        # A lone query keeps the bits of the plain one-network
        # hidden_output(...) @ beta path, and a 40-row stack gives exactly
        # those rows.
        phi = random_phi(n_pairs=40, seed=25)
        layer = draw(method, m, smoothing, phi, 25)
        beta = fit(stacked(layer), phi)
        queries = np.random.default_rng(25).normal(size=(40, 24))
        plain = np.array([(ref.hidden_output(layer, x[None]) @ beta[0])[0] for x in queries])
        for i, x in enumerate(queries):
            np.testing.assert_array_equal(predict(stacked(layer), x[None], beta)[0, 0], plain[i])
        np.testing.assert_array_equal(predict(stacked(layer), queries, beta)[0], plain)


class TestMakeLayerAndDeterminism:
    @pytest.mark.parametrize("method,smoothing", [
        ("standard", 0.5), ("ram", 0.5), ("ralpham", 30.0), ("ddm", 7.0)])
    def test_full_determinism(self, method, smoothing):
        phi = random_phi(seed=20)
        a = make_layer(method, 9, [smoothing], phi, [derive_rng(123)])
        b = make_layer(method, 9, [smoothing], phi, [derive_rng(123)])
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        np.testing.assert_array_equal(fit(a, phi), fit(b, phi))

    def test_ralpham_90_label_clamped(self):
        phi = random_phi(seed=21)
        weights, _ = make_layer("ralpham", 5, [90.0], phi, [derive_rng(0)])
        rng = derive_rng(0)  # the layer's generator: angles first, then signs
        angles = rng.uniform(0.0, 89.9, size=(5, 24))
        signs = rng.integers(0, 2, size=(5, 24)) * 2 - 1
        assert weights[0].tobytes() == (signs * 4.0 * np.tan(np.radians(angles))).tobytes()
        assert np.abs(weights).max() <= 4.0 * np.tan(np.radians(89.9))

    def test_method_dispatch(self):
        phi = random_phi(seed=22)
        for method, smoothing in [("standard", 0.1), ("ram", 0.1),
                                  ("ralpham", 15.0), ("ddm", 5.0)]:
            weights, biases = make_layer(method, 4, [smoothing], phi, [derive_rng(0)])
            assert weights.shape == (1, 4, phi.n) and biases.shape == (1, 4)
            assert_same_bits(draw(method, 4, smoothing, phi, 0), (weights[0], biases[0]))

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
        for method in ("standard", "ram", "ralpham", "ddm"):
            for s in (math.nan, math.inf, -math.inf):
                with pytest.raises(ParameterError, match="must be finite"):
                    HyperParams(method, 5, s)
        # past MAX_U, u - (-u) overflows; at it, layers are finite
        assert 2 * MAX_U == np.finfo(float).max
        for method in ("standard", "ram"):
            HyperParams(method, 5, MAX_U)
            for u in (np.nextafter(MAX_U, math.inf), 1e308):
                with pytest.raises(ParameterError, match=re.escape(f"at most {MAX_U!r}")):
                    HyperParams(method, 5, u)
        with np.errstate(all="raise"):
            make_layer("standard", 3, [MAX_U], random_phi(n_pairs=5), [derive_rng(0)])


@pytest.fixture(scope="module")
def wednesdays():
    """Synth Wednesdays before 2013 (tau 1) and the x-patterns of the 30
    days that follow: a forecast-sized training set and its queries."""
    ts = synth_generate(SynthSpec(days=760), 0)
    phi = build_training_set(ts, 2, 1, date(2013, 1, 1))
    rows = [ts.row(date(2013, 1, 1) + timedelta(days=i)) for i in range(30)]
    return phi, ts.x[rows]


class TestTrialPredictions:
    """The stacked kernel, make_layer -> fit -> predict, against the
    one-network references trial by trial."""

    @pytest.mark.parametrize("method,m,smoothing", [
        ("standard", 20, 0.4), ("ram", 20, 0.4), ("ralpham", 20, 30.0), ("ddm", 20, 31.0),
        ("ram", 50, 0.02), ("ralpham", 20, (2.0, 30.0, 90.0))])
    @pytest.mark.parametrize("trials", [1, 100])
    @pytest.mark.parametrize("n_queries", [1, 30])
    def test_matches_per_trial_reference(self, wednesdays, method, m, smoothing, trials,
                                         n_queries):
        phi, queries = wednesdays
        smoothing = smoothing if isinstance(smoothing, tuple) else (smoothing,)
        q = queries[:n_queries]
        layers = [ref.make_layer(HyperParams(method, m, s), phi, derive_rng(7, 2013, t))
                  for s in smoothing for t in range(trials)]
        reference = np.stack([ref.predict(layer, q, ref.fit(layer, phi)) for layer in layers])
        rngs = [derive_rng(7, 2013, t) for t in range(trials)]
        stack = make_layer(method, m, smoothing, phi, rngs)
        np.testing.assert_array_equal(predict(stack, q, fit(stack, phi)), reference)
        if smoothing == (0.02,):
            # ill-conditioned: here forecasts move with the summation order,
            # so equal bits mean the stacked products kept the per-trial calls
            assert np.linalg.cond(ref.hidden_output(layers[0], phi.x)) > 1e10


def reference_layer(method, m, smoothing, phi, rng):
    """One layer drawn for one smoothing value alone, with `rng.uniform`:
    the weights and biases the stacked draw must reproduce."""
    if method == "ddm":
        return reference_ddm(m, int(smoothing), phi, rng)
    if method == "standard":
        return (rng.uniform(-smoothing, smoothing, size=(m, phi.n)),
                rng.uniform(-smoothing, smoothing, size=m))
    if method == "ram":
        weights = rng.uniform(-smoothing, smoothing, size=(m, phi.n))
    else:
        angles = rng.uniform(0.0, min(smoothing, 89.9), size=(m, phi.n))
        signs = rng.integers(0, 2, size=(m, phi.n)) * 2 - 1
        weights = signs * 4.0 * np.tan(np.radians(angles))
    anchors = rng.integers(0, len(phi), size=m)
    return weights, -np.einsum("ij,ij->i", weights, phi.x[anchors])


class TestDrawLayers:
    @pytest.mark.parametrize("trials", [1, 3])
    @pytest.mark.parametrize("method", ["standard", "ram", "ralpham", "ddm"])
    def test_matches_one_draw_per_value(self, method, trials):
        # one stream per trial serves every smoothing value, bit for bit
        phi = random_phi(n_pairs=40, seed=30)
        grid = (1.0, 5.0, 9.0, 39.0) if method == "ddm" else default_grid(method).smoothing_values
        for m in (5, 20, 50):
            for key in range(2):
                weights, biases = make_layer(
                    method, m, grid, phi, [derive_rng(key, t) for t in range(trials)])
                assert weights.shape == (len(grid) * trials, m, phi.n)
                assert biases.shape == (len(grid) * trials, m)
                for i, (s, t) in enumerate((s, t) for s in grid for t in range(trials)):
                    layer = ref.make_layer(HyperParams(method, m, s), phi, derive_rng(key, t))
                    assert_same_bits(layer, (weights[i], biases[i]))
                    assert_same_bits(layer, reference_layer(method, m, s, phi,
                                                            derive_rng(key, t)))

    @pytest.mark.parametrize("method, smoothing", [("ram", (0.5, 1e200)),
                                                   ("standard", (0.5, 1e308))])
    def test_non_finite_stack_raises(self, method, smoothing):
        # ram: biases overflow on huge patterns; standard: HyperParams
        # rejects a u whose u - (-u) overflows
        phi = TrainingSet(np.full((5, 4), 1e200), np.zeros((5, 2)))
        with pytest.raises(ParameterError, match="finite"), np.errstate(over="ignore"):
            make_layer(method, 3, smoothing, phi, [derive_rng(0), derive_rng(1)])
        make_layer(method, 3, smoothing[:1], phi, [derive_rng(0), derive_rng(1)])

    def test_rejects_out_of_range_values(self):
        phi = random_phi(n_pairs=10)
        # the values HyperParams rejects, and ddm's k past the set's N - 1
        for method, smoothing in (("ram", (0.5, 0.0)), ("standard", (-1.0,)),
                                  ("ralpham", (30.0, 0.0)), ("ralpham", (30.0, 95.0)),
                                  ("ddm", (3.0, 10.0)), ("ddm", (math.nan,))):
            with pytest.raises(ParameterError):
                make_layer(method, 3, smoothing, phi, [derive_rng(0)])
