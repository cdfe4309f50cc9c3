import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import randfnn.tuning as tuning
from randfnn.encoding import TrainingSet
from randfnn.randnn import HyperParams, derive_rng, fit
from randfnn.tuning import Grid, grid_search, kfold_split, write_tuning_csv

import reference as ref


def random_phi(n_pairs=20, n=6, p=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_pairs, n))
    x -= x.mean(axis=1, keepdims=True)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return TrainingSet(x, rng.normal(size=(n_pairs, p)))


def reference_errors(phi, hp, k_folds, seed, trials_per_fold):
    """One gridpoint's fold errors, with its own split and fold sets."""
    errors = []
    for fold_idx, held in enumerate(kfold_split(len(phi), k_folds, seed)):
        mask = np.ones(len(phi), dtype=bool)
        mask[held] = False
        train = TrainingSet(phi.x[mask], phi.y[mask])
        trials = []
        for trial in range(trials_per_fold):
            layer = ref.make_layer(hp, train, derive_rng(seed, fold_idx, trial))
            beta = ref.fit(layer, train)
            trials.append(np.mean(np.abs(ref.predict(layer, phi.x[held], beta) - phi.y[held])))
        errors.append(np.mean(trials))
    return np.array(errors)


# Three or more values per grid, so that one stacked draw serves several;
# ralpham's includes the 90-degree label. 30 pairs in 4 folds leave
# training sets of 22 and 23 pairs, so the last ddm grid's k=22 fits no
# fold: it is the one gridpoint value without an error.
@pytest.mark.parametrize("method, smoothing", [
    ("ram", (0.02, 0.2, 0.6)), ("ddm", (3.0, 5.0, 7.0)), ("standard", (0.04, 0.4, 1.0)),
    ("ralpham", (2.0, 30.0, 85.0, 90.0)), ("ddm", (3.0, 11.0, 21.0, 22.0))])
def test_errors_match_per_gridpoint_reference(method, smoothing):
    phi = random_phi(n_pairs=30)
    grid = Grid((3, 6), smoothing)
    result = grid_search(phi, method, grid, 4, 11, trials_per_fold=2)
    assert result.grid == grid
    assert result.mean_error.shape == result.std_error.shape == (2, len(smoothing))
    fitted = []  # (mean error, m, smoothing) in table order
    for i, m in enumerate(grid.m_values):
        for j, s in enumerate(smoothing):
            if s == 22.0:
                assert np.isnan(result.mean_error[i, j]) and np.isnan(result.std_error[i, j])
                continue
            ref = reference_errors(phi, HyperParams(method, m, s), 4, 11, 2)
            assert result.mean_error[i, j] == float(ref.mean())
            assert result.std_error[i, j] == float(ref.std(ddof=1))
            fitted.append((result.mean_error[i, j], m, s))
    _, m, s = min(fitted, key=lambda p: p[0])
    assert result.best == HyperParams(method, m, s)  # no search seed


@pytest.mark.parametrize("method, smoothing", [
    ("ram", (0.02, 0.2, 0.6)), ("standard", (0.04, 0.4)), ("ralpham", (2.0, 90.0)),
    ("ddm", (3.0, 5.0, 7.0, 40.0))])
def test_one_kernel_call_per_fold_and_m(monkeypatch, method, smoothing):
    # every method, ddm too, stacks its fitting smoothing values in one call
    calls = []

    def counting(layers, phi):
        calls.append(len(layers[0]))
        return fit(layers, phi)

    monkeypatch.setattr(tuning, "fit", counting)
    grid = Grid((3, 6, 9), smoothing)
    grid_search(random_phi(), method, grid, 5, 0, trials_per_fold=2)
    fitting = len(smoothing) - (method == "ddm")  # 20 pairs in 5 folds: k <= 15
    assert calls == [fitting * 2] * (len(grid.m_values) * 5)


def test_folds_built_once(monkeypatch):
    calls = []

    def counting_split(*args):
        calls.append(args)
        return kfold_split(*args)

    monkeypatch.setattr(tuning, "kfold_split", counting_split)
    grid_search(random_phi(), "ddm", Grid((2, 4, 6), (3.0, 5.0)), 5, 0, trials_per_fold=2)
    assert calls == [(20, 5, 0)]


def test_ddm_gridpoints_too_large_for_a_fold_are_skipped():
    # 20 pairs in 5 folds: every training fold has 16 pairs, so k <= 15
    phi = random_phi(n_pairs=20)
    # integer values, as a JSON grid gives them, keep their text in tuning.csv
    result = grid_search(phi, "ddm", Grid((3, 6), (5.0, 15.0, 16, 40)), 5, 1,
                         trials_per_fold=1)
    assert not np.isnan(result.mean_error[:, :2]).any()
    assert not np.isnan(result.std_error[:, :2]).any()
    assert np.isnan(result.mean_error[:, 2:]).all() and np.isnan(result.std_error[:, 2:]).all()
    assert result.best.smoothing in (5.0, 15.0)

    buf = io.StringIO()
    write_tuning_csv([("ddm", "weekday=0", result)], buf)
    assert "ddm,weekday=0,3,16,,,0\n" in buf.getvalue()


def test_ddm_nothing_fits():
    result = grid_search(random_phi(n_pairs=20), "ddm", Grid((3,), (16.0, 30.0)), 5, 1)
    assert result.best is None
    assert result.mean_error.shape == (1, 2)
    assert np.isnan(result.mean_error).all() and np.isnan(result.std_error).all()


def test_ram_has_no_size_limit():
    result = grid_search(random_phi(n_pairs=10), "ram", Grid((3,), (40.0,)), 5, 1,
                         trials_per_fold=1)
    assert not np.isnan(result.mean_error[0, 0])


@given(st.integers(2, 200).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(2, n), st.integers(0, 2**32 - 1))))
def test_kfold_split_partitions(args):
    n, k, seed = args
    folds = kfold_split(n, k, seed)
    assert len(folds) == k
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1
    assert np.array_equal(np.sort(np.concatenate(folds)), np.arange(n))


def test_ties_prefer_smaller_m_then_smaller_smoothing(monkeypatch):
    # least error 1.0 at (3, 0.6), (6, 0.2) and (6, 0.4): m=3 wins
    # although its smoothing is the largest; without it (6, 0.2) wins.
    # ddm: 20 pairs in 5 folds fit k <= 15, so the unfit k=16 ends each
    # row, between the tied (3, 10.0) and (6, 5.0) in table order
    def fake_errors(least):
        def errors(phi, held, fold_idx, method, m_values, smoothing, seed, trials_per_fold):
            return np.array([[1.0 if (m, s) in least else 2.0 for s in smoothing]
                             for m in m_values])
        return errors

    ram = Grid((3, 6), (0.2, 0.4, 0.6))
    for method, grid, least, best in (
            ("ram", ram, {(3, 0.6), (6, 0.2), (6, 0.4)}, (3, 0.6)),
            ("ram", ram, {(6, 0.4), (6, 0.2)}, (6, 0.2)),
            ("ddm", Grid((3, 6), (5.0, 10.0, 16.0)), {(3, 10.0), (6, 5.0)}, (3, 10.0))):
        monkeypatch.setattr(tuning, "_fold_errors", fake_errors(least))
        result = grid_search(random_phi(), method, grid, 5, 0)
        assert (result.best.m, result.best.smoothing) == best
    assert np.isnan(result.mean_error[:, 2]).all() and np.isnan(result.std_error[:, 2]).all()
    buf = io.StringIO()
    write_tuning_csv([("ddm", "weekday=0", result)], buf)
    assert buf.getvalue().splitlines()[1:] == [
        "ddm,weekday=0,3,5.0,2.0,0.0,0", "ddm,weekday=0,3,10.0,1.0,0.0,1",
        "ddm,weekday=0,3,16.0,,,0", "ddm,weekday=0,6,5.0,1.0,0.0,0",
        "ddm,weekday=0,6,10.0,2.0,0.0,0", "ddm,weekday=0,6,16.0,,,0"]


def test_same_seed_same_table():
    grid = Grid((3, 6), (0.2, 0.6))
    first, again, other = (grid_search(random_phi(), "ram", grid, 5, seed, trials_per_fold=2)
                           for seed in (7, 7, 8))
    assert again.best == first.best and again.grid == first.grid
    assert np.array_equal(again.mean_error, first.mean_error, equal_nan=True)
    assert np.array_equal(again.std_error, first.std_error, equal_nan=True)
    assert not np.array_equal(other.mean_error, first.mean_error, equal_nan=True)
