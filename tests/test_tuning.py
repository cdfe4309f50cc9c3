import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import randfnn.tuning as tuning
from randfnn.encoding import TrainingSet
from randfnn.randnn import (HyperParams, derive_rng, fit, make_layer, predict,
                            trial_predictions)
from randfnn.tuning import Grid, grid_search, kfold_split, write_tuning_csv


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
            model = fit(make_layer(hp, train, derive_rng(seed, fold_idx, trial)), train)
            trials.append(np.mean(np.abs(predict(model, phi.x[held]) - phi.y[held])))
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
    assert [(p.m, p.smoothing) for p in result.table] == [
        (m, s) for m in grid.m_values for s in grid.smoothing_values]
    fitted = [p for p in result.table if p.smoothing != 22.0]
    for p in fitted:
        ref = reference_errors(phi, HyperParams(method, p.m, p.smoothing, seed=11), 4, 11, 2)
        assert p.mean_error == float(ref.mean())
        assert p.std_error == float(ref.std(ddof=1))
    assert all(p.mean_error is None and p.std_error is None
               for p in result.table if p not in fitted)
    first_least = min(fitted, key=lambda p: p.mean_error)
    assert (result.best.m, result.best.smoothing) == (first_least.m, first_least.smoothing)


@pytest.mark.parametrize("method, smoothing", [
    ("ram", (0.02, 0.2, 0.6)), ("standard", (0.04, 0.4)), ("ralpham", (2.0, 90.0)),
    ("ddm", (3.0, 5.0, 7.0, 40.0))])
def test_one_kernel_call_per_fold_and_m(monkeypatch, method, smoothing):
    # every method, ddm too, stacks its fitting smoothing values in one call
    calls = []

    def counting(weights, *args):
        calls.append(len(weights))
        return trial_predictions(weights, *args)

    monkeypatch.setattr(tuning, "trial_predictions", counting)
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
    result = grid_search(phi, "ddm", Grid((3, 6), (5.0, 15.0, 16.0, 40.0)), 5, 1,
                         trials_per_fold=1)
    fitted = {(p.m, p.smoothing) for p in result.table if p.mean_error is not None}
    skipped = {(p.m, p.smoothing) for p in result.table
               if p.mean_error is None and p.std_error is None}
    assert fitted == {(m, k) for m in (3, 6) for k in (5.0, 15.0)}
    assert skipped == {(m, k) for m in (3, 6) for k in (16.0, 40.0)}
    assert result.best.smoothing in (5.0, 15.0)

    buf = io.StringIO()
    write_tuning_csv([("ddm", "weekday=0", result)], buf)
    assert "ddm,weekday=0,3,16.0,,,0\n" in buf.getvalue()


def test_ddm_nothing_fits():
    result = grid_search(random_phi(n_pairs=20), "ddm", Grid((3,), (16.0, 30.0)), 5, 1)
    assert result.best is None
    assert all(p.mean_error is None for p in result.table)


def test_ram_has_no_size_limit():
    result = grid_search(random_phi(n_pairs=10), "ram", Grid((3,), (40.0,)), 5, 1,
                         trials_per_fold=1)
    assert result.table[0].mean_error is not None


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
    # although its smoothing is the largest; without it (6, 0.2) wins
    def fake_errors(least):
        def errors(phi, held, fold_idx, method, m_values, smoothing, seed, trials_per_fold):
            return np.array([[1.0 if (m, s) in least else 2.0 for s in smoothing]
                             for m in m_values])
        return errors

    grid = Grid((3, 6), (0.2, 0.4, 0.6))
    for least, best in (({(3, 0.6), (6, 0.2), (6, 0.4)}, (3, 0.6)),
                        ({(6, 0.4), (6, 0.2)}, (6, 0.2))):
        monkeypatch.setattr(tuning, "_fold_errors", fake_errors(least))
        result = grid_search(random_phi(), "ram", grid, 5, 0)
        assert (result.best.m, result.best.smoothing) == best


def test_same_seed_same_table():
    grid = Grid((3, 6), (0.2, 0.6))
    first = grid_search(random_phi(), "ram", grid, 5, 7, trials_per_fold=2)
    assert grid_search(random_phi(), "ram", grid, 5, 7, trials_per_fold=2) == first
    assert grid_search(random_phi(), "ram", grid, 5, 8, trials_per_fold=2).table != first.table
