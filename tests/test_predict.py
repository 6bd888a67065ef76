import json
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest

from tmcf import predict
from tmcf.cluster import Partition
from tmcf.dataset import ScaleParams, WindowedDataset, make_windows
from tmcf.errors import NumericalError, ValidationError
from tmcf.predict import (
    MIN_DELTA,
    MODEL_MAGIC,
    PARAM_ORDER,
    GruConfig,
    GruModel,
    _Scratch,
    _Stack,
    _sq_errors_and_grads,
    cluster_seed,
    init_model,
    load_model,
    predict_flows,
    predict_tm,
    predictions_in_bytes,
    save_model,
    train_partitioned,
)

import gru_oracle as oracle
from forking import (  # noqa: F401 - deadline is a fixture
    assert_no_children, count_forks, deadline, usable_cpus)


def tiny_model(d=1, hidden=2, seed=0):
    return init_model(GruConfig(input_size=d, hidden_size=hidden, seed=seed))


def windows_from(rng, n, steps, d):
    inputs = rng.normal(size=(n, steps, d))
    return WindowedDataset(inputs=inputs, targets=rng.normal(size=(n, d)), window_length=steps + 1)


def one_cluster(d):
    return Partition(np.ones(d, dtype=int), 1)


def predict_one(model, values, window_length, test_range=None):
    """predict_flows of one model whose cluster holds every flow of the
    (d, T) matrix values, over the whole matrix by default."""
    return predict_flows({1: model}, one_cluster(len(values)), values,
                         test_range or (0, values.shape[1]), window_length)


def train_one(cfg, values, train_range, val_range, window_length):
    """train_partitioned of one cluster that holds every flow of values."""
    return train_partitioned(one_cluster(len(values)), values, cfg, train_range, val_range,
                             window_length)[1]


class TestForward:
    def test_zero_parameters_predict_readout_bias(self):
        model = tiny_model(d=2, hidden=3)
        for name in model.params:
            model.params[name][:] = 0.0
        model.params["bo"][:] = [0.7, -0.3]
        out = predict_one(model, np.random.default_rng(0).normal(size=(2, 9)), 6)
        assert out.shape == (4, 2)
        assert np.allclose(out, [0.7, -0.3])

    def test_hand_evaluated_single_step(self):
        # d=1, hidden=2, one input step x=1, h0=0; the expected value is
        # evaluated scalar-by-scalar from the cell equations
        model = tiny_model(d=1, hidden=2)
        p = model.params
        p["wz"][:] = [[0.1], [-0.2]]
        p["uz"][:] = [[0.3, 0.0], [0.1, -0.1]]
        p["bz"][:] = [0.05, -0.05]
        p["wr"][:] = [[0.2], [0.4]]
        p["ur"][:] = [[0.0, 0.1], [-0.3, 0.2]]
        p["br"][:] = [0.1, 0.0]
        p["wn"][:] = [[0.5], [-0.5]]
        p["un"][:] = [[0.2, -0.2], [0.0, 0.3]]
        p["bn"][:] = [0.0, 0.1]
        p["wo"][:] = [[1.0, -1.0]]
        p["bo"][:] = [0.25]

        sig = lambda v: 1.0 / (1.0 + math.exp(-v))
        z0 = sig(0.1 * 1.0 + 0.05)
        z1 = sig(-0.2 * 1.0 - 0.05)
        n0 = math.tanh(0.5 * 1.0 + 0.0)   # reset gate irrelevant at h0 = 0
        n1 = math.tanh(-0.5 * 1.0 + 0.1)
        h0 = (1.0 - z0) * n0
        h1 = (1.0 - z1) * n1
        expected = h0 - h1 + 0.25

        out = predict_one(model, np.array([[1.0, 0.0]]), 2)  # step 1 is the target only
        assert out[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_saturated_gates_take_their_limit_without_a_warning(self):
        # exp(-x) overflows below x = -709, and a RuntimeWarning fails this suite
        model = tiny_model(d=1, hidden=2, seed=3)
        p = model.params
        p["bz"][:] = p["br"][:] = -1e4  # z = r = 0, so h = n = tanh(wn x + bn)
        x = np.array([[1.0], [2.0]])
        h = np.tanh(p["wn"][:, 0] * 2.0 + p["bn"])
        out = predict_one(model, np.array([[1.0, 2.0, 0.0]]), 3)
        assert out[0, 0] == pytest.approx(p["wo"][0] @ h + p["bo"][0], abs=1e-12)
        _, flat, grads, loss_at = stacked_loss_and_grads([model], [x[None]], [np.zeros((1, 1))])
        assert np.isfinite(loss_at(flat)) and np.isfinite(grads).all()

    def test_non_finite_input_rejected(self):
        values = np.zeros((2, 6))
        values[0, 2] = np.nan
        with pytest.raises(ValidationError, match="NaN or Inf"):
            predict_one(tiny_model(d=2, hidden=2), values, 4)


def time_major(batches):
    """(T, B, d + 1) copies of (B, T, d) batches, the last column ones: the
    inputs of _forward as tmcf.predict copied them before it read them as
    step views of one array of rows."""
    return [np.concatenate([x.transpose(1, 0, 2), np.ones((x.shape[1], x.shape[0], 1))], axis=2)
            for x in batches]


def stacked_loss_and_grads(models, batches, targets):
    """Sum over the models of each one's MSE, and its gradient as a flat
    vector in the stack layout, from the stacked core."""
    stack = _Stack([m.input_size for m in models], models[0].hidden_size)
    flat = stack.pack([m.params for m in models])
    grads = np.empty(stack.size)
    scratch = _Scratch()

    def loss_at(values):
        sq = _sq_errors_and_grads(stack.views(values), stack.views(grads),
                                  time_major(batches), targets, scratch)
        return float(np.sum(sq / [y.size for y in targets]))

    return stack, flat, grads, loss_at


def forward_on_copies(model, windows):
    """Prediction as it was computed before it read step views: each chunk
    of windows copied time-major (time_major), then run through _forward."""
    stack = _Stack([model.input_size], model.hidden_size)
    v = stack.views(stack.pack([model.params]))
    chunk = predict._workspace_fit(2, windows.shape[1], model.hidden_size)
    scratch = _Scratch()
    return np.concatenate([
        predict._readout(v, predict._forward(v, time_major([windows[lo : lo + chunk]]),
                                             scratch)[0], 0)
        for lo in range(0, len(windows), chunk)])


class TestStepViews:
    """Validation and prediction read their windows as step views of one
    array of rows where they once copied them time-major; both must give
    the copies' numbers byte for byte."""

    @pytest.fixture(autouse=True)
    def chunks_of_five(self, monkeypatch):
        # prediction chunks of 5 windows of 10 steps at hidden size 6, so
        # that every case spans several chunks
        monkeypatch.setattr(predict, "_WORKSPACE_FLOATS", 2 * 81 * 6 * 5)

    @staticmethod
    def model(d, seed=4):
        return init_model(GruConfig(input_size=d, hidden_size=6, seed=seed))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_windows_of_one_series(self, order):
        # prediction gathers its rows from a C- or a Fortran-ordered flow matrix
        values = np.asarray(np.random.default_rng(1).normal(size=(3, 40)), order=order)
        windows = make_windows(values.T, 11).inputs
        want = forward_on_copies(self.model(3), windows)
        assert predict_one(self.model(3), values, 11).tobytes() == want.tobytes()
        one = forward_on_copies(self.model(3), windows[7:8])
        assert predict_one(self.model(3), values, 11, (7, 18)).tobytes() == one.tobytes()

    def test_validation_losses_of_a_stack(self):
        rng = np.random.default_rng(3)
        series = [np.asfortranarray(rng.normal(size=(30, d))) for d in (2, 3)]
        sets = [make_windows(s, 11) for s in series]
        models = [self.model(2, seed=5), self.model(3, seed=6)]
        stack = _Stack([2, 3], 6)
        v = stack.views(stack.pack([m.params for m in models]))
        # each series's rows with a trailing 1, as _flow_rows lays them out
        windows = [predict._Windows(np.column_stack([s, np.ones(len(s))]), 10, ds.targets)
                   for s, ds in zip(series, sets)]
        got = predict._dataset_mse(v, windows, 4, _Scratch())
        want, scratch = np.zeros(2), _Scratch()
        for lo in range(0, 20, 4):
            state, _ = predict._forward(v, time_major([ds.inputs[lo : lo + 4] for ds in sets]),
                                        scratch)
            for i, ds in enumerate(sets):
                err = predict._readout(v, state, i) - ds.targets[lo : lo + 4]
                want[i] += np.vdot(err, err)
        want /= [ds.targets.size for ds in sets]
        assert got.tobytes() == want.tobytes()


def test_prediction_scratch_does_not_grow_with_the_windows():
    """predict_flows's traced peak, less pred_norm and its cluster's one
    array of rows (with that array's finiteness mask), is the same for 500
    and 16,000 windows of 50 steps, and under a quarter of the workspace: a
    forward pass with no backward pass after it caches (3T + 6) / (8T + 1)
    of the half workspace that prediction's chunks are cut to."""
    model = init_model(GruConfig(input_size=8, hidden_size=2, seed=0))
    part = one_cluster(8)
    scratch = {}
    for n in (500, 16000):
        values = np.random.default_rng(0).normal(size=(8, n + 50))
        tracemalloc.start()
        pred = predict_flows({1: model}, part, values, (0, n + 50), 51)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        rows = (n + 49) * 9  # floats of the windows' rows, each with a trailing 1
        scratch[n] = peak - pred.nbytes - rows * 9
    assert scratch[16000] <= scratch[500] + 16 * 1024
    assert scratch[16000] <= 8 * predict._WORKSPACE_FLOATS // 4


class TestGradients:
    def _check_finite_differences(self, models, batches, targets):
        stack, flat, grads, loss_at = stacked_loss_and_grads(models, batches, targets)
        loss_at(flat)
        analytic = grads.copy()
        eps = 1e-5
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss_at(flat)
            flat[i] = orig - eps
            lm = loss_at(flat)
            flat[i] = orig
            numeric = (lp - lm) / (2 * eps)
            rel = abs(numeric - analytic[i]) / max(1e-8, abs(numeric) + abs(analytic[i]))
            assert rel < 1e-4, f"entry {i}: analytic {analytic[i]} vs numeric {numeric}"

    def test_bptt_matches_finite_differences(self):
        model = tiny_model(d=2, hidden=3, seed=123)
        rng = np.random.default_rng(5)
        self._check_finite_differences(
            [model], [rng.normal(size=(4, 5, 2))], [rng.normal(size=(4, 2))])

    def test_stacked_bptt_matches_finite_differences(self):
        # K=3 stack of widths 1, 2 and 4; each model's gradient is its own
        widths = (1, 2, 4)
        models = [tiny_model(d=d, hidden=3, seed=10 + d) for d in widths]
        rng = np.random.default_rng(6)
        self._check_finite_differences(
            models,
            [rng.normal(size=(4, 5, d)) for d in widths],
            [rng.normal(size=(4, d)) for d in widths],
        )

    def test_stacked_gradients_match_the_oracle(self):
        widths = (1, 3, 2)
        models = [tiny_model(d=d, hidden=4, seed=20 + d) for d in widths]
        rng = np.random.default_rng(7)
        batches = [rng.normal(size=(6, 4, d)) for d in widths]
        targets = [rng.normal(size=(6, d)) for d in widths]
        stack, flat, grads, loss_at = stacked_loss_and_grads(models, batches, targets)
        loss_at(flat)
        for i, model in enumerate(models):
            _, expected = oracle.mse_loss_and_grads(model, batches[i], targets[i])
            got = stack.unpack(grads, i)
            for name in PARAM_ORDER:
                assert np.allclose(got[name], expected[name], rtol=0, atol=1e-12), name

    def test_pack_unpack_round_trip(self):
        models = [tiny_model(d=d, hidden=3, seed=d) for d in (1, 4, 2)]
        stack = _Stack([m.input_size for m in models], 3)
        flat = stack.pack([m.params for m in models])
        for i, model in enumerate(models):
            back = stack.unpack(flat, i)
            assert list(back) == list(PARAM_ORDER)
            for name in PARAM_ORDER:
                assert np.array_equal(back[name], model.params[name])
                assert back[name].flags.c_contiguous

    def test_scratch_views_point_into_the_current_buffer(self):
        scratch = _Scratch()
        small = [(2, 3), (4,)]
        first = scratch.take("a", small)
        assert scratch.take("a", small) is first  # carved once
        scratch.take("a", [(50,)])  # grows buffer "a"
        again = scratch.take("a", small)
        start = scratch.bufs["a"].__array_interface__["data"][0]
        assert [v.__array_interface__["data"][0] - start for v in again] == [0, 6 * 8]
        assert not any(np.shares_memory(v, w) for v in again for w in first)
        other = scratch.take("b", small + [(50,)])
        assert not any(np.shares_memory(v, w)
                       for v in scratch.take("a", small) + scratch.take("a", [(50,)])
                       for w in other)

    def test_single_adam_step_does_not_increase_loss(self):
        # 16 windows of 6 steps in one batch and one epoch: exactly one Adam step
        values = np.random.default_rng(8).normal(size=(2, 22))
        cfg = GruConfig(input_size=2, hidden_size=4, epochs=1, batch_size=16, seed=7)
        model, report = train_one(cfg, values, (0, 22), (0, 22), 7)
        loss_after = float(np.mean((predict_one(model, values, 7) - values[:, 6:].T) ** 2))
        assert loss_after <= report.train_losses[0]


class TestTraining:
    def test_learns_constant_target(self):
        values = np.full((1, 390), 0.3)
        cfg = GruConfig(input_size=1, hidden_size=4, epochs=100, seed=0)
        # 320 training and 64 validation windows of 3 steps
        model, report = train_one(cfg, values, (0, 323), (323, 390), 4)
        assert report.train_losses[report.epochs_run - 1] < 1e-4 or report.stopped_early
        preds = predict_one(model, values, 4, (323, 390))
        assert float(np.mean((preds - 0.3) ** 2)) < 1e-4

    def test_plateau_triggers_early_stop(self):
        # the flow is pure noise, so validation cannot keep improving; 320
        # training and 64 validation windows of 3 steps
        values = np.random.default_rng(3).normal(size=(1, 390))
        cfg = GruConfig(input_size=1, hidden_size=4, epochs=100, seed=1)
        _, report = train_one(cfg, values, (0, 323), (323, 390), 4)
        assert report.stopped_early
        assert report.epochs_run < 100
        best = report.val_losses[report.best_epoch]
        for later in report.val_losses[report.best_epoch + 1 :]:
            assert best <= later + MIN_DELTA + 1e-15

    def test_identical_seeds_identical_curves(self):
        values = np.random.default_rng(4).normal(size=(2, 76))
        cfg = GruConfig(input_size=2, hidden_size=4, epochs=8, patience=50, seed=9)
        (m1, r1), (m2, r2) = (train_one(cfg, values, (0, 53), (53, 76), 4) for _ in range(2))
        assert r1.train_losses == r2.train_losses
        assert r1.val_losses == r2.val_losses
        for name in m1.params:
            assert np.array_equal(m1.params[name], m2.params[name])

    def test_divergent_loss_aborts(self):
        values = np.random.default_rng(5).normal(size=(1, 22))
        values[0, 3:] = 1e200  # every target; the squared error overflows to inf
        cfg = GruConfig(input_size=1, hidden_size=2, epochs=3, seed=0)
        with pytest.raises(NumericalError, match="non-finite loss at epoch 1"):
            train_one(cfg, values, (0, 11), (11, 22), 4)


class TestPartitionedTraining:
    def _flows(self, m=6, t=160, seed=0):
        rng = np.random.default_rng(seed)
        base = np.sin(2 * np.pi * np.arange(t) / 16)
        return np.clip(base[None, :] + 0.1 * rng.normal(size=(m, t)) + 1.0, 0, None)

    def test_em_and_local_degenerate_cases(self):
        values = self._flows()
        cfg = GruConfig(input_size=1, hidden_size=4, epochs=2, seed=0)
        em = train_partitioned(
            Partition(np.ones(6, dtype=int), 1), values, cfg, (0, 120), (120, 160), 8
        )
        assert set(em) == {1}
        assert em[1][0].input_size == 6
        local = train_partitioned(
            Partition(np.arange(1, 7), 6), values, cfg, (0, 120), (120, 160), 8
        )
        assert set(local) == set(range(1, 7))
        assert all(local[c][0].input_size == 1 for c in local)

    @pytest.mark.parametrize("train_range,val_range,window_length", [
        ((0, 120), (120, 160), 1),
        ((0, 120), (120, 127), 8),
        ((0, 120), (120, 161), 8),
        ((-1, 120), (120, 160), 8),
    ])
    def test_ranges_that_fit_no_window_rejected(self, train_range, val_range, window_length):
        cfg = GruConfig(input_size=1, hidden_size=4, epochs=1, seed=0)
        with pytest.raises(ValidationError, match="must each fit a window"):
            train_partitioned(Partition(np.ones(6, dtype=int), 1), self._flows(), cfg,
                              train_range, val_range, window_length)

    def test_a_clusters_windows_and_targets_are_views_of_one_copy(self, monkeypatch):
        seen, train_group = [], predict._train_group

        def spy(configs, train_sets, val_sets):
            seen.extend(zip(train_sets, val_sets))
            return train_group(configs, train_sets, val_sets)

        monkeypatch.setattr(predict, "_train_group", spy)
        usable_cpus(monkeypatch, 1)  # the share, and so the spy, runs in this process
        cfg = GruConfig(input_size=1, hidden_size=4, epochs=1, seed=0)
        values = self._flows()
        train_partitioned(Partition(np.array([1, 2, 2, 1, 2, 2]), 2), values, cfg, (0, 120),
                          (120, 160), 8)
        assert len(seen) == 2
        for train_set, val_set in seen:
            rows = train_set.rows.base
            assert rows.shape == (160, train_set.rows.shape[1])
            assert all(a.base is rows for a in (val_set.rows, train_set.targets, val_set.targets))

    def test_cluster_seed_is_stable(self):
        assert cluster_seed(42, 3) == cluster_seed(42, 3)
        assert cluster_seed(42, 3) != cluster_seed(42, 4)
        assert cluster_seed(41, 3) != cluster_seed(42, 3)


class TestPredictTm:
    def _setup(self):
        values = np.clip(
            np.sin(2 * np.pi * np.arange(200) / 20)[None, :]
            + 0.05 * np.random.default_rng(0).normal(size=(4, 200))
            + 1.0,
            0,
            None,
        )
        scale = ScaleParams(per_flow_min=values.min(axis=1), per_flow_max=values.max(axis=1))
        span = scale.per_flow_max - scale.per_flow_min
        norm = (values - scale.per_flow_min[:, None]) / span[:, None]
        part = Partition(np.array([1, 2, 2, 1]), 2)
        cfg = GruConfig(input_size=1, hidden_size=4, epochs=2, seed=0)
        results = train_partitioned(part, norm, cfg, (0, 140), (140, 170), 8)
        models = {label: mr[0] for label, mr in results.items()}
        return norm, scale, part, models

    def test_every_flow_predicted_once_with_correct_shape(self):
        norm, scale, part, models = self._setup()
        pred_norm, tm_pred = predict_tm(models, part, norm, (170, 200), 8, scale, 2, 300)
        assert pred_norm.shape == (30 - 8 + 1, 4)
        assert tm_pred.values.shape == (23, 2, 2)
        assert np.isfinite(pred_norm).all()

    def test_cluster_iteration_order_is_irrelevant(self):
        norm, scale, part, models = self._setup()
        a, _ = predict_tm(models, part, norm, (170, 200), 8, scale, 2, 300)
        reordered = dict(sorted(models.items(), reverse=True))
        b, _ = predict_tm(reordered, part, norm, (170, 200), 8, scale, 2, 300)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("labels", [[1, 2, 2, 1], [1, 2, 2, 2]])
    def test_each_cluster_is_predicted_as_a_partition_of_its_own_flows(self, labels):
        norm, scale, _, _ = self._setup()
        part = Partition(np.array(labels), 2)
        results = train_partitioned(part, norm, GruConfig(input_size=1, hidden_size=4, epochs=2,
                                                          seed=3), (0, 140), (140, 170), 8)
        models = {label: mr[0] for label, mr in results.items()}
        pred_norm, tm_pred = predict_tm(models, part, norm, (170, 200), 8, scale, 2, 300)
        for label, model in models.items():
            rows = part.members(label)
            alone = predict_one(model, norm[rows], 8, (170, 200))
            assert pred_norm[:, rows].tobytes() == alone.tobytes()
        assert tm_pred.values.tobytes() == predictions_in_bytes(pred_norm, scale).tobytes()

    @pytest.mark.parametrize("test_range,window_length", [
        ((30, 60), 8), ((-5, 20), 8), ((40, 46), 8), ((0, 50), 1)])
    def test_test_range_that_fits_no_window_rejected(self, test_range, window_length):
        model = init_model(GruConfig(input_size=4, hidden_size=4))
        values = np.random.default_rng(0).random((4, 50))
        with pytest.raises(ValidationError, match=fr"test range \({test_range[0]}, "
                                                  fr"{test_range[1]}\) of 50 steps must fit"):
            predict_one(model, values, window_length, test_range)

    def test_model_of_another_width_rejected(self):
        norm, scale, part, models = self._setup()
        models[1] = init_model(GruConfig(input_size=3, hidden_size=4))
        with pytest.raises(ValidationError, match="model 1 takes 3 flows"):
            predict_tm(models, part, norm, (170, 200), 8, scale, 2, 300)

    def test_missing_model_rejected(self):
        norm, scale, part, models = self._setup()
        del models[2]
        with pytest.raises(ValidationError):
            predict_tm(models, part, norm, (170, 200), 8, scale, 2, 300)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = init_model(GruConfig(input_size=3, hidden_size=5, seed=11, profile="desk"))
        path = str(tmp_path / "model.bin")
        save_model(model, path)
        back = load_model(path)
        assert back.input_size == 3
        assert back.hidden_size == 5
        assert back.seed == 11
        assert back.profile == "desk"
        for name in model.params:
            assert np.array_equal(back.params[name], model.params[name])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValidationError):
            load_model(str(path))


def _saved_model_bytes(tmp_path) -> bytes:
    path = tmp_path / "model.bin"
    save_model(init_model(GruConfig(input_size=3, hidden_size=5, seed=11)), str(path))
    return path.read_bytes()


def _with_header(data: bytes, edit) -> bytes:
    """data with its JSON header replaced by edit(header) (bytes or a dict)."""
    hlen = struct.unpack("<II", data[4:12])[1]
    new = edit(json.loads(data[12 : 12 + hlen]))
    blob = new if isinstance(new, bytes) else json.dumps(new).encode("utf-8")
    return MODEL_MAGIC + struct.pack("<II", 1, len(blob)) + blob + data[12 + hlen :]


MALFORMED_MODELS = {
    "short_magic": lambda data: data[:2],
    "short_version_block": lambda data: data[:6],
    "short_header": lambda data: data[:20],
    "header_not_json": lambda data: _with_header(data, lambda h: b"{not json"),
    "header_not_object": lambda data: _with_header(data, lambda h: [1, 2]),
    "header_missing_key": lambda data: _with_header(
        data, lambda h: {k: v for k, v in h.items() if k != "hidden_size"}),
    "param_order": lambda data: _with_header(
        data, lambda h: {**h, "param_order": list(reversed(PARAM_ORDER))}),
    "shape_vs_input_size": lambda data: _with_header(data, lambda h: {**h, "input_size": 4}),
    "shape_vs_hidden_size": lambda data: _with_header(
        data, lambda h: {**h, "shapes": {**h["shapes"], "uz": [5, 4]}}),
    "zero_input_size": lambda data: _with_header(data, lambda h: {
        **h, "input_size": 0,
        "shapes": {**h["shapes"], "wz": [5, 0], "wr": [5, 0], "wn": [5, 0], "wo": [0, 5],
                   "bo": [0]},
    }),
    "short_parameter_block": lambda data: data[:-8],
    "bytes_after_the_parameter_blocks": lambda data: data + bytes(8),
}


class TestLoadModelRejectsMalformedFiles:
    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
    def test_raises_validation_error(self, tmp_path, case):
        path = tmp_path / "bad.bin"
        path.write_bytes(MALFORMED_MODELS[case](_saved_model_bytes(tmp_path)))
        with pytest.raises(ValidationError):
            load_model(str(path))

    def test_unedited_header_round_trips(self, tmp_path):
        path = tmp_path / "same.bin"
        path.write_bytes(_with_header(_saved_model_bytes(tmp_path), lambda h: h))
        assert load_model(str(path)).hidden_size == 5


def noisy_flows(m, t, seed):
    """Normalized-looking flows: a shared daily-like cycle plus flow noise."""
    rng = np.random.default_rng(seed)
    base = 0.5 + 0.3 * np.sin(2 * np.pi * np.arange(t) / 24)
    return np.clip(base[None, :] + 0.15 * rng.normal(size=(m, t)), 0, 1)


ORACLE_TOL = 1e-9

# (labels, epochs, patience) on the 9 flows of a 3-node trace
ORACLE_CASES = {
    "uneven_widths_with_width_1": ([1, 2, 2, 3, 3, 3, 3, 2, 3], 4, 5),
    "entire_matrix_k1": ([1] * 9, 4, 5),
    "one_model_per_flow_k_eq_m": (list(range(1, 10)), 3, 5),
    "early_stopping": ([1, 2, 2, 3, 3, 3, 4, 4, 2], 40, 2),
}


def oracle_predictions(models, part, values, test_range, window_length):
    lo, hi = test_range
    out = np.empty((hi - lo - window_length + 1, part.n_items))
    for label in range(1, part.k + 1):
        rows = part.members(label)
        ds = make_windows(values[rows, lo:hi].T, window_length)
        out[:, rows] = oracle.gru_forward(models[label], ds.inputs)
    return out


class TestStackedTrainerMatchesOracle:
    """The stacked, fused trainer against the former per-cluster loop."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_same_models_curves_and_predictions(self, case):
        labels, epochs, patience = ORACLE_CASES[case]
        part = Partition(np.array(labels), max(labels))
        values = noisy_flows(9, 200, seed=len(case))
        cfg = GruConfig.for_profile("desk", input_size=1, seed=4, epochs=epochs,
                                    patience=patience)
        ranges = ((0, 150), (150, 175), (175, 200))
        got = train_partitioned(part, values, cfg, ranges[0], ranges[1], 6)
        expected = oracle.train_partitioned(part, values, cfg, ranges[0], ranges[1], 6)
        assert set(got) == set(expected)
        for label in expected:
            (m_got, r_got), (m_exp, r_exp) = got[label], expected[label]
            assert (r_got.epochs_run, r_got.best_epoch, r_got.stopped_early) == (
                r_exp.epochs_run, r_exp.best_epoch, r_exp.stopped_early)
            for curve in ("train_losses", "val_losses"):
                assert np.allclose(getattr(r_got, curve), getattr(r_exp, curve),
                                   rtol=0, atol=ORACLE_TOL)
            for name in PARAM_ORDER:
                assert np.allclose(m_got.params[name], m_exp.params[name],
                                   rtol=0, atol=ORACLE_TOL), (label, name)
        scale = ScaleParams(per_flow_min=np.zeros(9), per_flow_max=np.ones(9))
        pred, _ = predict_tm({k: mr[0] for k, mr in got.items()}, part, values, ranges[2],
                             6, scale, 3, 300)
        pred_exp = oracle_predictions({k: mr[0] for k, mr in expected.items()}, part,
                                      values, ranges[2], 6)
        assert np.allclose(pred, pred_exp, rtol=0, atol=ORACLE_TOL)
        if case == "early_stopping":
            # models leave the stack at different epochs
            runs = [r.epochs_run for _, r in got.values()]
            assert any(r.stopped_early for _, r in got.values())
            assert len(set(runs)) > 1

    @pytest.mark.usefixtures("deadline")
    def test_grouping_does_not_change_results(self, monkeypatch, tmp_path):
        # the early-stopping partition, and 16 clusters of 18 flows, which a
        # share at 1 or 2 usable CPUs trains as one group of more than 6
        many = np.arange(18) % 16 + 1
        cases = [(ORACLE_CASES["early_stopping"][0], 1, [4]), (many, 1, [16]),
                 (many, 2, [8, 8])]
        sizes, train_group = tmp_path / "group_sizes", predict._train_group

        def recorded(configs, *args):
            # appended from forked children too
            with open(sizes, "a", encoding="utf-8") as fh:
                fh.write(f"{len(configs)}\n")
            return train_group(configs, *args)

        def groups():
            got = sorted(int(line) for line in sizes.read_text().split())
            sizes.unlink()
            return got

        monkeypatch.setattr(predict, "_train_group", recorded)
        for labels, cpus, joint_groups in cases:
            part = Partition(np.array(labels), max(labels))
            values = noisy_flows(len(labels), 200, seed=1)
            cfg = GruConfig.for_profile("desk", input_size=1, seed=2, epochs=12, patience=2)
            usable_cpus(monkeypatch, cpus)
            joint = train_partitioned(part, values, cfg, (0, 150), (150, 175), 6)
            assert groups() == joint_groups
            with monkeypatch.context() as patch:
                # room for one model's pass only: every cluster trains in its own group
                patch.setattr(predict, "_WORKSPACE_FLOATS", 1)
                alone = train_partitioned(part, values, cfg, (0, 150), (150, 175), 6)
            assert groups() == [1] * part.k
            assert_no_children()
            assert sorted(joint) == sorted(alone) == list(range(1, part.k + 1))
            for label in joint:
                assert (json.dumps(joint[label][1].to_dict())
                        == json.dumps(alone[label][1].to_dict()))
                for name in PARAM_ORDER:
                    assert (joint[label][0].params[name].tobytes()
                            == alone[label][0].params[name].tobytes())

    def test_divergent_cluster_in_stack_raises_at_the_oracle_epoch(self):
        # flow 3 (cluster 2) jumps to 1e200 inside the validation range, so
        # its validation loss overflows once training has run one epoch
        part = Partition(np.array([1, 1, 2, 3]), 3)
        values = noisy_flows(4, 120, seed=3)
        values[2, 100] = 1e200
        cfg = GruConfig.for_profile("desk", input_size=1, seed=0, epochs=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError) as expected:
                oracle.train_partitioned(part, values, cfg, (0, 90), (90, 120), 6)
        with pytest.raises(NumericalError) as got:
            train_partitioned(part, values, cfg, (0, 90), (90, 120), 6)
        assert str(got.value) == str(expected.value)

    def test_divergent_training_loss_raises_at_the_oracle_epoch(self):
        part = Partition(np.array([1, 2, 2, 3]), 3)
        values = noisy_flows(4, 120, seed=3)
        values[1, 40] = 1e200
        cfg = GruConfig.for_profile("desk", input_size=1, seed=0, epochs=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError) as expected:
                oracle.train_partitioned(part, values, cfg, (0, 90), (90, 120), 6)
        with pytest.raises(NumericalError) as got:
            train_partitioned(part, values, cfg, (0, 90), (90, 120), 6)
        assert "non-finite loss at epoch" in str(expected.value)
        assert str(got.value) == str(expected.value)

    def test_oracle_model_file_loads_and_predicts_alike(self, tmp_path):
        rng = np.random.default_rng(9)
        train_ds = windows_from(rng, 40, 5, 3)
        val_ds = windows_from(rng, 10, 5, 3)
        cfg = GruConfig(input_size=3, hidden_size=6, epochs=3, seed=5, profile="desk")
        model, _ = oracle.train(cfg, train_ds, val_ds)
        path = str(tmp_path / "cluster_1.bin")
        save_model(model, path)
        back = load_model(path)
        values = rng.normal(size=(3, 12))  # 7 windows of 5 steps
        want = oracle.gru_forward(model, make_windows(values.T, 6).inputs)
        assert np.allclose(predict_one(back, values, 6), want, rtol=0, atol=1e-12)


@pytest.mark.usefixtures("deadline")
class TestForkedTraining:
    """Clusters train in one forked process per usable CPU."""

    def _case(self, name):
        labels, epochs, patience = ORACLE_CASES[name]
        cfg = GruConfig.for_profile("desk", input_size=1, seed=4, epochs=epochs,
                                    patience=patience)
        return Partition(np.array(labels), max(labels)), noisy_flows(9, 200, seed=1), cfg

    def test_forked_and_in_process_models_and_reports_are_identical(self, monkeypatch):
        part, values, cfg = self._case("early_stopping")
        forks = count_forks(monkeypatch)
        usable_cpus(monkeypatch, 1)
        alone = train_partitioned(part, values, cfg, (0, 150), (150, 175), 6)
        assert forks == []
        usable_cpus(monkeypatch, 2)
        forked = train_partitioned(part, values, cfg, (0, 150), (150, 175), 6)
        assert len(forks) == 2
        assert_no_children()
        assert sorted(forked) == sorted(alone) == [1, 2, 3, 4]
        for label in alone:
            assert (json.dumps(forked[label][1].to_dict())
                    == json.dumps(alone[label][1].to_dict()))
            for name in PARAM_ORDER:
                assert forked[label][0].params[name].tobytes() == \
                    alone[label][0].params[name].tobytes()

    @pytest.mark.parametrize("cpus,k,expected", [(1, 4, 0), (3, 1, 0), (3, 2, 2), (3, 4, 3)])
    def test_one_process_per_usable_cpu_at_most_one_per_cluster(self, monkeypatch, cpus, k,
                                                                expected):
        forks = count_forks(monkeypatch)
        usable_cpus(monkeypatch, cpus)
        cfg = GruConfig.for_profile("desk", input_size=1, seed=0, epochs=1)
        part = Partition(np.arange(6) % k + 1, k)
        got = train_partitioned(part, noisy_flows(6, 120, seed=0), cfg, (0, 90), (90, 120), 6)
        assert sorted(got) == list(range(1, k + 1))
        assert len(forks) == expected
        assert_no_children()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_of_two_diverging_groups_the_lower_label_raises(self, monkeypatch, cpus):
        # cluster 2 diverges in validation, after cluster 3 has diverged in
        # training; each cluster trains in its own group
        part = Partition(np.array([1, 2, 3, 4]), 4)
        values = noisy_flows(4, 120, seed=3)
        values[1, 100] = 1e200
        values[2, 40] = 1e200
        cfg = GruConfig.for_profile("desk", input_size=1, seed=0, epochs=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError) as expected:
                oracle.train_partitioned(part, values, cfg, (0, 90), (90, 120), 6)
        assert "validation" in str(expected.value)
        monkeypatch.setattr(predict, "_WORKSPACE_FLOATS", 1)
        usable_cpus(monkeypatch, cpus)
        with pytest.raises(NumericalError) as got:
            train_partitioned(part, values, cfg, (0, 90), (90, 120), 6)
        assert str(got.value) == str(expected.value)
        assert_no_children()

    def test_a_process_that_ends_without_a_result_raises(self, monkeypatch):
        parent = os.getpid()

        def die(*args):
            assert os.getpid() != parent, "trained in the calling process"
            os._exit(3)

        monkeypatch.setattr(predict, "_train_group", die)
        usable_cpus(monkeypatch, 2)
        part, values, cfg = self._case("uneven_widths_with_width_1")
        with pytest.raises(RuntimeError, match="exit code 3"):
            train_partitioned(part, values, cfg, (0, 150), (150, 175), 6)
        assert_no_children()

    def test_an_exception_in_a_process_is_raised_with_its_type(self, monkeypatch):
        def fail(*args):
            raise ValidationError("bad group")

        monkeypatch.setattr(predict, "_train_group", fail)
        usable_cpus(monkeypatch, 2)
        part, values, cfg = self._case("uneven_widths_with_width_1")
        with pytest.raises(ValidationError, match="bad group"):
            train_partitioned(part, values, cfg, (0, 150), (150, 175), 6)
        assert_no_children()
