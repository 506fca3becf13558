import csv
import dataclasses
import hashlib
import json
import math
import pickle
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from renyiqnn import cli, divergence, models, training
from renyiqnn.divergence import SingularStateError
from renyiqnn.hamiltonians import normalize, pauli_tables, random_three_local, random_two_local
from renyiqnn.models import QBMParams, UQNNParams, qbm_visible_state, uqnn_visible_state
from renyiqnn.states import fidelity, thermal_state
from renyiqnn.training import (
    CSV_COLUMNS,
    AdamState,
    EnsembleSummary,
    MetricsLog,
    MetricsRow,
    TrainConfig,
    TrainingError,
    adam_step,
    draw_target,
    load_checkpoint_model,
    run_ensemble,
    run_streams,
    target_hamiltonian,
    train,
)
from tests import conftest


def small_cfg(**over) -> TrainConfig:
    base = dict(kind="uqnn", n_v=2, n_h=1, epochs=5, lr=0.01, seed=3)
    base.update(over)
    return TrainConfig(**base)


class TestAdam:
    def test_zero_gradient_is_noop(self):
        st = AdamState.init(3, lr=0.1)
        params = np.array([0.5, -0.2, 1.0])
        st2, out = adam_step(st, params, np.zeros(3))
        assert np.array_equal(out, params)
        assert st2.step == 1

    def test_constant_gradient_step_magnitude(self):
        # with constant gradients the bias-corrected update approaches lr
        st = AdamState.init(1, lr=0.05)
        params = np.array([0.0])
        for _ in range(50):
            st, params = adam_step(st, params, np.array([2.7]))
        before = params.copy()
        st, params = adam_step(st, params, np.array([2.7]))
        assert abs(abs(params[0] - before[0]) - 0.05) < 0.05 * 1e-3

    def test_non_finite_gradient_rejected(self):
        st = AdamState.init(2, lr=0.1)
        with pytest.raises(FloatingPointError, match="index 1"):
            adam_step(st, np.zeros(2), np.array([0.0, math.nan]))

    def test_overflowing_square_rejected(self):
        # 2e154 is finite, but its square overflows the second moment to inf,
        # which would give that angle a step of 0 from then on
        st = AdamState.init((1, 3), lr=0.1)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="diverged gradient at index 2"):
            adam_step(st, np.zeros((1, 3)), np.array([[1.0, -1e154, 2e154]]))

    @pytest.mark.parametrize("kind", ["uqnn", "qbm"])
    def test_overflowing_square_ends_the_member(self, kind):
        # l2 = 1e300 puts gradients near 1e300 from epoch 0; the first update
        # raises, so every member fails instead of training with frozen angles
        cfg = small_cfg(kind=kind, n_h=0, l2_penalty=1e300, lr=1e-3)
        with pytest.raises(TrainingError, match="epoch 1: diverged gradient at index"):
            train(cfg)
        with pytest.raises(TrainingError, match=r"of 3 runs failed \(> 20%\)"):
            run_ensemble(cfg, 3, vary="both")

    def test_shape_mismatch_rejected(self):
        st = AdamState.init(2, lr=0.1)
        with pytest.raises(ValueError):
            adam_step(st, np.zeros(2), np.zeros(3))

    def test_moments_update(self):
        st = AdamState.init(1, lr=0.1)
        st2, _ = adam_step(st, np.zeros(1), np.array([1.0]))
        assert st2.m[0] == pytest.approx(0.1)  # (1 - beta1) * g
        assert st2.v[0] == pytest.approx(0.001)  # (1 - beta2) * g^2
        # three updates follow Kingma & Ba (arXiv:1412.6980) at beta1 = 0.9, beta2 = 0.999, eps = 1e-8, bit for bit
        st, params = AdamState.init(2, lr=0.1), np.array([0.3, -1.2])
        m, v, theta = np.zeros(2), np.zeros(2), params.copy()
        for t, g in enumerate([np.array([0.5, -2.0]), np.array([-0.25, 3.0]), np.array([1.5, 0.125])], start=1):
            st, params = adam_step(st, params, g)
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g**2
            theta = theta - 0.1 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
            assert np.array_equal(params, theta) and np.array_equal(st.m, m) and np.array_equal(st.v, v)
        assert [f.name for f in dataclasses.fields(AdamState)] == ["step", "m", "v", "lr"]


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_cfg(kind="boltzmann")
        with pytest.raises(ValueError):
            small_cfg(epochs=0)
        with pytest.raises(ValueError):
            small_cfg(lr=-0.1)
        with pytest.raises(ValueError):
            small_cfg(l2_penalty=-1.0)
        with pytest.raises(ValueError):
            small_cfg(direction="sideways")
        with pytest.raises(ValueError):
            small_cfg(log_every=0)
        with pytest.raises(ValueError):
            small_cfg(target_locality=4)
        with pytest.raises(ValueError):
            small_cfg(tau=0.0)
        with pytest.raises(ValueError, match="n_v must be an integer"):
            small_cfg(n_v=1.5)
        with pytest.raises(ValueError, match="seed must be an integer"):
            small_cfg(seed="x")
        with pytest.raises(ValueError, match="tau must be a number"):
            small_cfg(tau="x")
        with pytest.raises(ValueError, match="seed must be >= 0"):
            small_cfg(seed=-1)
        with pytest.raises(ValueError, match="n_v must be an integer, got True"):
            small_cfg(n_v=True)
        with pytest.raises(ValueError, match="epochs must be an integer, got True"):
            small_cfg(epochs=True)
        with pytest.raises(ValueError, match="lr must be a number, got True"):
            small_cfg(lr=True)
        for retired in ("target_std_single", "target_std_pair", "target_reg", "layout", "repetitions",
                        "normalize_init"):
            with pytest.raises(TypeError, match=retired):
                small_cfg(**{retired: None})
        with pytest.raises(ValueError, match="lr must be a number, got nan"):
            small_cfg(lr=math.nan)

    def test_widths_beyond_the_dimension_cap(self):
        small_cfg(n_v=6, n_h=6)
        with pytest.raises(ValueError, match="dimension 8192 exceeds cap 4096"):
            small_cfg(n_v=7, n_h=6)
        with pytest.raises(ValueError, match=r"dimension 2\^1000000000001 exceeds cap 4096"):
            small_cfg(n_v=1, n_h=10**12)

    def test_hash_stable_and_sensitive(self):
        a, b = small_cfg(), small_cfg()
        assert a.config_hash() == b.config_hash()
        assert small_cfg(lr=0.02).config_hash() != a.config_hash()
        assert len(a.config_hash()) == 16

    def test_eleven_fields(self):
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "kind", "n_v", "n_h", "epochs", "lr", "direction", "l2_penalty", "seed", "log_every",
            "target_locality", "tau",
        ]

    def test_default_single_std_follows_locality(self):
        # the target spreads follow the locality: singles sqrt(0.1) and pairs 1 at 2, all 1 at 3
        for locality, draw in (
            (2, lambda rng: random_two_local(3, math.sqrt(0.1), 1.0, rng)),
            (3, lambda rng: random_three_local(3, 1.0, rng)),
        ):
            h = target_hamiltonian(3, np.random.default_rng(6), locality, 2.0)
            ref = normalize(draw(np.random.default_rng(6)), 2.0)
            assert [t.axes for t in h.terms] == [t.axes for t in ref.terms]
            assert [t.coeff for t in h.terms] == [t.coeff for t in ref.terms]


class TestSeedStreams:
    def test_roles_are_independent(self):
        t0, i0 = run_streams(5, 0, "both")
        t1, i1 = run_streams(5, 0, "both")
        assert t0.normal() == t1.normal()
        assert i0.normal() == i1.normal()

    def test_vary_target_freezes_init(self):
        _, i_a = run_streams(5, 0, "target")
        _, i_b = run_streams(5, 7, "target")
        assert i_a.normal() == i_b.normal()
        t_a, _ = run_streams(5, 0, "target")
        t_b, _ = run_streams(5, 7, "target")
        assert t_a.normal() != t_b.normal()

    def test_vary_init_freezes_target(self):
        t_a, _ = run_streams(5, 0, "init")
        t_b, _ = run_streams(5, 7, "init")
        assert t_a.normal() == t_b.normal()

    def test_target_stream_ignores_hidden_units(self):
        # targets depend only on (seed, run, role), so models with different
        # n_h can share identical targets
        cfg_a = small_cfg(n_h=0)
        cfg_b = small_cfg(n_h=3)
        rng_a, _ = run_streams(cfg_a.seed, 2, "both")
        rng_b, _ = run_streams(cfg_b.seed, 2, "both")
        _, rho_a = draw_target(cfg_a, rng_a)
        _, rho_b = draw_target(cfg_b, rng_b)
        assert np.array_equal(rho_a.mat, rho_b.mat)


class TestDrawTarget:
    def test_two_local_thermal(self):
        cfg = small_cfg()
        rng, _ = run_streams(cfg.seed, 0, "both")
        h, rho = draw_target(cfg, rng)
        assert h.n_qubits == cfg.n_v
        assert np.allclose(rho.mat, thermal_state(h).mat)
        assert len(h.terms) == 15

    def test_three_local_target(self):
        cfg = small_cfg(n_v=3, target_locality=3, tau=10.0)
        rng, _ = run_streams(cfg.seed, 0, "both")
        h, rho = draw_target(cfg, rng)
        assert len(h.terms) == 63
        lam = np.linalg.eigvalsh(h.dense())
        assert max(abs(lam[0]), abs(lam[-1])) == pytest.approx(10.0, abs=1e-9)

    @pytest.mark.parametrize("locality", [2, 3])
    def test_cli_recipe_draws_the_same_target(self, locality):
        cfg = small_cfg(n_v=3, target_locality=locality, tau=2.0)
        recipe = {"locality": locality, "tau": 2.0}
        h_train, _ = draw_target(cfg, np.random.default_rng(4))
        h_cli = cli._target_hamiltonian(3, recipe, np.random.default_rng(4))
        assert [t.axes for t in h_train.terms] == [t.axes for t in h_cli.terms]
        assert [t.coeff for t in h_train.terms] == [t.coeff for t in h_cli.terms]


class TestTrainUQNN:
    def test_seeded_run_converges(self):
        cfg = TrainConfig(kind="uqnn", n_v=3, n_h=3, epochs=100, lr=0.03, seed=0)
        log = train(cfg)
        fid = log.column("fidelity")
        assert fid[0] < 0.8
        assert fid[-1] > 0.95

    def test_loss_windows_decrease(self):
        cfg = TrainConfig(kind="uqnn", n_v=3, n_h=3, epochs=100, lr=0.03, seed=0)
        loss = train(cfg).column("loss")
        decreases = sum(loss[i + 10] < loss[i] for i in range(0, 90, 10))
        assert decreases == 9

    def test_loss_fidelity_anticorrelated(self):
        cfg = TrainConfig(kind="uqnn", n_v=3, n_h=3, epochs=100, lr=0.03, seed=0)
        log = train(cfg)
        rho_s = spearmanr(log.column("loss"), log.column("fidelity")).statistic
        assert rho_s < -0.8

    def test_one_qubit_monotone_start(self):
        cfg = TrainConfig(kind="uqnn", n_v=1, n_h=1, epochs=10, lr=0.01, seed=1)
        loss = train(cfg).column("loss")
        assert all(loss[i + 1] <= loss[i] + 1e-12 for i in range(len(loss) - 1))

    def test_zero_lr_freezes_parameters(self):
        log = train(small_cfg(lr=0.0))
        fid = log.column("fidelity")
        assert all(f == fid[0] for f in fid)

    def test_bitwise_deterministic(self):
        a = train(small_cfg())
        b = train(small_cfg())
        for name in ("loss", "fidelity", "grad_inf_norm"):
            assert np.array_equal(a.column(name), b.column(name))

    def test_log_every_keeps_first_and_last(self):
        log = train(small_cfg(epochs=7, log_every=3))
        assert [r.epoch for r in log.rows] == [0, 3, 6, 7]

    def test_checkpoint_reproduces_final_state(self):
        cfg = small_cfg()
        log = train(cfg)
        model = load_checkpoint_model(log.checkpoint)
        assert isinstance(model, UQNNParams)
        rng, _ = run_streams(cfg.seed, 0, "both")
        _, rho = draw_target(cfg, rng)
        f = fidelity(rho, uqnn_visible_state(model))
        assert f == pytest.approx(log.final_fidelity(), abs=1e-12)
        assert log.checkpoint["epoch"] == cfg.epochs

    def test_forward_direction_runs(self):
        # forward needs a full-rank visible state: n_h >= n_v
        log = train(small_cfg(n_v=1, n_h=2, direction="forward", epochs=3))
        assert len(log.rows) == 4
        assert np.isfinite(log.column("loss")).all()

    def test_forward_rank_deficiency_reported(self):
        # n_h = 0 keeps sigma_v pure, so the forward loss cannot be evaluated
        with pytest.raises(TrainingError, match="epoch 0") as exc_info:
            train(small_cfg(n_h=0, direction="forward"))
        assert isinstance(exc_info.value.__cause__, SingularStateError)


class TestTrainQBM:
    def test_penalized_loss_tracks_penalty(self):
        cfg = small_cfg(kind="qbm", n_v=2, n_h=1, l2_penalty=2.0, epochs=4)
        log = train(cfg)
        for row in log.rows:
            assert row.penalized_loss >= row.loss - 1e-12

    def test_no_penalty_rows_match(self):
        log = train(small_cfg(kind="qbm", epochs=3))
        for row in log.rows:
            assert row.penalized_loss == pytest.approx(row.loss, abs=1e-12)

    def test_checkpoint_roundtrip(self):
        cfg = small_cfg(kind="qbm", epochs=3)
        log = train(cfg)
        model = load_checkpoint_model(log.checkpoint)
        assert isinstance(model, QBMParams)

    def test_gradients_finite_at_init(self):
        cfg = small_cfg(kind="qbm", epochs=2, lr=0.0)
        log = train(cfg)
        assert np.isfinite(log.column("grad_inf_norm")).all()


class TestOneEvaluationPerEpoch:
    @pytest.mark.parametrize("log_every", [1, 3])
    def test_evaluate_and_statevector_once_per_epoch(self, monkeypatch, log_every):
        counts = {"evaluate": 0, "statevector": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(divergence, "evaluate", counting("evaluate", divergence.evaluate))
        statevector = counting("statevector", models.uqnn_statevector)
        monkeypatch.setattr(divergence, "uqnn_statevector", statevector)
        monkeypatch.setattr(models, "uqnn_statevector", statevector)
        cfg = small_cfg(epochs=7, log_every=log_every)
        train(cfg)
        assert counts == {"evaluate": cfg.epochs + 1, "statevector": cfg.epochs + 1}

    def test_qbm_pauli_tables_built_once(self, monkeypatch):
        calls = []

        def counting(terms, n_qubits):
            calls.append(len(terms))
            return pauli_tables(terms, n_qubits)

        monkeypatch.setattr(models, "pauli_tables", counting)
        log = train(small_cfg(kind="qbm", n_v=2, n_h=1, epochs=6))
        assert len(log.rows) == 7
        assert calls == [len(models.two_local_terms(3))]

    @pytest.mark.parametrize("direction", ["reverse", "forward"])
    def test_target_factorized_once_per_run(self, monkeypatch, direction):
        calls, eigh, svd = [], np.linalg.eigh, np.linalg.svd

        def counting(name, fn):
            def wrapper(m, *args, **kwargs):
                calls.append((name, kwargs.get("compute_uv", True)))
                return fn(m, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", eigh))
        monkeypatch.setattr(np.linalg, "svd", counting("svd", svd))
        cfg = small_cfg(n_v=2, n_h=2, epochs=7, log_every=3, direction=direction)
        log = train(cfg)
        rows, evaluations = len(log.rows), cfg.epochs + 1
        # one eigh for the target's Hamiltonian, whose eigenpairs are its
        # factor for the whole run (its inverse and root factors included);
        # a forward evaluation inverts the model state, so it takes one SVD
        # of the statevector as that state's factor, a reverse one reads the
        # statevector itself; a logged fidelity adds only singular values
        svds = evaluations if direction == "forward" else 0
        assert calls.count(("eigh", True)) == 1
        assert calls.count(("svd", True)) == svds
        assert calls.count(("svd", False)) == rows
        assert len(calls) == 1 + svds + rows

    @pytest.mark.parametrize("kind", ["uqnn", "qbm"])
    @pytest.mark.parametrize("direction", ["reverse", "forward"])
    def test_last_row_is_the_checkpoint_state(self, kind, direction):
        cfg = small_cfg(kind=kind, n_v=1, n_h=2, direction=direction, epochs=4)
        log = train(cfg)
        model = load_checkpoint_model(log.checkpoint)
        _, rho = draw_target(cfg, run_streams(cfg.seed, 0, "both")[0])
        sigma_v = uqnn_visible_state(model) if kind == "uqnn" else qbm_visible_state(model)
        if direction == "reverse":
            loss = divergence.renyi2_reverse(sigma_v, rho).value
        else:
            loss = divergence.renyi2_forward(rho, sigma_v).value
        assert log.rows[-1].loss == pytest.approx(loss, abs=0)
        assert log.rows[-1].fidelity == pytest.approx(fidelity(rho, sigma_v), abs=0)


class TestMetricsLog:
    def make_log(self, *extra):
        rows = [
            MetricsRow(0, 1.0, 1.0, 0.5, 0.3, 0.1, 1.0),
            MetricsRow(1, 0.9, 0.9, 0.6, 0.2, 0.1, 1.0),
            *extra,
        ]
        return MetricsLog(rows=rows)

    def test_csv_header(self, tmp_path):
        log = self.make_log()
        path = tmp_path / "m.csv"
        log.to_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3

    def test_csv_bytes_are_those_of_csv_writer(self, tmp_path):
        log = self.make_log(
            MetricsRow(2, -0.0, 5e-324, 1e16, math.nan, math.inf, 1e-05),
            MetricsRow(30, 0.1 + 0.2, -math.inf, 1.0, 2.5e-310, 123456789.125, 0.0),
        )
        log.to_csv(str(tmp_path / "m.csv"))
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for epoch, *values in log._data.tolist():
                writer.writerow([int(epoch)] + [repr(v) for v in values])
        assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_column_and_endpoints(self):
        log = self.make_log()
        assert np.array_equal(log.column("loss"), [1.0, 0.9])
        assert log.initial_fidelity() == 0.5
        assert log.final_fidelity() == 0.6
        with pytest.raises(AttributeError):
            log.column("walltime")

    @pytest.mark.parametrize("kind", ["uqnn", "qbm"])
    def test_checkpoint_is_the_written_json(self, monkeypatch, tmp_path, kind):
        build, built = training._build_model, []

        def recording(cfg, init_rng):
            built.append(build(cfg, init_rng))
            return built[-1]

        monkeypatch.setattr(training, "_build_model", recording)
        cfg = small_cfg(kind=kind, epochs=3)
        (log,), _ = run_ensemble(cfg, 1, out_dir=str(tmp_path))
        expected = models.checkpoint_doc(built[0], rng_seed=cfg.seed, epoch=cfg.epochs)
        assert log.checkpoint == expected
        text = (tmp_path / "run_000_checkpoint.json").read_text()
        assert text == json.dumps(expected, indent=1)

    def test_pickled_fig3_log_is_compact(self):
        # what an ensemble worker sends back: 21 logged rows and a 66-weight checkpoint
        doc = cli.load_experiment_config(cli.bundled_config_path("fig3_tau10.json"), "ham-learn")
        cfg = dataclasses.replace(TrainConfig(**doc["train"]), epochs=200)
        blob = pickle.dumps(train(cfg))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            log = pickle.loads(blob)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(log.rows) == 21
        assert held < 20_000

    def test_fig2_log_is_compact(self):
        # 101 rows and a 153-angle checkpoint: about 39 KB as row objects and JSON text
        doc = cli.load_experiment_config(cli.bundled_config_path("fig2_3v3h.json"), "thermal-learn")
        blob = pickle.dumps(train(TrainConfig(**doc["train"])))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            log = pickle.loads(blob)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(log.rows) == 101
        assert held < 12_000

    def test_rows_keep_every_value_exactly(self):
        values = [
            (0, 0.1 + 0.2, -0.0, 5e-324, 1.7976931348623157e308, 2.2250738585072014e-308, 1e-3),
            (7, math.pi, 2.0, 0.5, 3.0, 1e-9, 0.25),
        ]
        log = MetricsLog([MetricsRow(*v) for v in values])
        back = pickle.loads(pickle.dumps(log))
        for got in (log.rows, back.rows):
            assert [tuple(r) for r in got] == values
            assert all(type(r.epoch) is int for r in got)
            assert math.copysign(1.0, got[0].penalized_loss) == -1.0

    def test_rows_round_trip_every_float_bit_for_bit(self, rng):
        # random bit patterns cover every exponent, subnormals and both zeros
        floats = rng.integers(0, 2**64, size=(50, 6), dtype=np.uint64).view(np.float64)
        floats[~np.isfinite(floats)] = 1.5
        floats[0] = [math.inf, -math.inf, math.nan, -0.0, 5e-324, -2.2250738585072014e-308]
        values = [(e, *row) for e, row in enumerate(floats.tolist())]
        log = MetricsLog([MetricsRow(*v) for v in values])
        got = [tuple(r) for r in log.rows]
        assert [e for e, *_ in got] == list(range(50))
        assert np.array([v[1:] for v in got]).view(np.uint64).tolist() == floats.view(np.uint64).tolist()

    def test_rows_are_a_fresh_read_only_list(self):
        log = self.make_log()
        rows = log.rows
        rows.append(MetricsRow(2, 0.8, 0.8, 0.7, 0.1, 0.1, 1.0))
        with pytest.raises(AttributeError):
            rows[0].loss = 5.0
        assert len(log.rows) == 2 and log.rows[0].loss == 1.0
        with pytest.raises(AttributeError):
            log.rows = rows


class TestPinnedFormats:
    """SHA-256 of the files one 3-epoch member writes, as the two model kinds wrote them when pinned."""

    @pytest.mark.parametrize(
        "kind,n_v,n_h,checkpoint_sha,csv_sha",
        [
            (
                "uqnn", 1, 1,
                "dd5134625bbb3f1bcfaa3e4520631d3588ff9d06369dfbc20203fdecb1963386",
                "b55c6e91329742318135b73617ff7d10026c290c5e2954693edbac8ea553a351",
            ),
            (
                "qbm", 2, 0,
                "660f9da97f87a53cf2779135320ee3125a7cb10d5458a9fbf372edadfd132498",
                "5890ac9cd12c5a47647bd190caf4138cd36513967f035cccfc82271a9d3055d8",
            ),
        ],
    )
    def test_member_files_are_pinned(self, tmp_path, kind, n_v, n_h, checkpoint_sha, csv_sha):
        self.assert_pinned(small_cfg(kind=kind, n_v=n_v, n_h=n_h, epochs=3), tmp_path, checkpoint_sha, csv_sha)

    @pytest.mark.parametrize(
        "cfg,checkpoint_sha,csv_sha",
        [
            (
                # fig3's shape: three-local tau 10 target, lambda 2, every 10th epoch logged
                TrainConfig(kind="qbm", n_v=4, n_h=0, epochs=20, lr=0.01, l2_penalty=2.0,
                            target_locality=3, tau=10.0, log_every=10),
                "27370d7dbd02de9a7ce12ca49fbdcdb7b43cbb10cc48f5b4c1dd6810330b9e8e",
                "8948d388c30ca1255f2eda239f02f586e348c9e91d9da442a56f0ccc8e693387",
            ),
            (
                TrainConfig(kind="qbm", n_v=4, n_h=0, epochs=20, lr=0.01, l2_penalty=2.0,
                            target_locality=3, tau=10.0, log_every=10, direction="forward"),
                "1cce2a78cae0a03301ad12434557e640330ae46fabdb82ad08819c08d3add1e0",
                "bd5f8a74cfcf19d8d775fcfa8ad74516325043d74218ff656ae546e48288c14c",
            ),
            (
                # a hidden unit: sigma_v is built from its root
                small_cfg(kind="qbm", n_v=2, n_h=1, epochs=3),
                "f2b86a194e30c6d8de22fa458d7f325088b7ca3142c50ea379ee2273210e8afb",
                "56e5dfddb97acf40f91ae5a6c401c28b6504f856d428d31097a7ace8d98b565c",
            ),
            (
                small_cfg(kind="qbm", n_v=2, n_h=1, epochs=3, direction="forward"),
                "db94bbe1bfd3a3a49fa6e2adf01610f83e003a94a0173891e80148cac69ae848",
                "6ba296ae6b78007b326b3b069f64bb70401878c42e155342bee85f69084e9f43",
            ),
        ],
        ids=["fig3-reverse", "fig3-forward", "2v1h-reverse", "2v1h-forward"],
    )
    def test_qbm_member_files_are_pinned(self, tmp_path, cfg, checkpoint_sha, csv_sha):
        self.assert_pinned(cfg, tmp_path, checkpoint_sha, csv_sha)

    @staticmethod
    def assert_pinned(cfg, tmp_path, checkpoint_sha, csv_sha):
        run_ensemble(cfg, 1, out_dir=str(tmp_path))
        checkpoint = (tmp_path / "run_000_checkpoint.json").read_bytes()
        # wall_ms, the last column, is a timing and is left out
        lines = (tmp_path / "run_000.csv").read_text().splitlines()
        science = "\n".join(line.rsplit(",", 1)[0] for line in lines)
        assert hashlib.sha256(checkpoint).hexdigest() == checkpoint_sha
        assert hashlib.sha256(science.encode()).hexdigest() == csv_sha

    def test_uqnn_member_matches_its_per_support_block_values(self, tmp_path):
        # What the uqnn member above logged, and its checkpoint angles, when each
        # block held one qubit support (1v+1h in 3 blocks, now 1): the hashes
        # pin the files exactly, these literals bound how far the merged
        # blocks' rounding may move them.
        logged = [
            [0, 1.1179975869111018, 1.1179975869111018, 0.8803431740781217, 1.7542326474251073, 0.1192029220221175],
            [1, 1.028679653398145, 1.028679653398145, 0.8952929658347526, 1.8961515711572487, 0.1192029220221175],
            [2, 0.9404772668955371, 0.9404772668955371, 0.9083709551666819, 2.025798306966205, 0.1192029220221175],
            [3, 0.8554369740067088, 0.8554369740067088, 0.9195599155831196, 2.1334546554561604, 0.1192029220221175],
        ]
        thetas = [
            -0.08754754102249859, 2.3682888650489557, 0.39998617659514984, -0.49302355026911,
            -0.5041025022480283, 0.7903699222938194, -0.06817470642181489, 0.903949478770908,
            0.023511629821367584, 2.2494410358507086, 1.2395660267886544, -0.2601134849617368,
            -0.5058933775215501, 0.030572685515030916, -0.3198044133312628,
        ]
        (log,), _ = run_ensemble(small_cfg(n_v=1, n_h=1, epochs=3), 1, out_dir=str(tmp_path))
        assert np.allclose([tuple(r)[:-1] for r in log.rows], logged, rtol=1e-12, atol=0)
        got = json.loads((tmp_path / "run_000_checkpoint.json").read_text())["thetas"]
        # The exact gradient of angles 3-5 (the hidden qubit's singles, applied
        # last) and 14 (ZZ on |00>) is 0; ADAM (eps 1e-8) turns its rounding
        # noise of about 1e-16 into steps of about lr * 1e-8 per epoch.
        zero = [3, 4, 5, 14]
        rest = [k for k in range(15) if k not in zero]
        assert np.allclose(np.take(got, rest), np.take(thetas, rest), rtol=1e-12, atol=0)
        assert np.allclose(np.take(got, zero), np.take(thetas, zero), rtol=0, atol=1e-8)


    @pytest.mark.parametrize("direction", ["reverse", "forward"])
    def test_qbm_hidden_member_matches_its_factored_values(self, tmp_path, direction):
        # What the 2v+1h members above logged, and their checkpoint angles,
        # when the model state was always factored by the SVD of its root:
        # a reverse run now reads the root itself, a forward one only
        # reads its fidelity from the root
        logged = {
            "reverse": [
                [0, 0.6343288931956764, 0.6343288931956764, 0.9310714475913546, 0.765921819978122, 0.0720131870028942],
                [1, 0.5754211091944691, 0.5754211091944691, 0.936684499078682, 0.752392695651917, 0.0720131870028942],
                [2, 0.5213421772831602, 0.5213421772831602, 0.941729053666625, 0.7331667124635439, 0.0720131870028942],
                [3, 0.4722867464545309, 0.4722867464545309, 0.9463490996877176, 0.7096223836012978, 0.0720131870028942],
            ],
            "forward": [
                [0, 0.4759459786504974, 0.4759459786504974, 0.9310714475913546, 0.5879168105685539, 0.1472871978959753],
                [1, 0.42501455667304705, 0.42501455667304705, 0.9370926912120059, 0.5616526156543169, 0.14734707991343682],
                [2, 0.37824096602580864, 0.37824096602580864, 0.9430922881259651, 0.5332946199465688, 0.14595945556407786],
                [3, 0.3357303733748144, 0.3357303733748144, 0.9487504137582359, 0.5048627378066443, 0.1443942148067881],
            ],
        }[direction]
        thetas = {
            "reverse": [
                0.019854003011358867, 0.16557632365834077, 0.006817903314009853, -0.07106157694277387,
                -0.07179336682722413, 0.03630526883382366, 0.026833349329084398, 0.04772782649839283,
                0.01232750205195668, 0.15562190210415788, 0.13091656530773346, -0.05423840254288559,
                -0.0098244527387883, 0.03492353088162111, 2.8430346149220694e-05, 0.07465897510150887,
                -0.10652834417164637, -0.06372241539338878, 0.0072018271220225865, 0.051586102557271946,
                -0.0687427541122466, 0.10796279831320121, -0.17611985455281126, -0.225980213161663,
                -0.1834191655039061, -0.08606830148262438, 0.013700571513812031, 0.06256501255536738,
                0.15348535169556873, 0.05004510754527663, -0.009725364047167112, 0.03578270750762596,
                0.12503376968138638, -0.06203367059924742, -0.0424189661696358, 0.00044037541248345864,
            ],
            "forward": [
                -0.039519647666024574, 0.16560803686806805, 0.006311669953851146, -0.04177002400503006,
                -0.012809324518140309, 0.036181578241419335, 0.026594856152617974, 0.04779139777182924,
                -0.03048604885920652, 0.15566743106393802, 0.13098403663115843, -0.05424327472216452,
                -0.009895227101337986, 0.03468439852828453, -0.05663072400296217, 0.07470463672406959,
                -0.10649832097640957, -0.11943241405479614, 0.0636502096003299, 0.051617872404585416,
                -0.0690417298264222, 0.08538044355792462, -0.17703569266105673, -0.22608874810593463,
                -0.18335042991011255, -0.08601088751727282, 0.013621315910487278, 0.06293328362893909,
                0.21294565395235257, 0.053656947243574546, -0.009719610692664084, -0.02393513450578104,
                0.12483525107179842, -0.0618458671766055, -0.10181718587663398, 0.0005586245906024061,
            ],
        }[direction]
        cfg = small_cfg(kind="qbm", n_v=2, n_h=1, epochs=3, direction=direction)
        (log,), _ = run_ensemble(cfg, 1, out_dir=str(tmp_path))
        assert np.allclose([tuple(r)[:-1] for r in log.rows], logged, rtol=1e-12, atol=0)
        got = json.loads((tmp_path / "run_000_checkpoint.json").read_text())["thetas"]
        assert np.allclose(got, thetas, rtol=1e-12, atol=0)


    @pytest.mark.parametrize("direction", ["reverse", "forward"])
    def test_circuit_columns_match_the_factor_basis_route(self, monkeypatch, direction):
        # fig2's shape: a reverse run reads the statevector as the model
        # state's root, and its columns agree with the factor-basis route to
        # 1e-13; a forward run factors the state as before, and only its
        # fidelity, read from the root, moves (by 1e-14 at most)
        doc = cli.load_experiment_config(cli.bundled_config_path("fig2_3v3h.json"), "thermal-learn")
        cfg = dataclasses.replace(TrainConfig(**doc["train"]), epochs=30, direction=direction)
        logs, _ = run_ensemble(cfg, 2, vary="both")
        conftest.factor_roots_at_construction(monkeypatch)
        ref, _ = run_ensemble(cfg, 2, vary="both")
        moved = ["fidelity"] if direction == "forward" else ["loss", "penalized_loss", "fidelity", "grad_inf_norm"]
        for lg, rf in zip(logs, ref):
            for name in CSV_COLUMNS[:-1]:
                if name in moved:
                    assert np.allclose(lg.column(name), rf.column(name), rtol=1e-13 if direction == "reverse" else 1e-14, atol=0)
                else:
                    assert np.array_equal(lg.column(name), rf.column(name))
            got, want = lg.checkpoint["thetas"], rf.checkpoint["thetas"]
            if direction == "forward":
                assert got == want
            else:
                # angles with a zero exact gradient take ADAM-normalized rounding noise, about lr * 1e-8 per epoch
                assert np.allclose(got, want, rtol=1e-12, atol=1e-8)


class TestRunEnsemble:
    @staticmethod
    def reference_summary(logs: list[MetricsLog]) -> tuple[list[int], dict[str, np.ndarray]]:
        """The epoch grid and mean/std curves, summed member by member in run order."""
        stats = {}
        for name in ("loss", "penalized_loss", "fidelity", "grad_inf_norm"):
            cols = [lg.column(name) for lg in logs]
            total = cols[0].copy()
            for col in cols[1:]:
                total = total + col
            mean = total / len(cols)
            squares = (cols[0] - mean) * (cols[0] - mean)
            for col in cols[1:]:
                squares = squares + (col - mean) * (col - mean)
            stats[f"{name}_mean"] = mean
            stats[f"{name}_std"] = np.sqrt(squares / (len(cols) - 1)) if len(cols) > 1 else np.zeros_like(mean)
        return [row.epoch for row in logs[0].rows], stats

    @pytest.mark.parametrize(
        "n_runs,jobs,failing", [(1, 1, False), (5, 1, True), (3, 2, False)], ids=["one", "failed", "jobs2"]
    )
    def test_summary_equals_a_member_by_member_reduction(self, monkeypatch, n_runs, jobs, failing):
        cfg = small_cfg(epochs=7, log_every=3, l2_penalty=0.1)
        if failing:
            bad_rho = draw_target(cfg, run_streams(cfg.seed, 2, "both")[0])[1].mat
            exact = divergence.evaluate

            def faulty(p, rho, direction):
                if any(np.array_equal(mat, bad_rho) for mat in rho.mat):
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
                return exact(p, rho, direction)

            monkeypatch.setattr(divergence, "evaluate", faulty)
        logs, summary = run_ensemble(cfg, n_runs, vary="both", jobs=jobs)
        assert len(logs) == n_runs - failing
        assert summary.failures == (["run 2: epoch 0: Eigenvalues did not converge"] if failing else [])
        epochs, stats = self.reference_summary(logs)
        assert summary.epoch == epochs == [0, 3, 6, 7]
        assert all(type(e) is int for e in summary.epoch)
        assert list(summary.stats) == list(stats)
        for name, ref in stats.items():
            assert np.array_equal(summary.stats[name], ref), name
        if n_runs == 1:
            assert all(summary.stats[name] == [0.0] * 4 for name in stats if name.endswith("_std"))

    def test_single_run_matches_direct_training(self, tmp_path):
        cfg = small_cfg()
        logs, summary = run_ensemble(cfg, 1, vary="both", out_dir=str(tmp_path))
        direct = train(cfg)  # run 0 with vary=both uses run_idx 0 streams
        assert summary.n_runs == 1
        assert summary.failures == []
        assert summary.final("fidelity_mean") == pytest.approx(direct.final_fidelity(), abs=1e-12)
        assert summary.final("fidelity_std") == 0.0

    def test_output_files(self, tmp_path):
        cfg = small_cfg(epochs=3)
        run_ensemble(cfg, 2, vary="both", out_dir=str(tmp_path))
        assert (tmp_path / "run_000.csv").exists()
        assert (tmp_path / "run_001.csv").exists()
        assert (tmp_path / "summary.csv").exists()
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["n_runs"] == 2
        ck = json.loads((tmp_path / "run_000_checkpoint.json").read_text())
        assert ck["kind"] == "uqnn"

    def test_vary_init_shares_target(self, tmp_path):
        cfg = small_cfg(epochs=2)
        # same target across runs: initial loss differs (init varies) but the
        # drawn target matches run 0's exactly
        rng0, _ = run_streams(cfg.seed, 0, "init")
        rng5, _ = run_streams(cfg.seed, 5, "init")
        _, rho0 = draw_target(cfg, rng0)
        _, rho5 = draw_target(cfg, rng5)
        assert np.array_equal(rho0.mat, rho5.mat)

    def test_parallel_jobs_bitwise_equal(self, tmp_path):
        cfg = small_cfg(epochs=3)
        logs1, s1 = run_ensemble(cfg, 2, vary="both", jobs=1, out_dir=str(tmp_path / "j1"))
        logs2, s2 = run_ensemble(cfg, 2, vary="both", jobs=2, out_dir=str(tmp_path / "j2"))
        assert s1.stats["fidelity_mean"] == pytest.approx(s2.stats["fidelity_mean"], abs=0)
        assert s1.stats["loss_mean"] == pytest.approx(s2.stats["loss_mean"], abs=0)
        assert [lg.checkpoint for lg in logs1] == [lg.checkpoint for lg in logs2]
        for i in range(2):
            name = f"run_{i:03d}_checkpoint.json"
            assert (tmp_path / "j1" / name).read_bytes() == (tmp_path / "j2" / name).read_bytes()

    def test_one_chunk_trains_in_process(self, tmp_path, monkeypatch):
        cfg = small_cfg(epochs=3)
        run_ensemble(cfg, 1, vary="both", jobs=1, out_dir=str(tmp_path / "j1"))

        def refused(*args, **kwargs):
            raise AssertionError("a single chunk must not start a pool or a worker")

        monkeypatch.setattr(training, "ProcessPoolExecutor", refused)
        monkeypatch.setattr(training, "_ensemble_worker", refused)
        run_ensemble(cfg, 1, vary="both", jobs=2, out_dir=str(tmp_path / "j2"))
        assert science_files(tmp_path / "j2", 0) == science_files(tmp_path / "j1", 0)
        for name in ("summary.json", "summary.csv"):
            assert (tmp_path / "j2" / name).read_bytes() == (tmp_path / "j1" / name).read_bytes()

    def test_summary_files_are_those_of_json_and_csv_writer(self, tmp_path):
        cfg = small_cfg(epochs=4, log_every=2)
        _, summary = run_ensemble(cfg, 3, vary="both", out_dir=str(tmp_path))
        assert (tmp_path / "summary.json").read_text() == json.dumps(dataclasses.asdict(summary), indent=1)
        # a failure record with quotes and a non-ASCII character; floats json and csv write specially
        summary.failures.append("run 9: epoch 3: singular model state (smallest eigenvalue 1.000e-13) \u00e9\"")
        summary.stats["odd"] = [-0.0, math.nan, math.inf]
        assert training.json_text(dataclasses.asdict(summary)) == json.dumps(dataclasses.asdict(summary), indent=1)
        summary.to_csv(str(tmp_path / "summary.csv"))
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            names = list(summary.stats)
            writer.writerow(["epoch"] + names)
            for i, ep in enumerate(summary.epoch):
                writer.writerow([ep] + [repr(float(summary.stats[n][i])) for n in names])
        assert (tmp_path / "summary.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_failure_abort_threshold(self):
        # forward direction with n_h=0 fails at epoch 0 in every run
        cfg = small_cfg(n_h=0, direction="forward", epochs=2)
        with pytest.raises(TrainingError, match="failed"):
            run_ensemble(cfg, 4, vary="both")

    def test_boltzmann_ensembles_at_tau_750(self):
        # the target's far eigenvalues underflow to exact zeros: forward
        # members train, reverse members (target inverted) fail with a typed error
        cfg = small_cfg(kind="qbm", direction="forward", tau=750.0, epochs=3)
        logs, summary = run_ensemble(cfg, 5, vary="both")
        assert summary.failures == [] and len(logs) == 5
        assert np.all(np.isfinite(summary.stats["loss_mean"]))
        with pytest.raises(TrainingError, match="singular target state"):
            run_ensemble(dataclasses.replace(cfg, direction="reverse"), 5, vary="both")

    def test_overflowing_penalized_loss_ends_in_the_budget_error(self):
        # angles near 1e300 overflow theta . theta to inf, and loss + 0 * inf is nan:
        # a typed member failure, not an untyped error after training
        cfg = TrainConfig(kind="uqnn", n_v=1, n_h=0, epochs=3, lr=1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match=r"runs failed .*: epoch 1: non-finite penalized_loss"):
                run_ensemble(cfg, 3)

    @pytest.mark.parametrize("fault", ["nan", "linalg"])
    def test_numeric_failure_counts_against_budget(self, monkeypatch, fault):
        # one member's gradient goes bad inside the batched evaluation; the
        # ensemble records it and finishes
        cfg = small_cfg(epochs=3)
        bad_rho = draw_target(cfg, run_streams(cfg.seed, 2, "both")[0])[1].mat
        exact = divergence.evaluate

        def faulty(p, rho, direction):
            ev = exact(p, rho, direction)
            bad = [i for i, mat in enumerate(rho.mat) if np.array_equal(mat, bad_rho)]
            if bad:
                if fault == "linalg":
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
                ev.grad[bad[0], 0] = math.nan
            return ev

        monkeypatch.setattr(divergence, "evaluate", faulty)
        logs, summary = run_ensemble(cfg, 5, vary="both")
        assert len(logs) == 4
        assert len(summary.failures) == 1
        assert summary.failures[0].startswith("run 2: epoch ")

    def test_summary_stats_shape(self):
        cfg = small_cfg(epochs=2)
        _, s = run_ensemble(cfg, 3, vary="both")
        assert isinstance(s, EnsembleSummary)
        for name in ("loss", "penalized_loss", "fidelity", "grad_inf_norm"):
            assert len(s.stats[f"{name}_mean"]) == len(s.epoch)
            assert len(s.stats[f"{name}_std"]) == len(s.epoch)
        assert s.epoch[0] == 0 and s.epoch[-1] == cfg.epochs


def science_files(out_dir, run_idx: int) -> tuple[str, bytes]:
    """A member's CSV without the wall_ms column, and its checkpoint bytes."""
    lines = (out_dir / f"run_{run_idx:03d}.csv").read_text().splitlines()
    csv_text = "\n".join(line.rsplit(",", 1)[0] for line in lines)
    return csv_text, (out_dir / f"run_{run_idx:03d}_checkpoint.json").read_bytes()


class TestLockstepBatches:
    """A member's numbers do not depend on the chunk it trains in."""

    @pytest.mark.parametrize("batch", [1, 2, 5])
    @pytest.mark.parametrize("direction", ["reverse", "forward"])
    @pytest.mark.parametrize("kind", ["uqnn", "qbm"])
    def test_members_equal_solo_runs(self, tmp_path, kind, direction, batch):
        # forward needs a full-rank circuit reduction, hence n_h = n_v
        cfg = small_cfg(kind=kind, n_v=2, n_h=2 if kind == "uqnn" else 1, direction=direction,
                        epochs=5, log_every=2, l2_penalty=0.5)
        run_ensemble(cfg, batch, vary="both", jobs=1, out_dir=str(tmp_path / "batch"))
        for i in range(batch):
            (solo,) = training._train_members(cfg, [i], "both")
            solo.write(str(tmp_path), i)
            assert science_files(tmp_path / "batch", i) == science_files(tmp_path, i)

    @pytest.mark.parametrize("fault", ["nan", "linalg"])
    def test_failed_member_leaves_the_others_unchanged(self, monkeypatch, tmp_path, fault):
        cfg = small_cfg(epochs=5)
        run_ensemble(cfg, 5, vary="both", out_dir=str(tmp_path / "clean"))
        bad_rho = draw_target(cfg, run_streams(cfg.seed, 2, "both")[0])[1].mat
        exact, calls = divergence.evaluate, []

        def faulty(p, rho, direction):
            # run 2 goes bad from the third batched evaluation (epoch 2) on
            calls.append(len(rho.mat))
            bad = [i for i, mat in enumerate(rho.mat) if np.array_equal(mat, bad_rho)]
            if fault == "linalg" and bad and len(calls) >= 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            ev = exact(p, rho, direction)
            if fault == "nan" and bad and len(calls) >= 3:
                ev.grad[bad[0], 0] = math.nan
            return ev

        monkeypatch.setattr(divergence, "evaluate", faulty)
        logs, summary = run_ensemble(cfg, 5, vary="both", out_dir=str(tmp_path / "faulty"))
        # a non-finite gradient fails the epoch that evaluates it
        message = "diverged gradient at index 0" if fault == "nan" else "Eigenvalues did not converge"
        assert summary.failures == [f"run 2: epoch 2: {message}"]
        assert len(logs) == 4
        assert not (tmp_path / "faulty" / "run_002.csv").exists()
        for i in (0, 1, 3, 4):
            assert science_files(tmp_path / "faulty", i) == science_files(tmp_path / "clean", i)

    def test_non_finite_gradient_in_the_last_epoch_counts_against_the_budget(self, monkeypatch, tmp_path):
        # no ADAM step follows the last evaluation, so the gradient is checked where it is evaluated
        cfg = small_cfg(epochs=2)
        run_ensemble(cfg, 5, vary="both", out_dir=str(tmp_path / "clean"))
        bad_rho = draw_target(cfg, run_streams(cfg.seed, 1, "both")[0])[1].mat
        exact, calls = divergence.evaluate, []

        def faulty(p, rho, direction):
            calls.append(len(rho.mat))
            ev = exact(p, rho, direction)
            bad = [i for i, mat in enumerate(rho.mat) if np.array_equal(mat, bad_rho)]
            if bad and len(calls) >= 3:  # run 1 from the third batched evaluation (epoch 2, the last) on
                ev.grad[bad[0], 4] = math.nan
            return ev

        monkeypatch.setattr(divergence, "evaluate", faulty)
        logs, summary = run_ensemble(cfg, 5, vary="both", out_dir=str(tmp_path / "faulty"))
        assert summary.failures == ["run 1: epoch 2: diverged gradient at index 4"]
        assert summary.n_runs == 5 and len(logs) == 4
        assert not (tmp_path / "faulty" / "run_001.csv").exists()
        for i in (0, 2, 3, 4):
            assert science_files(tmp_path / "faulty", i) == science_files(tmp_path / "clean", i)

    def test_non_finite_logged_loss_counts_against_the_budget(self, monkeypatch, tmp_path):
        # the logged row is checked where it is computed, as the gradient is
        cfg = small_cfg(epochs=2)
        run_ensemble(cfg, 5, vary="both", out_dir=str(tmp_path / "clean"))
        bad_rho = draw_target(cfg, run_streams(cfg.seed, 3, "both")[0])[1].mat
        exact, calls = divergence.evaluate, []

        def faulty(p, rho, direction):
            calls.append(len(rho.mat))
            ev = exact(p, rho, direction)
            bad = [i for i, mat in enumerate(rho.mat) if np.array_equal(mat, bad_rho)]
            if bad and len(calls) >= 2:  # run 3 from the second batched evaluation (epoch 1) on
                ev.loss.value[bad[0]] = math.nan
            return ev

        monkeypatch.setattr(divergence, "evaluate", faulty)
        logs, summary = run_ensemble(cfg, 5, vary="both", out_dir=str(tmp_path / "faulty"))
        assert summary.failures == ["run 3: epoch 1: non-finite loss"]
        assert summary.n_runs == 5 and len(logs) == 4
        assert not (tmp_path / "faulty" / "run_003.csv").exists()
        for i in (0, 1, 2, 4):
            assert science_files(tmp_path / "faulty", i) == science_files(tmp_path / "clean", i)

    def test_jobs_split_runs_into_chunks_without_changing_files(self, tmp_path):
        cfg = small_cfg(epochs=3)
        for jobs in (1, 2, 3):
            run_ensemble(cfg, 5, vary="both", jobs=jobs, out_dir=str(tmp_path / f"j{jobs}"))
        for jobs in (2, 3):
            for i in range(5):
                assert science_files(tmp_path / f"j{jobs}", i) == science_files(tmp_path / "j1", i)
            for name in ("summary.json", "summary.csv"):
                assert (tmp_path / f"j{jobs}" / name).read_bytes() == (tmp_path / "j1" / name).read_bytes()

    def test_wall_ms_shares_the_chunk_time(self):
        start = time.perf_counter()
        logs, _ = run_ensemble(small_cfg(epochs=20), 3, vary="both")
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        walls = np.array([lg.column("wall_ms") for lg in logs])
        # every live member of a chunk is charged the same share of each
        # epoch, so summed member time stays within the wall time
        assert np.all(walls == walls[0]) and np.all(walls > 0)
        assert walls.sum() <= elapsed_ms


class TestTrainingErrorContext:
    def test_epoch_zero_context_and_cause(self):
        cfg = small_cfg(n_h=0, direction="forward")
        with pytest.raises(TrainingError) as exc_info:
            train(cfg)
        assert str(exc_info.value).startswith("epoch 0:")
        assert isinstance(exc_info.value.__cause__, SingularStateError)

    def test_load_checkpoint_model_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            load_checkpoint_model({"kind": "tensor-network"})


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["uqnn", "qbm"]),
    direction=st.sampled_from(["reverse", "forward"]),
    n_v=st.integers(1, 2),
    n_h=st.integers(0, 1),
    tau=st.floats(1e-300, 1e300),
    lr=st.floats(0.0, 1e300),
    l2=st.sampled_from([0.0, 1e300]),
)
def test_every_valid_config_trains_or_fails_typed(kind, direction, n_v, n_h, tau, lr, l2):
    """Over TrainConfig's valid domain an ensemble finishes or ends in the budget's TrainingError."""
    cfg = TrainConfig(kind=kind, n_v=n_v, n_h=n_h, epochs=3, lr=lr, direction=direction, l2_penalty=l2, tau=tau)
    with np.errstate(all="ignore"):
        try:
            logs, summary = run_ensemble(cfg, 3)
        except TrainingError:
            return
    assert summary.n_runs == 3 and len(logs) + len(summary.failures) == 3
