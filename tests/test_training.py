import dataclasses
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from scipy.stats import spearmanr

from renyiqnn import cli, divergence, models, training
from renyiqnn.divergence import SingularStateError
from renyiqnn.hamiltonians import pauli_tables
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
    train,
)


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

    def test_shape_mismatch_rejected(self):
        st = AdamState.init(2, lr=0.1)
        with pytest.raises(ValueError):
            adam_step(st, np.zeros(2), np.zeros(3))

    def test_moments_update(self):
        st = AdamState.init(1, lr=0.1)
        st2, _ = adam_step(st, np.zeros(1), np.array([1.0]))
        assert st2.m[0] == pytest.approx(0.1)  # (1 - beta1) * g
        assert st2.v[0] == pytest.approx(0.001)  # (1 - beta2) * g^2


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
        with pytest.raises(ValueError):
            small_cfg(target_reg=1.0)

    def test_hash_stable_and_sensitive(self):
        a, b = small_cfg(), small_cfg()
        assert a.config_hash() == b.config_hash()
        assert small_cfg(lr=0.02).config_hash() != a.config_hash()
        assert len(a.config_hash()) == 16

    def test_default_single_std_follows_locality(self):
        assert small_cfg().resolved_std_single() == pytest.approx(math.sqrt(0.1))
        assert small_cfg(target_locality=3).resolved_std_single() == pytest.approx(1.0)
        assert small_cfg(target_std_single=0.7).resolved_std_single() == 0.7


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

    def test_target_reg_floors_eigenvalues(self):
        cfg = small_cfg(n_v=2, tau=10.0, target_reg=0.01)
        rng, _ = run_streams(cfg.seed, 0, "both")
        _, rho = draw_target(cfg, rng)
        assert np.linalg.eigvalsh(rho.mat).min() >= 0.01 / 4 * (1 - 1e-9)


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
        f = fidelity(uqnn_visible_state(model), rho)
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

    def test_unnormalized_large_init_trains(self):
        # skipping the init normalization leaves a spectral spread near 22
        cfg = small_cfg(kind="qbm", epochs=2, normalize_init=False, seed=3)
        log = train(cfg)
        assert np.isfinite(log.column("grad_inf_norm")).all()
        assert len(log.rows) == cfg.epochs + 1


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
        calls, eigh = [], np.linalg.eigh

        def counting(m):
            calls.append(m.shape)
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        cfg = small_cfg(n_v=2, n_h=2, epochs=7, log_every=3, direction=direction)
        log = train(cfg)
        rows, evaluations = len(log.rows), cfg.epochs + 1
        # one eigh for the target's thermal state; a logged fidelity adds the
        # inner square root, and the model state's own factorization unless
        # the forward loss already inverted it in that evaluation
        if direction == "reverse":
            assert len(calls) == 1 + 1 + 2 * rows
        else:
            assert len(calls) == 1 + evaluations + rows

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
        assert log.rows[-1].fidelity == pytest.approx(fidelity(sigma_v, rho), abs=0)


class TestMetricsLog:
    def make_log(self):
        rows = [
            MetricsRow(0, 1.0, 1.0, 0.5, 0.3, 1.0),
            MetricsRow(1, 0.9, 0.9, 0.6, 0.2, 1.0),
        ]
        return MetricsLog(config_hash="ab" * 8, seed=0, rows=rows)

    def test_csv_header(self, tmp_path):
        log = self.make_log()
        path = tmp_path / "m.csv"
        log.to_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3

    def test_validate_rejects_unsorted_epochs(self):
        log = self.make_log()
        log.rows.append(MetricsRow(1, 0.8, 0.8, 0.7, 0.1, 1.0))
        with pytest.raises(ValueError, match="increasing"):
            log.validate()

    def test_validate_rejects_non_finite(self):
        log = self.make_log()
        log.rows[1] = MetricsRow(1, math.inf, 0.9, 0.6, 0.2, 1.0)
        with pytest.raises(ValueError):
            log.validate()

    def test_column_and_endpoints(self):
        log = self.make_log()
        assert np.array_equal(log.column("loss"), [1.0, 0.9])
        assert log.initial_fidelity() == 0.5
        assert log.final_fidelity() == 0.6
        with pytest.raises(AttributeError):
            log.column("walltime")

    def test_json_dict_roundtrips_through_json(self):
        doc = self.make_log().to_json_dict()
        assert json.loads(json.dumps(doc))["rows"][0]["loss"] == 1.0

    @pytest.mark.parametrize("kind", ["uqnn", "qbm"])
    def test_checkpoint_is_the_written_json(self, monkeypatch, tmp_path, kind):
        build, built = training._build_model, []

        def recording(cfg, init_rng):
            built.append(build(cfg, init_rng))
            return built[-1]

        monkeypatch.setattr(training, "_build_model", recording)
        cfg = small_cfg(kind=kind, epochs=3)
        log = train(cfg, out_dir=str(tmp_path))
        expected = built[0].to_checkpoint(rng_seed=cfg.seed, epoch=cfg.epochs)
        assert log.checkpoint == expected
        assert log.to_json_dict()["checkpoint"] == expected
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


class TestRunEnsemble:
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

    def test_failure_abort_threshold(self):
        # forward direction with n_h=0 fails at epoch 0 in every run
        cfg = small_cfg(n_h=0, direction="forward", epochs=2)
        with pytest.raises(TrainingError, match="failed"):
            run_ensemble(cfg, 4, vary="both")

    @pytest.mark.parametrize("fault", ["nan", "linalg"])
    def test_numeric_failure_counts_against_budget(self, monkeypatch, fault):
        # one member's gradient goes bad; the ensemble records it and finishes
        cfg = small_cfg(epochs=3)
        bad_rho = draw_target(cfg, run_streams(cfg.seed, 2, "both")[0])[1].mat
        exact = divergence.evaluate

        def faulty(p, rho, direction):
            ev = exact(p, rho, direction)
            if np.array_equal(rho.mat, bad_rho):
                if fault == "linalg":
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
                ev.grad[0] = math.nan
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
