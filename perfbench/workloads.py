"""The four benchmark workloads: inputs per round, the timed call, the checks.

A round is one closed-loop call into the program (two ensembles, one
width scan, or three shot estimates); the caller starts the next round only
when the previous one has returned. Round r of seed s draws every input
from SeedSequence([s, r]); the program receives only those inputs.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from renyiqnn import cli, divergence, models, plateau, swaptest, training
from renyiqnn.states import DensityMatrix

# Largest relative deviation accepted between the program and the dense
# reference (gradient vectors: against their largest entry, or 1). Circuit
# runs agree to 1e-11; Boltzmann runs against tau=10 targets, whose inverse
# has condition number near e^20, deviate by up to about 2e-9.
DENSE_TOL = 1e-6
# Logged fidelities and divergences may leave [0, 1] and [0, inf) by roundoff only.
RANGE_TOL = 1e-9
MC_Z_MAX = 4.0
# Each estimate fails |z| <= 4 with probability 6e-5 by chance alone, and a
# run makes about 60. Single estimates are therefore checked in the first
# three rounds (every angle with every shot count), and all estimates of the
# run together through their pooled z-score.
MC_CHECKED_ROUNDS = 3


@dataclass
class Round:
    """One timed call: work done, its wall time, and what the checks need."""

    wall_s: float
    ops: int
    attempted: int
    failed: int
    busy_s: float = 0.0
    jobs: int = 1
    payload: dict = field(default_factory=dict)


def round_rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, r]))


def _bundled(name: str, experiment: str) -> dict:
    return cli.load_experiment_config(cli.bundled_config_path(name), experiment)


def _pairs(terms) -> list:
    """(coeff, axes) of Pauli terms, the form the dense reference takes."""
    return [(t.coeff, t.axes) for t in terms]


# ------------------------------------------------------------------ training


class TrainWorkload:
    """Seeded ensembles of one bundled recipe, trained in both directions."""

    directions = ("reverse", "forward")

    def __init__(self, config: str, experiment: str, members: int, jobs: int, epochs: int | None):
        self.config, self.experiment = config, experiment
        self.members, self.jobs, self.epochs = members, jobs, epochs
        self.op_unit = "epochs"
        self.calibration = "gate-loop"

    def resolve(self) -> None:
        doc = _bundled(self.config, self.experiment)
        cfg = training.TrainConfig(**doc["train"])
        self.cfg = replace(cfg, epochs=self.epochs) if self.epochs else cfg
        self.vary = doc["vary"]

    def inputs(self, seed: int, r: int) -> list:
        cfg_seed = int(round_rng(seed, r).integers(2**31))
        return [replace(self.cfg, direction=d, seed=cfg_seed) for d in self.directions]

    def run(self, cfgs: list, out_root: str) -> Round:
        wall = busy = 0.0
        ops = attempted = failed = 0
        ensembles = []
        for cfg in cfgs:
            out_dir = os.path.join(out_root, cfg.direction)
            attempted += self.members
            t0 = time.perf_counter()
            try:
                logs, summary = training.run_ensemble(
                    cfg, self.members, vary=self.vary, jobs=self.jobs, out_dir=out_dir
                )
            except training.TrainingError as exc:
                wall += time.perf_counter() - t0
                failed += self.members
                ensembles.append((cfg, out_dir, [], [str(exc)]))
                continue
            wall += time.perf_counter() - t0
            failed += len(summary.failures)
            ops += len(logs) * cfg.epochs
            busy += sum(float(lg.column("wall_ms").sum()) for lg in logs) / 1000.0
            ensembles.append((cfg, out_dir, logs, summary.failures))
        return Round(wall, ops, attempted, failed, busy, self.jobs, {"ensembles": ensembles})

    def check(self, rnd: Round, seed: int, r: int) -> list[str]:
        errors = []
        pick = round_rng(seed, r).integers(self.members, size=len(self.directions))
        for (cfg, out_dir, logs, failures), member in zip(rnd.payload["ensembles"], pick):
            where = f"round {r} {cfg.direction}"
            errors += [f"{where}: {f}" for f in failures]
            for lg in logs:
                errors += _check_ranges(lg, where)
            if len(logs) == self.members:
                errors += self._check_member(cfg, out_dir, int(member), where)
        return errors

    def _check_member(self, cfg, out_dir: str, idx: int, where: str) -> list[str]:
        """Final checkpoint and logged row of one member against dense recomputation."""
        import oracle  # scipy loads after the timed rounds, outside peak_rss_mb

        where = f"{where} member {idx}"
        with open(os.path.join(out_dir, f"run_{idx:03d}_checkpoint.json")) as fh:
            ckpt = json.load(fh)
        with open(os.path.join(out_dir, f"run_{idx:03d}.csv")) as fh:
            row = {k: float(v) for k, v in list(csv.DictReader(fh))[-1].items()}
        if int(row["epoch"]) != cfg.epochs or ckpt["epoch"] != cfg.epochs:
            return [f"{where}: last logged epoch {row['epoch']}, checkpoint {ckpt['epoch']}"]

        target_rng, _ = training.run_streams(cfg.seed, idx, self.vary)
        h, _ = training.draw_target(cfg, target_rng)
        rho = oracle.thermal(oracle.pauli_sum(_pairs(h.terms), cfg.n_v))
        thetas = np.array(ckpt["thetas"])
        if cfg.kind == "uqnn":
            sv, dsv = oracle.circuit([(g["coeff"], g["axes"]) for g in ckpt["generators"]], thetas, cfg.n_v, cfg.n_h)
        else:
            sv, dsv = oracle.boltzmann([g["axes"] for g in ckpt["generators"]], thetas, cfg.n_v, cfg.n_h)
        raw = oracle.gradient(sv, dsv, rho, cfg.direction)
        full = raw + 2.0 * cfg.l2_penalty * thetas
        loss = oracle.loss(sv, rho, cfg.direction)
        expected = {
            "loss": loss,
            "penalized_loss": loss + cfg.l2_penalty * float(thetas @ thetas),
            "fidelity": oracle.fidelity(rho, sv),
            "grad_inf_norm": float(np.max(np.abs(full))),
        }
        errors = [
            f"{where}: logged {k} {row[k]!r}, dense {v!r}"
            for k, v in expected.items()
            if not oracle.close(row[k], v, DENSE_TOL)
        ]
        model = training.load_checkpoint_model(ckpt)
        grad_fn = {
            ("uqnn", "reverse"): divergence.uqnn_grad_reverse,
            ("uqnn", "forward"): divergence.uqnn_grad_forward,
            ("qbm", "reverse"): divergence.qbm_grad_reverse,
            ("qbm", "forward"): divergence.qbm_grad_forward,
        }[cfg.kind, cfg.direction]
        err = oracle.vector_error(grad_fn(model, DensityMatrix(cfg.n_v, rho)), raw)
        if not err <= DENSE_TOL:
            errors.append(f"{where}: {grad_fn.__name__} differs from dense by {err:.3e} (relative)")
        return errors

    def check_run(self, rounds: list[Round]) -> list[str]:
        """Run 0 at `jobs` workers equals a 1-run, 1-worker ensemble bit for bit."""
        cfg, _, logs, _ = rounds[0].payload["ensembles"][0]
        if self.jobs == 1 or not logs:
            return []
        solo, _ = training.run_ensemble(cfg, 1, vary=self.vary, jobs=1)

        def science(lg):
            return [(r.epoch, r.loss, r.penalized_loss, r.fidelity, r.grad_inf_norm) for r in lg.rows]

        if science(solo[0]) != science(logs[0]) or solo[0].checkpoint != logs[0].checkpoint:
            return [f"run 0 at jobs={self.jobs} differs from a 1-worker run of the same config"]
        return []


def _check_ranges(lg, where: str) -> list[str]:
    errors = []
    for row in lg.rows:
        if not -RANGE_TOL <= row.fidelity <= 1.0 + RANGE_TOL:
            errors.append(f"{where} epoch {row.epoch}: fidelity {row.fidelity} outside [0, 1]")
        if row.loss < -RANGE_TOL or row.penalized_loss < row.loss - RANGE_TOL:
            errors.append(f"{where} epoch {row.epoch}: divergence {row.loss} / {row.penalized_loss} negative")
    return errors


# -------------------------------------------------------------- plateau-scan


class PlateauWorkload:
    """The plateau_3v width scan with a small ensemble per width."""

    ensemble = 4

    def __init__(self) -> None:
        self.op_unit = "inits"
        self.calibration = "gate-loop"
        self.calls: list[tuple[str, int, np.ndarray]] = []
        self.keep_index = -1
        self.kept = None

    def _observer(self, kind: str, fn_name: str):
        def observe(p, target):
            g = getattr(divergence, fn_name)(p, target)
            if kind == "reverse" and len(self.calls) // 2 == self.keep_index:
                self.kept = (p.n_h, _pairs(p.generators), p.thetas.copy())
            self.calls.append((kind, p.n_h, g.copy()))
            return g

        return observe

    def resolve(self) -> None:
        self.doc = _bundled("plateau_3v.json", "plateau-scan")
        # Record every gradient the scan computes. The lookup through
        # `divergence` runs at call time, so wrappers installed there later
        # still see these calls.
        for kind, fn_name in (("reverse", "uqnn_grad_reverse"), ("linear", "uqnn_grad_linear")):
            setattr(plateau, fn_name, self._observer(kind, fn_name))

    def inputs(self, seed: int, r: int) -> dict:
        rng = round_rng(seed, r)
        target = cli._target_hamiltonian(self.doc["n_v"], self.doc.get("target", {}), rng)
        n_inits = self.ensemble * len(self.doc["n_h_list"])
        return {"target": target, "scan_seed": int(rng.integers(2**31)), "keep": int(rng.integers(n_inits))}

    def run(self, inp: dict, out_root: str) -> Round:
        doc = self.doc
        self.calls, self.keep_index, self.kept = [], inp["keep"], None
        n_inits = self.ensemble * len(doc["n_h_list"])
        t0 = time.perf_counter()
        try:
            report = plateau.init_gradient_scan(
                doc["n_v"], inp["target"], doc["n_h_list"], self.ensemble,
                np.random.default_rng(inp["scan_seed"]),
                layout=doc.get("layout", "exhaustive"), repetitions=doc.get("repetitions", 1),
            )
        except (divergence.SingularStateError, ArithmeticError, ValueError) as exc:
            return Round(time.perf_counter() - t0, 0, n_inits, n_inits, payload={"error": str(exc)})
        wall = time.perf_counter() - t0
        payload = {"report": report, "calls": self.calls, "kept": self.kept, "keep": inp["keep"], "target": inp["target"]}
        return Round(wall, n_inits, n_inits, 0, payload=payload)

    def check(self, rnd: Round, seed: int, r: int) -> list[str]:
        import oracle

        if "error" in rnd.payload:
            return [f"round {r}: {rnd.payload['error']}"]
        report, n_v = rnd.payload["report"], self.doc["n_v"]
        errors = []
        for n_h in self.doc["n_h_list"]:
            for kind in ("reverse", "linear"):
                where = f"round {r} n_h={n_h} {kind}"
                gs = [g for k, nh, g in rnd.payload["calls"] if k == kind and nh == n_h]
                if len(gs) != self.ensemble:
                    errors.append(f"{where}: observed {len(gs)} gradients, expected {self.ensemble}")
                    continue
                expected = _scan_stats(gs)
                got = {name: report.stat(n_v, n_h, kind, name) for name in expected}
                errors += [
                    f"{where}: {name} reported {got[name]!r}, recomputed {v!r}"
                    for name, v in expected.items()
                    if not oracle.close(got[name], v, 1e-12)
                ]
                if not got["inf_norm_q10"] <= got["inf_norm_median"] <= got["inf_norm_q90"] <= got["inf_norm_max"]:
                    errors.append(f"{where}: quantiles out of order {got}")
        # one initialization per round against the dense gradient formulas
        n_h, gens, thetas = rnd.payload["kept"]
        keep = rnd.payload["keep"]
        rev, lin = (g for _, _, g in rnd.payload["calls"][2 * keep : 2 * keep + 2])
        rho = oracle.thermal(oracle.pauli_sum(_pairs(rnd.payload["target"].terms), n_v))
        sv, dsv = oracle.circuit(gens, thetas, n_v, n_h)
        dense_rev = oracle.gradient(sv, dsv, rho, "reverse")
        dense_lin = np.array([np.trace(rho @ d).real for d in dsv])
        for name, got, want in (("reverse", rev, dense_rev), ("linear", lin, dense_lin)):
            err = oracle.vector_error(got, want)
            if not err <= DENSE_TOL:
                errors.append(f"round {r}: sampled {name} gradient differs from dense by {err:.3e} (relative)")
        return errors


def _quantile(sorted_vals: list[float], q: float) -> float:
    """Linear interpolation between order statistics at position (n - 1) q."""
    pos = (len(sorted_vals) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def _scan_stats(gs: list[np.ndarray]) -> dict[str, float]:
    flat = [float(x) for g in gs for x in g]
    norms = sorted(max(abs(float(x)) for x in g) for g in gs)
    return {
        "grad_abs_mean": math.fsum(abs(x) for x in flat) / len(flat),
        "grad_sq_mean": math.fsum(x * x for x in flat) / len(flat),
        "inf_norm_mean": math.fsum(norms) / len(norms),
        "inf_norm_q10": _quantile(norms, 0.10),
        "inf_norm_median": _quantile(norms, 0.50),
        "inf_norm_q90": _quantile(norms, 0.90),
        "inf_norm_max": norms[-1],
    }


# --------------------------------------------------------------- mc-estimate


class McWorkload:
    """Shot-based reverse-gradient estimates after the mc_2q recipe."""

    shots = (10**4, 10**5, 10**6)

    def __init__(self) -> None:
        self.op_unit = "shots"
        self.calibration = "stream"

    def resolve(self) -> None:
        self.doc = _bundled("mc_2q.json", "mc-estimate")

    def inputs(self, seed: int, r: int) -> dict:
        doc = self.doc
        rng = round_rng(seed, r)
        h = cli._target_hamiltonian(doc["n_v"], doc.get("target", {}), rng)
        target = cli._scale_alpha_norm(h, doc["target_alpha_norm"])
        p = models.build_uqnn(doc["n_v"], doc.get("n_h", 0), rng)
        # First, middle and last angle, rotated so each meets every shot
        # count; fixed angles keep the traced counts independent of the seed.
        n = len(p.thetas)
        ks = [1, (n + 1) // 2, n]
        ks = ks[r % 3:] + ks[:r % 3]
        return {"target": target, "model": p, "ks": ks, "shot_seed": int(rng.integers(2**31))}

    def run(self, inp: dict, out_root: str) -> Round:
        shot_rng = np.random.default_rng(inp["shot_seed"])
        estimates = []
        failed = 0
        wall = 0.0
        for k, shots in zip(inp["ks"], self.shots):
            t0 = time.perf_counter()
            try:
                est = swaptest.mc_reverse_gradient_thermal(
                    inp["model"], inp["target"], k, shots, shot_rng, q_max=self.doc.get("q_max", 30)
                )
            except (ArithmeticError, ValueError) as exc:
                wall += time.perf_counter() - t0
                failed += 1
                estimates.append((k, shots, str(exc)))
                continue
            wall += time.perf_counter() - t0
            estimates.append((k, shots, est))
        ops = sum(s for _, s, e in estimates if not isinstance(e, str))
        return Round(wall, ops, len(self.shots), failed, payload={"input": inp, "estimates": estimates})

    def check(self, rnd: Round, seed: int, r: int) -> list[str]:
        import oracle

        inp = rnd.payload["input"]
        p = inp["model"]
        rho = oracle.thermal(oracle.pauli_sum(_pairs(inp["target"].terms), p.n_v))
        sv, dsv = oracle.circuit(_pairs(p.generators), p.thetas, p.n_v, p.n_h)
        exact = oracle.gradient(sv, dsv, rho, "reverse")
        errors = []
        rnd.payload["z"] = []
        for k, shots, est in rnd.payload["estimates"]:
            where = f"round {r} k={k} shots={shots}"
            if isinstance(est, str):
                errors.append(f"{where}: {est}")
                continue
            z = (est.mean - exact[k - 1]) / est.std_error if est.std_error > 0 else math.inf
            rnd.payload["z"].append(z)
            if r < MC_CHECKED_ROUNDS and not abs(z) <= MC_Z_MAX:
                errors.append(f"{where}: estimate {est.mean:.6f} +- {est.std_error:.6f}, exact {exact[k - 1]:.6f}, z {z:+.2f}")
        return errors

    def check_run(self, rounds: list[Round]) -> list[str]:
        """No bias over the whole run: the pooled z-score of all estimates."""
        zs = [z for rnd in rounds for z in rnd.payload.get("z", [])]
        pooled = sum(zs) / math.sqrt(len(zs)) if zs else 0.0
        if not abs(pooled) <= MC_Z_MAX:
            return [f"pooled z of {len(zs)} estimates is {pooled:+.2f}"]
        return []


def make_workloads() -> dict:
    """Workload name -> workload; member counts and worker counts are fixed here."""
    return {
        "circuit-train": TrainWorkload("fig2_3v3h.json", "thermal-learn", members=2, jobs=1, epochs=None),
        "qbm-train": TrainWorkload("fig3_tau10.json", "ham-learn", members=2, jobs=2, epochs=200),
        "plateau-scan": PlateauWorkload(),
        "mc-estimate": McWorkload(),
    }
