"""Training loops, ADAM optimizer, and seeded ensemble drivers.

One run learns one target: draw a random local Hamiltonian, normalize it,
form its thermal state, then descend the chosen divergence direction with
per-epoch full-batch gradients (the dataset is a single density matrix, so
an epoch is exactly one ADAM update). Ensembles vary the target draw, the
initialization draw, or both, over independent child RNG streams derived
from the base seed, and reduce the per-epoch metrics to mean/std curves.

One trainer runs every member: the members of a chunk train in lockstep,
with their angles, targets and optimizer moments stacked on a leading
member axis, so an epoch costs the same numpy calls for the whole chunk
(one evaluation, one fidelity, one ADAM step). Every stacked step works
member by member, so a member's numbers are bit-identical whatever chunk
it trains in; `train` is a chunk of one. A member that fails an epoch is
dropped from its chunk with the error; the others carry on unchanged.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import zlib
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from . import divergence, qmath
from .hamiltonians import LCUHamiltonian, normalize, random_three_local, random_two_local
from .models import QBMParams, UQNNParams, build_qbm, build_uqnn, checkpoint_text, json_text, load_checkpoint_model
from .states import DensityMatrix, fidelity, thermal_state

BETA1 = 0.9  # ADAM's constants, those of Kingma & Ba (arXiv:1412.6980)
BETA2 = 0.999
EPS_ADAM = 1e-8


class TrainingError(RuntimeError):
    """A training run failed; the message carries the failing epoch."""


@dataclass
class AdamState:
    """First/second moment accumulators plus the step counter."""

    step: int
    m: np.ndarray
    v: np.ndarray
    lr: float

    def __post_init__(self) -> None:
        self.m = np.asarray(self.m, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.m.shape != self.v.shape:
            raise ValueError("moment vectors must have equal shape")
        if self.step < 0:
            raise ValueError("step must be >= 0")
        if self.lr < 0:
            raise ValueError("lr must be >= 0")

    @classmethod
    def init(cls, n_params: int | tuple[int, int], lr: float) -> "AdamState":
        return cls(0, np.zeros(n_params), np.zeros(n_params), lr)


def _check_finite(grads: np.ndarray) -> None:
    """Raise FloatingPointError naming the first non-finite entry's index within its member's vector."""
    finite = np.isfinite(grads)
    if not finite.all():
        raise FloatingPointError(f"diverged gradient at index {int(np.nonzero(~finite)[-1][0])}")


def adam_step(
    state: AdamState, params: np.ndarray, grads: np.ndarray
) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected ADAM update; returns the new state and parameters.

    Parameters of shape (R, N) update R members at the same step count; a
    gradient that is non-finite, or whose square overflows the second
    moment, raises FloatingPointError naming its index within the member's
    vector.
    """
    params = np.asarray(params, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if params.shape != state.m.shape or grads.shape != state.m.shape:
        raise ValueError(
            f"parameter/gradient shape {params.shape}/{grads.shape} "
            f"does not match optimizer state {state.m.shape}"
        )
    step = state.step + 1
    m = BETA1 * state.m + (1.0 - BETA1) * grads
    with np.errstate(over="ignore"):  # an overflowing square is caught by the check below
        v = BETA2 * state.v + (1.0 - BETA2) * grads**2
    # non-finite exactly where a gradient is (NaN, inf) or its square overflows, which would freeze that angle
    _check_finite(v)
    m_hat = m / (1.0 - BETA1**step)
    v_hat = v / (1.0 - BETA2**step)
    new_params = params - state.lr * m_hat / (np.sqrt(v_hat) + EPS_ADAM)
    return AdamState(step, m, v, state.lr), new_params


# TrainConfig checks each field against its annotation
_FIELD_CHECKS = {
    "int": (qmath.is_integer, "an integer"),
    "float": (qmath.is_number, "a number"),
    "str": (lambda x: isinstance(x, str), "a string"),
}


@dataclass
class TrainConfig:
    """Everything one seeded run needs: model, target recipe, optimizer knobs.

    The target is drawn from the run's target stream: a random two- or
    three-local Hamiltonian of locality target_locality (see
    target_hamiltonian), normalized to operator norm tau, then
    exponentiated to its thermal state. uqnn models use the exhaustive
    two-local layout, one repetition; qbm weights start normalized (see
    build_uqnn and build_qbm).

    lr = 0 is allowed and freezes the parameters (useful as a no-op probe).
    """

    kind: str
    n_v: int
    n_h: int
    epochs: int
    lr: float = 1e-3
    direction: str = "reverse"
    l2_penalty: float = 0.0
    seed: int = 0
    log_every: int = 1
    target_locality: int = 2
    tau: float = 1.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            ok, what = _FIELD_CHECKS[f.type]
            if not ok(value):
                raise ValueError(f"{f.name} must be {what}, got {value!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.kind not in ("uqnn", "qbm"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.direction not in ("reverse", "forward"):
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.n_v < 1 or self.n_h < 0:
            raise ValueError("need n_v >= 1 and n_h >= 0")
        qmath._check_qubits(self.n_v + self.n_h)
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        if self.l2_penalty < 0:
            raise ValueError("l2_penalty must be >= 0")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")
        if self.target_locality not in (2, 3):
            raise ValueError("target_locality must be 2 or 3")
        if self.target_locality == 3 and self.n_v < 3:
            raise ValueError(f"target_locality 3 needs n_v >= 3, got n_v={self.n_v}")
        if self.tau <= 0:
            raise ValueError("tau must be positive")

    def config_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


class MetricsRow(NamedTuple):
    """One logged epoch: a read-only view of a MetricsLog row."""

    epoch: int
    loss: float
    penalized_loss: float
    fidelity: float
    grad_inf_norm: float
    conditioning: float
    wall_ms: float


CSV_COLUMNS = list(MetricsRow._fields)
_FIDELITY = CSV_COLUMNS.index("fidelity")


def _write_csv(path: str, rows: Iterable[list[str]]) -> None:
    """Rows of text fields, byte for byte as csv.writer writes them, in one write.

    The fields written here (column names, ints, float reprs) hold no
    delimiter, quote or line break, so csv.writer would quote none of them.
    """
    with open(path, "w", newline="") as fh:
        fh.write("".join(",".join(row) + "\r\n" for row in rows))


class MetricsLog:
    """Per-epoch training curve plus the run's final checkpoint.

    Row 0 is the state before any update; row e is the state after e ADAM
    updates, with loss, fidelity, and gradient all evaluated at that row's
    parameters. grad_inf_norm is the infinity norm of the full training
    gradient, penalty term included. conditioning is the smallest
    eigenvalue of the inverted state, read from its factor: the target's in
    reverse runs, the model state's in forward runs. wall_ms is the wall
    time since the previous row, divided by the number of members then
    training in the run's chunk, so summed member time never exceeds the
    wall time.

    Many logs are held at once (ensembles, or pickled back from workers),
    so both parts are kept compact: the rows, MetricsRows or plain tuples
    of CSV_COLUMNS values, become one float64 array with a row per logged
    epoch, and the final checkpoint is zlib-compressed once. `rows` builds
    fresh MetricsRow views of the array (the epoch as an int, every float
    exactly as stored); `checkpoint_json` gives back the exact JSON text
    written to the checkpoint file, and `checkpoint` decodes it.
    """

    def __init__(self, rows: Iterable[tuple] = (), checkpoint_json: str | None = None):
        self._data = np.array(list(rows), dtype=float).reshape(-1, len(CSV_COLUMNS))
        self._checkpoint = None if checkpoint_json is None else zlib.compress(checkpoint_json.encode())

    @property
    def rows(self) -> list[MetricsRow]:
        return [MetricsRow(int(epoch), *values) for epoch, *values in self._data.tolist()]

    @property
    def checkpoint_json(self) -> str | None:
        return None if self._checkpoint is None else zlib.decompress(self._checkpoint).decode()

    @property
    def checkpoint(self) -> dict | None:
        text = self.checkpoint_json
        return None if text is None else json.loads(text)

    def column(self, name: str) -> np.ndarray:
        if name not in CSV_COLUMNS:
            raise AttributeError(f"MetricsRow has no column {name!r}")
        return self._data[:, CSV_COLUMNS.index(name)].copy()

    def initial_fidelity(self) -> float:
        return float(self._data[0, _FIDELITY])

    def final_fidelity(self) -> float:
        return float(self._data[-1, _FIDELITY])

    def to_csv(self, path: str) -> None:
        rows = ([str(int(epoch)), *map(repr, values)] for epoch, *values in self._data.tolist())
        _write_csv(path, [CSV_COLUMNS, *rows])

    def write(self, out_dir: str, run_idx: int) -> None:
        """run_NNN.csv and run_NNN_checkpoint.json in the existing directory out_dir."""
        self.to_csv(os.path.join(out_dir, f"run_{run_idx:03d}.csv"))
        with open(os.path.join(out_dir, f"run_{run_idx:03d}_checkpoint.json"), "w") as fh:
            fh.write(self.checkpoint_json)


def run_streams(
    base_seed: int, run_idx: int, vary: str
) -> tuple[np.random.Generator, np.random.Generator]:
    """Independent (target, init) generators for one ensemble member.

    Streams are children of the base seed keyed by (run index, role), role 0
    for the target draw and 1 for the initialization draw; a stream held
    fixed by `vary` uses run index 0. The hidden-unit count is deliberately
    not part of the derivation, so ensembles differing only in n_h see
    identical targets.
    """
    if vary not in ("target", "init", "both"):
        raise ValueError(f"unknown vary mode {vary!r}")
    t_idx = run_idx if vary in ("target", "both") else 0
    i_idx = run_idx if vary in ("init", "both") else 0
    target_rng = np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(t_idx, 0)))
    init_rng = np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(i_idx, 1)))
    return target_rng, init_rng


def default_std_single(locality: int) -> float:
    """Singles std of the target recipe of this locality."""
    return math.sqrt(0.1) if locality == 2 else 1.0


def target_hamiltonian(n: int, rng: np.random.Generator, locality: int, tau: float) -> LCUHamiltonian:
    """Random two- or three-local target Hamiltonian, normalized to operator norm tau.

    Locality 2 draws singles with std sqrt(0.1) and pairs with std 1;
    locality 3 draws singles, pairs and triples with std 1.
    """
    if locality == 2:
        h = random_two_local(n, default_std_single(2), 1.0, rng)
    else:
        h = random_three_local(n, default_std_single(3), rng)
    return normalize(h, tau)


def draw_target(cfg: TrainConfig, rng: np.random.Generator) -> tuple[LCUHamiltonian, DensityMatrix]:
    """Random normalized target Hamiltonian of the config's recipe and its thermal state."""
    h = target_hamiltonian(cfg.n_v, rng, cfg.target_locality, cfg.tau)
    return h, thermal_state(h)


def _build_model(cfg: TrainConfig, init_rng: np.random.Generator):
    if cfg.kind == "uqnn":
        return build_uqnn(cfg.n_v, cfg.n_h, init_rng)
    return build_qbm(cfg.n_v, cfg.n_h, init_rng)


# The numeric failures that end one member's run; they count against the
# ensemble's failure budget instead of aborting it.
_NUMERIC_ERRORS = (divergence.SingularStateError, ArithmeticError, np.linalg.LinAlgError)


@dataclass
class _Members:
    """The live members of a lockstep chunk: run indices, their stacked angles, targets, optimizer state and gradients.

    `model` is the chunk's one model object; each epoch points its thetas
    at that epoch's angles before evaluating.
    """

    runs: list[int]
    model: UQNNParams | QBMParams
    thetas: np.ndarray
    target: DensityMatrix
    opt: AdamState
    grad: np.ndarray | None = None

    def take(self, keep: list[int]) -> "_Members":
        return _Members(
            [self.runs[i] for i in keep],
            replace(self.model, thetas=self.thetas[keep]),
            self.thetas[keep],
            self.target.take(keep),
            replace(self.opt, m=self.opt.m[keep], v=self.opt.v[keep]),
            None if self.grad is None else self.grad[keep],
        )


def _advance(cfg: TrainConfig, members: _Members, epoch: int, log: bool) -> tuple[_Members, np.ndarray | None]:
    """One epoch of every member: the ADAM update (past epoch 0), one evaluation, and the logged values.

    The logged values are one row of (loss, penalized_loss, fidelity,
    grad_inf_norm, conditioning) per member. Raises if any member fails,
    a non-finite gradient or logged value included, leaving the angles,
    moments and gradients of `members` as they were for a replay.
    """
    opt, th, lam = members.opt, members.thetas, cfg.l2_penalty
    if epoch > 0:
        opt, th = adam_step(opt, th, members.grad)
    members.model.thetas = th
    # the state, loss and gradient logged at row e come from one state
    # build, and that gradient also drives update e+1
    ev = divergence.evaluate(members.model, members.target, cfg.direction)
    grad = ev.grad + 2.0 * lam * th
    _check_finite(grad)  # here, not at the next update: the last epoch has none
    values = None
    if log:
        penalized = ev.loss.value + lam * (th[:, None, :] @ th[:, :, None])[:, 0, 0]
        fid = fidelity(members.target, ev.sigma_v)  # the targets' root factors are built once per run
        grad_inf = np.max(np.abs(grad), axis=1)
        values = np.stack([ev.loss.value, penalized, fid, grad_inf, ev.loss.conditioning], axis=1)
        finite = np.isfinite(values)
        if not finite.all():  # here, before the row exists, so the epoch is replayed per member
            raise FloatingPointError(f"non-finite {CSV_COLUMNS[1 + int(np.argmin(finite.all(axis=0)))]}")
    members.thetas, members.opt, members.grad = th, opt, grad
    return members, values


def _train_members(cfg: TrainConfig, runs: list[int], vary: str) -> list[MetricsLog | TrainingError]:
    """Train the ensemble members `runs` in lockstep; each member's log, or the TrainingError that ended it.

    Singular states, overflow, non-finite gradients (FloatingPointError)
    and failed eigensolvers (LinAlgError) end a member at the epoch they
    hit it: the epoch is replayed member by member to find who failed, and
    the rest go on as one batch.
    """
    built, targets = {}, []
    for run_idx in runs:
        target_rng, init_rng = run_streams(cfg.seed, run_idx, vary)
        targets.append(draw_target(cfg, target_rng)[1])
        built[run_idx] = _build_model(cfg, init_rng)
    thetas = np.stack([m.thetas for m in built.values()])
    members = _Members(
        list(runs), replace(built[runs[0]], thetas=thetas), thetas,
        DensityMatrix.stack(targets), AdamState.init(thetas.shape, cfg.lr),
    )
    rows: dict[int, list[tuple]] = {run_idx: [] for run_idx in runs}  # CSV_COLUMNS values per logged epoch
    failed: dict[int, TrainingError] = {}

    def step(members: _Members, epoch: int, log: bool) -> tuple[_Members | None, np.ndarray | None]:
        try:
            return _advance(cfg, members, epoch, log)
        except _NUMERIC_ERRORS as exc:
            if len(members.runs) == 1:
                error = TrainingError(f"epoch {epoch}: {exc}")
                error.__cause__ = exc
                failed[members.runs[0]] = error
                return None, None
            # replay the epoch one member at a time; the members that pass go on as one batch
            alive = [i for i in range(len(members.runs)) if step(members.take([i]), epoch, log)[0] is not None]
            if len(alive) == len(members.runs):
                raise
            return step(members.take(alive), epoch, log) if alive else (None, None)

    t0 = time.perf_counter()
    for epoch in range(cfg.epochs + 1):
        logged = epoch % cfg.log_every == 0 or epoch == cfg.epochs
        members, values = step(members, epoch, logged)
        if members is None:
            break
        if logged:
            wall = (time.perf_counter() - t0) * 1000.0 / len(members.runs)
            for run_idx, row in zip(members.runs, values.tolist()):
                rows[run_idx].append((epoch, *row, wall))
            t0 = time.perf_counter()

    results: dict[int, MetricsLog | TrainingError] = dict(failed)
    for i, run_idx in enumerate(members.runs if members is not None else []):
        built[run_idx].thetas = members.thetas[i]  # each member's own model ends trained
        results[run_idx] = MetricsLog(rows[run_idx], checkpoint_text(built[run_idx], cfg.seed, cfg.epochs))
    return [results[run_idx] for run_idx in runs]


def train(cfg: TrainConfig) -> MetricsLog:
    """Train one model of either kind against one seeded target: run 0 of an ensemble, alone.

    A numeric failure raises TrainingError, naming the epoch; run_ensemble
    writes files.
    """
    (log,) = _train_members(cfg, [0], "both")
    if isinstance(log, TrainingError):
        raise log
    return log


@dataclass
class EnsembleSummary:
    """Per-epoch mean/std curves over the successful runs of an ensemble."""

    n_runs: int
    failures: list[str]
    epoch: list[int]
    stats: dict[str, list[float]]

    def final(self, name: str) -> float:
        return self.stats[name][-1]

    def to_csv(self, path: str) -> None:
        names = list(self.stats)
        columns = [[repr(float(x)) for x in self.stats[n]] for n in names]
        _write_csv(path, [["epoch", *names], *([str(ep), *row] for ep, *row in zip(self.epoch, *columns))])


def _ensemble_worker(args: tuple) -> list[MetricsLog | TrainingError]:
    return _train_members(*args)


def run_ensemble(
    cfg: TrainConfig,
    n_runs: int,
    vary: str = "both",
    jobs: int = 1,
    out_dir: str | None = None,
) -> tuple[list[MetricsLog], EnsembleSummary]:
    """Many independent seeded runs of one config, reduced to mean/std curves.

    `vary` picks which draws differ between runs: the target, the
    initialization, or both. The runs train in lockstep chunks: split into
    min(jobs, n_runs) contiguous chunks, one pool task each, or, for a
    single chunk, all of them as one chunk in this process. Failed
    runs are recorded in the summary, in run order, and skipped in the
    statistics; once failures exceed 20% of n_runs the ensemble aborts.
    Results are deterministic for a given (cfg, n_runs, vary) regardless
    of `jobs`, and each run's numbers equal those of a solo `train`.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if vary not in ("target", "init", "both"):
        raise ValueError(f"unknown vary mode {vary!r}")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")

    k = min(jobs, n_runs)
    if k == 1:
        outcomes = _train_members(cfg, list(range(n_runs)), vary)
    else:
        bounds = [n_runs * i // k for i in range(k + 1)]
        tasks = [(cfg, list(range(a, b)), vary) for a, b in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(max_workers=k) as pool:
            outcomes = [o for part in pool.map(_ensemble_worker, tasks) for o in part]

    logs: dict[int, MetricsLog] = {}
    failures: list[str] = []
    for run_idx, outcome in enumerate(outcomes):
        if isinstance(outcome, MetricsLog):
            logs[run_idx] = outcome
            continue
        failures.append(f"run {run_idx}: {outcome}")
        if len(failures) > 0.2 * n_runs:
            raise TrainingError(
                f"{len(failures)} of {n_runs} runs failed (> 20%): " + "; ".join(failures)
            )

    ordered = [logs[i] for i in sorted(logs)]
    data = np.stack([lg._data for lg in ordered])  # (members, epochs, columns): every member logs cfg's epochs
    science = data[:, :, 1:5]  # loss, penalized_loss, fidelity, grad_inf_norm
    mean = science.mean(axis=0)
    std = science.std(axis=0, ddof=1) if len(ordered) > 1 else np.zeros_like(mean)
    stats: dict[str, list[float]] = {}
    for k, name in enumerate(CSV_COLUMNS[1:5]):
        stats[f"{name}_mean"] = mean[:, k].tolist()
        stats[f"{name}_std"] = std[:, k].tolist()
    epochs = data[0, :, 0].astype(int).tolist()
    summary = EnsembleSummary(n_runs=n_runs, failures=failures, epoch=epochs, stats=stats)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for run_idx, lg in zip(sorted(logs), ordered):
            lg.write(out_dir, run_idx)
        summary.to_csv(os.path.join(out_dir, "summary.csv"))
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            fh.write(json_text(vars(summary)))  # the fields in order, as asdict gives them, without its deep copy
    return ordered, summary


__all__ = [
    "AdamState",
    "TrainConfig",
    "MetricsRow",
    "MetricsLog",
    "EnsembleSummary",
    "TrainingError",
    "adam_step",
    "run_streams",
    "draw_target",
    "train",
    "run_ensemble",
    "load_checkpoint_model",
]
