"""Per-layer spans recorded from outside the program.

Each traced function is replaced by a wrapper at every place its name is
bound (for example `uqnn_statevector` lives in `models` and is imported into
`divergence`, `plateau`, `swaptest`, `cli` and the package root), so calls
are seen whichever module makes them. A wrapper records calls, total time,
self time (total minus the time of traced calls it made) and an optional
work amount. Spans are kept in memory only while `Tracer.active` is true.

Ensemble members that run in pool workers inherit the wrappers through
fork; `install_worker_hook` makes each worker append its own counter deltas,
memory and speed samples to a spool directory, which the parent reads
after the pool has finished.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

import numpy as np

from renyiqnn import cli, divergence, hamiltonians, models, plateau, qmath, states, swaptest, training

# layer -> [(owner, attribute)]; a layer sums the calls of all its functions.
LAYERS = {
    "models.statevector": [(models, "uqnn_statevector")],
    "models.gate": [(models, "apply_gate")],
    "models.table_build": [(models, "gate_table")],
    "models.conjugated_generator_vec": [(models, "conjugated_generator_vec")],
    "models.hamiltonian_dense": [(models.QBMParams, "hamiltonian_dense")],
    "models.qbm_visible_state": [(models, "qbm_visible_state")],
    "hamiltonians.string_action": [(hamiltonians, "string_action")],
    "hamiltonians.string_trace": [(hamiltonians, "string_trace")],
    "divergence.uqnn_grad": [
        (divergence, "uqnn_grad_reverse"),
        (divergence, "uqnn_grad_forward"),
        (divergence, "uqnn_grad_linear"),
    ],
    "divergence.qbm_grad": [(divergence, "qbm_grad_reverse"), (divergence, "qbm_grad_forward")],
    "divergence.loss": [(divergence, "renyi2_reverse"), (divergence, "renyi2_forward")],
    "linalg.eigh": [(np.linalg, "eigh"), (np.linalg, "eigvalsh")],
    "qmath.partial_trace": [(qmath, "partial_trace")],
    "qmath.herm_expm": [(qmath, "herm_expm")],
    "states.fidelity": [(states, "fidelity")],
    "states.thermal_state": [(states, "thermal_state")],
    "training.adam_step": [(training, "adam_step")],
    "training.output": [
        (training.MetricsLog, "to_csv"),
        (training.EnsembleSummary, "to_csv"),
        (json, "dump"),
    ],
    "plateau.scan": [(plateau, "init_gradient_scan")],
    "swaptest.mc_gradient": [(swaptest, "mc_reverse_gradient_thermal")],
    "cli.config_load": [(cli, "load_experiment_config")],
}

# Work amount per call: amplitudes touched by one gate application.
AMOUNTS = {"models.gate": lambda args, kwargs: args[0].size}

CALLS, TOTAL, SELF, AMOUNT = range(4)


def _binding_sites(fn) -> list[tuple[object, str]]:
    """Every (module, name) in the package that is bound to `fn`."""
    sites = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "renyiqnn" or mod_name.startswith("renyiqnn.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                sites.append((mod, attr))
    return sites


class Tracer:
    """Call counts and times per layer, recorded by installed wrappers."""

    def __init__(self) -> None:
        self.active = False
        self.stats: dict[str, list[float]] = {name: [0, 0.0, 0.0, 0] for name in LAYERS}
        self._child_time: list[float] = []

    def _wrap(self, layer: str, fn):
        stats = self.stats[layer]
        amount = AMOUNTS.get(layer)
        stack = self._child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += dt
                stats[CALLS] += 1
                stats[TOTAL] += dt
                stats[SELF] += dt - children
                if amount is not None:
                    stats[AMOUNT] += amount(args, kwargs)

        return wrapper

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for owner, attr in targets:
                fn = getattr(owner, attr)
                wrapper = self._wrap(layer, fn)
                for site, name in [(owner, attr)] + _binding_sites(fn):
                    setattr(site, name, wrapper)

    def snapshot(self) -> dict[str, list[float]]:
        return {name: list(vals) for name, vals in self.stats.items()}

    def add(self, delta: dict[str, list[float]]) -> None:
        for name, vals in delta.items():
            for i, v in enumerate(vals):
                self.stats[name][i] += v


def _rss_kb() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024


def install_worker_hook(spool: dict, tracer: Tracer | None, kernel: str) -> None:
    """Make every ensemble worker report its memory, speed samples and spans.

    `spool["dir"]` names the directory the current round's workers write
    to; the parent changes it between rounds. Each `run_ensemble` call
    starts its own pool, so it bumps `spool["pool"]`, and each worker
    records the pool it was forked for. Relies on the pool forking its
    workers; run.py pins that start method.
    """
    import speed

    original = training._ensemble_worker
    run_ensemble = training.run_ensemble
    base_kb: list[int] = []  # RSS at the start of this worker's first task

    @functools.wraps(run_ensemble)
    def new_pool(*args, **kwargs):
        spool["pool"] = spool.get("pool", 0) + 1
        return run_ensemble(*args, **kwargs)

    @functools.wraps(original)
    def worker(args):
        if not base_kb:
            base_kb.append(_rss_kb())
        before = tracer.snapshot() if tracer is not None else None
        sampler = speed.SpeedSampler(kernel)
        sampler.start()
        try:
            return original(args)
        finally:
            record = {
                "pool": spool.get("pool", 0),
                "base_kb": base_kb[0],
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "speed": sampler.stop(),
            }
            if tracer is not None:
                now = tracer.snapshot()
                record["stats"] = {
                    name: [a - b for a, b in zip(now[name], before[name])] for name in now
                }
            with open(os.path.join(spool["dir"], f"worker_{os.getpid()}.jsonl"), "a") as fh:
                fh.write(json.dumps(record) + "\n")

    training._ensemble_worker = worker
    training.run_ensemble = new_pool


def read_spool(spool_dir: str) -> dict:
    """Worker records of one round.

    `rss_kb` is the largest memory the round's workers held at one time:
    for each pool, the sum over its workers of their peak RSS growth past
    the RSS they started their first task with (pages shared with the
    parent at fork are counted once, in the parent); then the largest pool.
    Also the number of tasks and pools, the speed samples and span deltas.
    """
    out = {"rss_kb": 0.0, "tasks": 0, "pools": 0, "speed": [], "stats": []}
    pools: dict[int, float] = {}
    for name in sorted(os.listdir(spool_dir)):
        with open(os.path.join(spool_dir, name)) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        growth = max(r["maxrss_kb"] for r in records) - records[0]["base_kb"]
        pool = records[0]["pool"]
        pools[pool] = pools.get(pool, 0.0) + max(growth, 0)
        out["tasks"] += len(records)
        for r in records:
            out["speed"] += r["speed"]
            out["stats"] += [r["stats"]] if "stats" in r else []
    out["pools"] = len(pools)
    out["rss_kb"] = max(pools.values(), default=0.0)
    return out
