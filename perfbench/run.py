"""Benchmark for renyiqnn: training throughput, init scans and shot estimators.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`. With --trace 0 the workload runs closed-loop rounds for S seconds
and the last stdout line reports the end-to-end metrics (median round
throughput, set-up time over fresh processes, peak RSS). With --trace 1
round 0 runs twice untraced (warm-up, reference) and once with per-layer
wrappers installed, and the last line reports the per-layer metrics. Every
run checks the program's outputs against dense reference computations; see
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("circuit-train", "qbm-train", "plateau-scan", "mc-estimate")
# Fixed before the interpreter starts (run.py re-executes itself with them),
# so BLAS runs on one thread in this process and every process it starts.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# Pool workers must fork to inherit the per-layer wrappers and the worker
# hook (tracing.py); Python 3.14 changes the Linux default to forkserver.
START_METHOD = "fork"
SETUP_PROBES = 9
CONFIG_LOADS = 5
PROBE_TIMEOUT_S = 60
THROUGHPUT_NAMES = {
    "circuit-train": ("train_epochs_per_s", "epochs/s"),
    "qbm-train": ("train_epochs_per_s", "epochs/s"),
    "plateau-scan": ("scan_inits_per_s", "inits/s"),
    "mc-estimate": ("mc_shots_per_s", "shots/s"),
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="time one set-up in this process and exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def setup_probe(workload: str) -> tuple[float, float]:
    """(seconds to import the package and resolve the workload's configs,
    the same scaled to the reference machine speed)."""
    import speed

    sampler = speed.SpeedSampler("interp")
    sampler.start()
    t0 = time.perf_counter()
    import renyiqnn  # noqa: F401  (the whole package, as the CLI loads it)
    import workloads

    workloads.make_workloads()[workload].resolve()
    elapsed = time.perf_counter() - t0
    samples = sampler.stop()
    elapsed -= sampler.tick_s  # the sampler's own ticks
    return elapsed, elapsed / sampler.factor(samples)


def measure_setup(workload: str) -> list[tuple[float, float]]:
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        samples.append(tuple(json.loads(out.stdout.strip().splitlines()[-1])))
    return samples


def env_stamp(loadavg: tuple[float, float, float]) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    try:
        rev = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "renyiqnn")
    for dirpath, dirnames, filenames in sorted(os.walk(pkg)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            with open(os.path.join(dirpath, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "numpy": np.__version__,
        "blas": blas_id,
        "pinned_env": {v: os.environ.get(v) for v in PINNED_ENV},
        "mp_start_method": multiprocessing.get_start_method(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
        "loadavg_start": list(loadavg),
    }


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def timed_round(workload, inputs, out_dir: str, spool: dict, sampler) -> tuple:
    """Run one round; (round, its speed factor, its workers' spool records).

    The speed factor is sampled in the processes that did the work: this
    one, or the pool workers.
    """
    import tracing

    in_pool = getattr(workload, "jobs", 1) > 1
    spool["dir"] = out_dir + "_spool"
    os.makedirs(spool["dir"])
    if not in_pool:
        sampler.start()
    rnd = workload.run(inputs, out_dir)
    samples = [] if in_pool else sampler.stop()
    workers = tracing.read_spool(spool["dir"])
    if in_pool:
        pools = len(rnd.payload["ensembles"])
        if workers["tasks"] != rnd.attempted or workers["pools"] != pools:
            raise RuntimeError(
                f"{workers['tasks']} worker records from {workers['pools']} pools, expected "
                f"{rnd.attempted} from {pools}: pool workers did not run the worker hook"
            )
        samples = workers["speed"]
    return rnd, sampler.factor(samples), workers


def run_rounds(workload, seed: int, seconds: float, work: str, spool: dict):
    """Closed loop: whole rounds until `seconds` have passed.

    Returns the rounds, their speed factors and the largest memory the
    workers of one round held at one time, in kB (see tracing.read_spool).
    """
    import speed

    sampler = speed.SpeedSampler(workload.calibration)
    rounds, factors, worker_rss_kb = [], [], 0.0
    t_start = time.perf_counter()
    while not rounds or time.perf_counter() - t_start < seconds:
        r = len(rounds)
        inputs = workload.inputs(seed, r)
        rnd, factor, workers = timed_round(workload, inputs, os.path.join(work, f"round_{r}"), spool, sampler)
        rounds.append(rnd)
        factors.append(factor)
        worker_rss_kb = max(worker_rss_kb, workers["rss_kb"])
    return rounds, factors, worker_rss_kb


def check_all(workload, rounds, seed: int) -> list[str]:
    errors = []
    for r, rnd in enumerate(rounds):
        errors += workload.check(rnd, seed, r)
    if hasattr(workload, "check_run"):
        errors += workload.check_run(rounds)
    return errors


def _fmt(values) -> str:
    return ", ".join(f"{x:.4g}" for x in values)


def end_to_end(args, workload, work: str) -> tuple[dict, list]:
    import tracing

    setup = measure_setup(args.workload)
    workload.resolve()
    spool: dict = {}
    tracing.install_worker_hook(spool, None, workload.calibration)
    rounds, factors, worker_rss_kb = run_rounds(workload, args.seed, args.seconds, work, spool)
    self_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    raw = [rnd.ops / rnd.wall_s for rnd in rounds]
    scaled = [x * f for x, f in zip(raw, factors)]
    setup_raw = [t for t, _ in setup]
    setup_scaled = [t for _, t in setup]
    rss_mb = (self_rss_kb + worker_rss_kb) / 1024
    name, unit = THROUGHPUT_NAMES[args.workload]
    print(f"{name} {statistics.median(raw):.6g} {unit} raw, {statistics.median(scaled):.6g} scaled "
          f"(median of {len(rounds)} rounds; raw {_fmt(raw)}; speed factors {_fmt(factors)})")
    print(f"setup_s {statistics.median(setup_raw):.6g} s raw, {statistics.median(setup_scaled):.6g} scaled "
          f"(median of {len(setup)} fresh processes; raw {_fmt(setup_raw)})")
    print(f"peak_rss_mb {rss_mb:.6g} MB (workload process {self_rss_kb / 1024:.1f}, "
          f"worker growth {worker_rss_kb / 1024:.1f})")
    # The same medians without the speed scaling, machine-readable; the
    # result line holds only value and unit per metric.
    print("unscaled " + json.dumps({"ref_ops_per_s": statistics.median(raw),
                                    "setup_s": statistics.median(setup_raw)}))
    metrics = {
        "ref_ops_per_s": {"value": statistics.median(scaled), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    return metrics, rounds


def per_layer(args, workload, work: str) -> tuple[dict, list]:
    import speed
    import tracing
    from tracing import AMOUNT, CALLS, SELF, TOTAL

    tracer = tracing.Tracer()
    sampler = speed.SpeedSampler(workload.calibration)
    spool: dict = {}
    tracing.install_worker_hook(spool, tracer, workload.calibration)
    workload.resolve()
    # The first round pays one-time costs (lazy imports, first pool start);
    # the overhead reference is the second.
    warm, _, _ = timed_round(workload, workload.inputs(args.seed, 0), os.path.join(work, "warmup"), spool, sampler)
    plain, plain_speed, _ = timed_round(workload, workload.inputs(args.seed, 0), os.path.join(work, "untraced"), spool, sampler)

    tracer.install()
    tracer.active = True
    for _ in range(CONFIG_LOADS):
        workload.resolve()
    traced, traced_speed, workers = timed_round(workload, workload.inputs(args.seed, 0), os.path.join(work, "traced"), spool, sampler)
    tracer.active = False
    for delta in workers["stats"]:
        tracer.add(delta)

    s = tracer.stats
    ops = max(traced.ops, 1)
    plain_ops = max(plain.ops, 1)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def calls_and_time(layer, name=None):
        name = name or layer
        put(f"{name}_calls", s[layer][CALLS] / ops, "calls/op")
        put(f"{name}_s", s[layer][TOTAL] / ops, "s/op")

    calls_and_time("models.statevector")
    calls_and_time("models.gate")
    put("models.gate_amplitudes", s["models.gate"][AMOUNT] / ops, "amps/op")
    put("models.table_builds", s["models.table_build"][CALLS] / ops, "tables/op")
    calls_and_time("models.conjugated_generator_vec")
    calls_and_time("models.hamiltonian_dense")
    put("models.qbm_visible_state_s", s["models.qbm_visible_state"][TOTAL] / ops, "s/op")
    calls_and_time("hamiltonians.string_action")
    calls_and_time("hamiltonians.string_trace")
    put("divergence.uqnn_grad_self_s", s["divergence.uqnn_grad"][SELF] / ops, "s/op")
    put("divergence.qbm_grad_self_s", s["divergence.qbm_grad"][SELF] / ops, "s/op")
    calls_and_time("divergence.loss")
    calls_and_time("linalg.eigh")
    put("qmath.partial_trace_s", s["qmath.partial_trace"][TOTAL] / ops, "s/op")
    put("qmath.herm_expm_s", s["qmath.herm_expm"][TOTAL] / ops, "s/op")
    calls_and_time("states.fidelity")
    put("states.thermal_state_s", s["states.thermal_state"][TOTAL] / ops, "s/op")
    put("training.adam_step_s", s["training.adam_step"][TOTAL] / ops, "s/op")
    put("training.output_s", s["training.output"][TOTAL] / ops, "s/op")
    # Program-reported quantities come from the untraced round.
    put("training.output_bytes", dir_bytes(os.path.join(work, "untraced")) / plain_ops, "bytes/op")
    put("training.member_busy_s", plain.busy_s / plain_ops, "s/op")
    put("training.parallel_efficiency", plain.busy_s / (plain.jobs * plain.wall_s), "ratio")
    put("plateau.scan_self_s", s["plateau.scan"][SELF] / ops, "s/op")
    put("swaptest.mc_gradient_s", s["swaptest.mc_gradient"][TOTAL] / ops, "s/op")
    loads = s["cli.config_load"]
    put("cli.config_load_s", loads[TOTAL] / max(loads[CALLS], 1), "s")
    # Both rounds scaled to the reference machine speed, as ref_ops_per_s is.
    overhead = (traced.wall_s / traced_speed) / (plain.wall_s / plain_speed) - 1.0
    put("bench.trace_overhead_pct", 100.0 * overhead, "%")
    print(f"traced round: {traced.ops} {workload.op_unit} in {traced.wall_s:.4g} s; "
          f"untraced: {plain.ops} in {plain.wall_s:.4g} s")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return metrics, [warm, plain, traced]


def main(argv: list[str]) -> int:
    loadavg = os.getloadavg()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "renyiqnn", "__init__.py")):
        print(f"no renyiqnn sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + argv)
    sys.path.insert(0, SRC)
    multiprocessing.set_start_method(START_METHOD)
    if args.probe:
        print(json.dumps(setup_probe(args.workload)))
        return 0

    import workloads

    print("env " + json.dumps(env_stamp(loadavg), sort_keys=True))
    workload = workloads.make_workloads()[args.workload]
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}_{os.getpid()}")
    os.makedirs(work)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, rounds = measure(args, workload, work)
        errors = check_all(workload, rounds, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, attempted {attempted}, "
          f"failed {failed}, {len(errors)} check failures")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
