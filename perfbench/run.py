"""natvb benchmark: whole run_experiment calls, end to end and per layer.

    python3 perfbench/run.py --workload ridge_full --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A single-process closed loop: one client runs one ``run_experiment``
call at a time (config in, trace.csv/summary.json/config.used.json out)
until ``--seconds`` have passed, with BLAS pinned to one thread and the
process pinned to one CPU. With ``--trace 0`` it reports the end-to-end
metrics, times scaled to a reference host speed (see hostspeed.py); with
``--trace 1`` it
alternates untraced and traced runs and reports per-layer self times and
counts (see layers.py). Every run's outputs are checked (workloads.py);
a run that raises or fails its check counts as failed. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See README.md in this directory.
"""

import os

# pinned before numpy loads; inherited by the set-up child processes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import layers
from hostspeed import HostSpeed, SpeedSampler, pin_to_one_cpu
from workloads import WORKLOADS, check_run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_RUNS = 3
MIN_TRACED_RUNS = 2
SETUP_SAMPLES = 5
SETUP_SPEED_SAMPLES = 25

END_TO_END = {"run_s": "s", "steps_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}

# per-layer metric -> span whose inclusive seconds it reports
SPAN_TIMES = {
    "blr.step_s": "blr.step",
    "blr.residual_s": "blr.residual",
    "blr.filter_check_s": "blr.filter_check",
    "blr.objective_s": "blr.objective",
    "natgrad.estimate_s": "natgrad.estimate",
    "natgrad.dual_check_s": "natgrad.dual_check",
    "natgrad.expected_loss_s": "natgrad.expected_loss",
    "gaussian.fisher_s": "gaussian.fisher",
    "gaussian.sample_s": "gaussian.sample",
    "gaussian.cholesky_s": "gaussian.cholesky",
    "expfam.domain_check_s": "expfam.domain_check",
    "expfam.log_density_s": "expfam.log_density",
    "models.hessian_s": "models.hessian",
    "models.full_data_eval_s": "models.full_data_eval",
    "models.batch_grad_s": "models.batch_grad",
    "deep.step_s": "deep.step",
    "harness.write_s": "harness.write",
    "losses.derivative_gate_s": "losses.derivative_gate",
}
# counters reported in total and per step
COUNTS = ("blr.steps", "blr.step_retries", "gaussian.fisher_calls",
          "gaussian.cholesky_calls", "gaussian.sample_calls",
          "expfam.domain_checks", "expfam.log_density_calls",
          "natgrad.estimate_calls", "models.value_evals", "models.grad_evals",
          "models.hessian_evals", "models.full_data_evals",
          "models.batch_grad_evals", "deep.steps")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric --trace 1 reports, with its unit."""
    units = {f"{layer}.self_s": "s" for layer in layers.LAYERS}
    units.update({name: "s" for name in SPAN_TIMES})
    units["deep.loop_self_s"] = "s"
    units.update({name: "count" for name in COUNTS})
    units.update({f"{name}_per_step": "count/step" for name in COUNTS
                  if name not in ("blr.steps", "deep.steps")})
    units.update({"harness.trace_bytes": "bytes", "blr.step_accept_frac": "ratio",
                  "trace.unattributed_frac": "ratio", "trace.overhead_frac": "ratio",
                  "trace.traced_run_s": "s", "trace.untraced_run_s": "s"})
    return units


# -- host ----------------------------------------------------------------

def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": _blas(np), "scipy_blas": _blas(scipy),
            "loadavg": list(os.getloadavg())}


def _blas(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def numpy_probe() -> float:
    """Median seconds of a fixed pure-numpy task: host speed, not natvb's."""
    rng = np.random.default_rng(0)
    big = rng.standard_normal((120, 120))
    spd = big @ big.T + 120.0 * np.eye(120)
    small = rng.standard_normal((8, 8))
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(20):
            np.linalg.cholesky(spd)
        for _ in range(2000):
            small @ small[0]
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# -- runs ----------------------------------------------------------------

class Bench:
    """Runs one workload's config repeatedly and checks every run."""

    def __init__(self, natvb, workload, seed: int, out_dir: Path):
        self.natvb = natvb
        self.workload = workload
        self.config = workload.config(seed)
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.summary = None
        self.trace_bytes = 0
        self.missing_hooks: list[str] = []

    def run(self, tracer=None) -> float | None:
        """One run_experiment call; its wall seconds, or None if it failed."""
        self.attempted += 1
        run_dir = self.out_dir / f"run{self.attempted}"
        saved = []
        if tracer:
            saved, self.missing_hooks = layers.install(tracer, self.natvb)
        try:
            if tracer:
                tracer.enter(layers.ROOT, "")
            try:
                start = time.perf_counter()
                summary = self.natvb.harness.run_experiment(self.config, run_dir)
                elapsed = time.perf_counter() - start
            finally:
                if tracer:
                    tracer.exit()
                layers.uninstall(saved)
            self.digest = check_run(self.workload, self.config, summary, run_dir,
                                    self.digest)
            self.trace_bytes = (run_dir / "trace.csv").stat().st_size
        except Exception as exc:  # a failing run is counted, not fatal
            self.failed += 1
            print(f"run {self.attempted} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return None
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        self.summary = summary
        return elapsed


def measure(bench: Bench, seconds: float) -> tuple[list[float], list[float]]:
    """Timed runs: (seconds at reference host speed, wall seconds)."""
    scaled, wall = [], []
    with SpeedSampler() as sampler:
        bench.run()  # warm-up: lazy set-up finishes, the reference trace is taken
        start = time.perf_counter()
        attempts = 0
        while attempts < MIN_RUNS or time.perf_counter() - start < seconds:
            attempts += 1
            mark = sampler.mark()
            elapsed = bench.run()
            if elapsed is not None:
                wall.append(elapsed)
                scaled.append(elapsed * sampler.scale_since(mark))
    return scaled, wall


def measure_setup(config: dict) -> tuple[float, float]:
    """Median set-up seconds over fresh processes, at reference host speed
    and as wall time, after one unmeasured process has compiled the
    bytecode. Host speed is sampled just before and after each process,
    on the CPU it inherits."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), json.dumps(config)]
    speed = HostSpeed()
    scaled, wall = [], []
    for index in range(SETUP_SAMPLES + 1):
        mark = speed.mark()
        for _ in range(SETUP_SPEED_SAMPLES):
            speed.sample()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        for _ in range(SETUP_SPEED_SAMPLES):
            speed.sample()
        if index:
            setup_s = json.loads(proc.stdout.splitlines()[-1])["setup_s"]
            wall.append(setup_s)
            scaled.append(setup_s * speed.scale_since(mark))
    return statistics.median(scaled), statistics.median(wall)


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    setup_s, setup_wall = measure_setup(bench.config)
    times, wall = measure(bench, seconds)
    run_s = statistics.median(times) if times else 0.0
    steps = bench.summary["iterations"] if bench.summary else 0
    metrics = {"run_s": run_s,
               "steps_per_s": steps / run_s if run_s else 0.0,
               "setup_s": setup_s,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    notes = [f"timed runs: {len(times)}",
             f"run_s quartiles (reference speed): {_quartiles(times)}",
             f"diagnostic wall_run_s quartiles: {_quartiles(wall)}",
             f"diagnostic wall_setup_s median: {setup_wall:.6f}"]
    return metrics, notes


def _layer_sample(tracer, root_s: float, steps: int, trace_bytes: int):
    """(times, counts) of one traced run."""
    times = {f"{layer}.self_s": tracer.layer_self[layer] for layer in layers.LAYERS}
    times.update({name: tracer.span_total[span] for name, span in SPAN_TIMES.items()})
    times["deep.loop_self_s"] = tracer.span_self[layers.DEEP_LOOP]
    times["trace.unattributed_frac"] = tracer.span_self[layers.ROOT] / root_s
    counts = {name: tracer.counts[name] for name in COUNTS}
    counts["blr.steps"] = tracer.counts["blr.step_attempts"] - counts["blr.step_retries"]
    counts["models.full_data_evals"] = tracer.span_calls["models.full_data_eval"]
    counts["models.batch_grad_evals"] = tracer.span_calls["models.batch_grad"]
    counts["harness.trace_bytes"] = trace_bytes
    counts["steps"] = steps
    return times, counts


def per_layer(bench: Bench, seconds: float) -> tuple[dict, list[str], bool]:
    """Alternate untraced and traced runs; per-layer medians and counts."""
    bench.run()
    untraced, traced, samples = [], [], []
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_TRACED_RUNS or time.perf_counter() - start < seconds:
        rounds += 1
        elapsed = bench.run()
        if elapsed is not None:
            untraced.append(elapsed)
        tracer = layers.Tracer()
        elapsed = bench.run(tracer)
        if elapsed is not None:
            traced.append(elapsed)
            samples.append(_layer_sample(tracer, elapsed, bench.summary["iterations"],
                                         bench.trace_bytes))
    if not samples or not untraced:
        return {}, ["no traced run succeeded"], False
    counts = samples[0][1]
    repeat = all(sample[1] == counts for sample in samples)
    metrics = {name: statistics.median(sample[0][name] for sample in samples)
               for name in samples[0][0]}
    steps = counts.pop("steps")
    for name in COUNTS:
        metrics[name] = counts[name]
        if name not in ("blr.steps", "deep.steps"):
            metrics[f"{name}_per_step"] = counts[name] / steps
    metrics["harness.trace_bytes"] = counts["harness.trace_bytes"]
    attempts = counts["blr.steps"] + counts["blr.step_retries"]
    metrics["blr.step_accept_frac"] = counts["blr.steps"] / attempts if attempts else 1.0
    metrics["trace.traced_run_s"] = statistics.median(traced)
    metrics["trace.untraced_run_s"] = statistics.median(untraced)
    metrics["trace.overhead_frac"] = (metrics["trace.traced_run_s"]
                                      / metrics["trace.untraced_run_s"] - 1.0)
    notes = [f"traced runs: {len(traced)}, untraced runs: {len(untraced)}",
             f"counts repeat exactly across traced runs: {'yes' if repeat else 'NO'}",
             f"hooks not found: {', '.join(bench.missing_hooks) or 'none'}"]
    if not repeat:
        notes += [f"  counts of traced run {i + 1}: {s[1]}" for i, s in enumerate(samples)]
    return metrics, notes, repeat


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return "n/a"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4f} / {q2:.4f} / {q3:.4f}"


# -- entry points --------------------------------------------------------

def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import natvb
    import natvb.harness  # noqa: F401  (loads every layer module)

    if Path(natvb.__file__).resolve().parent != SRC / "natvb":
        print(f"natvb imported from {natvb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    info = machine_info()
    info["pinned_cpu"] = pin_to_one_cpu()
    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench_runs" / f"{workload.name}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    bench = Bench(natvb, workload, args.seed, out_dir)
    try:
        probe_before = numpy_probe()
        if args.trace:
            values, notes, repeat = per_layer(bench, args.seconds)
            units = per_layer_units()
        else:
            values, notes = end_to_end(bench, args.seconds)
            repeat = True
            units = END_TO_END
        probe_after = numpy_probe()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    error_rate = bench.failed / bench.attempted

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("host " + json.dumps(info))
    for line in notes:
        print(line)
    if bench.summary and "mean_data_loss" in bench.summary:
        print(f"diagnostic final_mean_data_loss {bench.summary['mean_data_loss']!r} "
              f"(seed {args.seed})")
    print(f"diagnostic numpy_probe_s before {probe_before:.6f} after {probe_after:.6f}")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:<14.6g} {metric['unit']}")
    print(f"{'error_rate':34s} {error_rate:<14.6g} ratio  "
          f"({bench.failed} failed of {bench.attempted} runs)")
    correct = bench.failed == 0 and repeat and bool(values)
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table, one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]) + "\n")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{metric}": value for metric, value
                                    in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "natvb" / "harness.py").is_file():
        print(f"no natvb sources at {SRC}; run from a natvb checkout", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
