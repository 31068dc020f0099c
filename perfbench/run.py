"""btcforecast benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Generates the workload's inputs from
the seed, then runs samples one after another, each in a fresh process
(sample.py), until the next one would end after S seconds, and checks the
outputs of every sample. The first sample is a warm-up and is not timed.
Without tracing it prints the end-to-end metrics (setup_s, wall_s,
peak_rss_mb, each a median); with --trace 1 it alternates untraced and
traced samples and prints the per-layer metrics of the traced ones plus
trace.overhead_s. Human-readable lines come first; the last line is one
JSON object {"correct", "attempted", "failed", "metrics"}. --workload all
runs every workload in turn.

Operations counted in attempted/failed: each CLI command, each ingest poll
(failed if it appends nothing) and each sample's output check.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SETUP_PROBES = 5
SAMPLE_TIMEOUT_S = 120


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def probe_setup() -> float:
    """Spawn a process that only imports btcforecast.cli; its setup_s."""
    spawned = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(HERE / "sample.py"), "--setup", repr(spawned)],
        env=_child_env(), capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S, check=True,
    )
    return float(out.stdout)


def run_sample(workload: workloads.Workload, inputs: dict, sample_dir: Path, trace: bool) -> dict:
    """Run one sample in a fresh process and return its result. A process
    that fails fails every operation of its stages and carries "error"."""
    sample_dir.mkdir(parents=True)
    stages = workload.stages(inputs, sample_dir)
    spec = {"src": str(ROOT / "src"), "trace": trace, "stages": stages}
    spec_path, result_path = sample_dir / "spec.json", sample_dir / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    log_path = sample_dir / "log.txt"
    with open(log_path, "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "sample.py"), str(spec_path), str(result_path), repr(spawned)],
                env=_child_env(), stdout=log, stderr=subprocess.STDOUT, timeout=SAMPLE_TIMEOUT_S,
            )
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    if code != 0 or not result_path.exists():
        ops = [st.get("polls", 1) for st in stages]
        return {
            "traced": trace,
            "error": f"exit {code}: {log_path.read_text(encoding='utf-8')[-2000:]}",
            "stages": [{"name": st["name"], "attempted": n, "failed": n} for st, n in zip(stages, ops)],
        }
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["traced"] = trace
    if trace:
        result["layers"] = spans.stage_metrics(spans.read_spans(result_path.with_suffix(".spans.json")))
    return result


def remove_work_dir(work: Path) -> None:
    """Delete one run's directory, and WORK once no run uses it."""
    shutil.rmtree(work, ignore_errors=True)
    if WORK.exists() and not any(WORK.iterdir()):
        WORK.rmdir()


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _spread(values: list[float]) -> str:
    """Sample count, and the highest percentile with ten samples beyond it
    when there are enough samples for one."""
    n = len(values)
    if n <= 20:
        return f"median of {n}; too few for a tail percentile"
    return f"median of {n}; p{100 * (n - 10) // n} {sorted(values)[n - 11]:.6g}"


def measure(workload: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    slot = seed % workloads.SLOTS
    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        inputs = workload.prepare(ROOT, work / "inputs", slot)
        reference = workloads.load_references().get(workload.name, {}).get(str(slot))
        setups = [probe_setup() for _ in range(SETUP_PROBES)]
        samples, problems = [], []
        attempted = failed = 0
        first_digest = None
        start = time.monotonic()
        while True:
            # sample 0 warms the machine (page cache, clock speed) and is
            # checked but not timed; then untraced and traced alternate
            traced = trace and len(samples) > 0 and len(samples) % 2 == 0
            t0 = time.monotonic()
            sample_dir = work / f"sample-{len(samples)}"
            result = run_sample(workload, inputs, sample_dir, traced)
            attempted += 1 + sum(st["attempted"] for st in result["stages"])
            failed += sum(st["failed"] for st in result["stages"])
            try:
                if "error" in result:
                    raise check.CheckError(f"sample process failed, {result['error']}")
                observed, digest = workload.observe(inputs, sample_dir)
                workloads.check_against(observed, reference)
                first_digest = first_digest or digest
                if digest != first_digest:
                    changed = sorted(k for k in digest if digest[k] != first_digest.get(k))
                    raise check.CheckError(f"artifacts differ from the first sample: {changed}")
            except check.CheckError as e:
                problems.append(f"sample {len(samples)}: {e}")
                failed += 1
            shutil.rmtree(sample_dir, ignore_errors=True)
            result["warmup"] = not samples
            samples.append(result)
            last = time.monotonic() - t0
            enough = len(samples) > (2 if trace else 1)
            if enough and time.monotonic() - start + last > seconds:
                break
    finally:
        remove_work_dir(work)
    return {
        "workload": workload.name, "seed": seed, "slot": slot, "setups": setups,
        "samples": samples, "problems": problems, "attempted": attempted, "failed": failed,
    }


def summarize(run: dict, trace: bool) -> tuple[dict, list[str]]:
    """Metrics for the result line, and human-readable lines."""
    ok = [s for s in run["samples"] if "wall_s" in s and not s["warmup"]]
    plain = [s for s in ok if not s["traced"]]
    traced = [s for s in ok if s["traced"]]
    setups = run["setups"] + [s["setup_s"] for s in ok]
    lines = [f"workload {run['workload']} seed {run['seed']} (input set {run['slot']}): "
             f"{len(plain)} untraced and {len(traced)} traced samples after 1 warm-up"]
    for problem in run["problems"]:
        lines.append(f"  FAILED {problem}")
    fail_ratio = run["failed"] / run["attempted"]
    lines.append(f"  fail_ratio {fail_ratio:.6g} ratio ({run['failed']} of {run['attempted']} operations)")
    if not trace:
        samples = {
            ("setup_s", "s"): setups,
            ("wall_s", "s"): [s["wall_s"] for s in plain],
            ("peak_rss_mb", "MB"): [s["peak_rss_mb"] for s in plain],
            ("ingest_cadence_ratio", "ratio"): [st["cadence_ratio"] for s in plain for st in s["stages"]
                                                if "cadence_ratio" in st],
        }
        for stage in (plain[0]["stages"] if plain else []):
            samples[(f"stage.{stage['name']}.s", "s")] = [
                st["seconds"] for s in plain for st in s["stages"] if st["name"] == stage["name"]
            ]
        for (name, unit), values in samples.items():
            if values:
                lines.append(f"  {name} {_median(values):.6g} {unit} ({_spread(values)})")
        metrics = {name: {"value": _median(samples[(name, unit)]), "unit": unit}
                   for name, unit in (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))}
        return metrics, lines
    metrics = {}
    for name, unit, _ in spans.PER_LAYER:
        if name == "trace.overhead_s":
            value = _median([s["wall_s"] for s in traced]) - _median([s["wall_s"] for s in plain])
        else:
            value = _median([s["layers"].get(name, 0.0) for s in traced])
        metrics[name] = {"value": value, "unit": unit}
        label = " (inferred: epoch - Adam - forward)" if name.endswith("_inferred") else ""
        lines.append(f"  {name} {value:.6g} {unit}{label}")
    return metrics, lines


def _blas_threads() -> int | str:
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return "unknown"


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "btcforecast" / "cli.py").is_file():
        print(f"error: no btcforecast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    print("environment " + json.dumps(environment()))
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        run = measure(workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        values, lines = summarize(run, bool(args.trace))
        print("\n".join(lines), flush=True)
        correct = correct and not run["problems"]
        attempted += run["attempted"]
        failed += run["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
