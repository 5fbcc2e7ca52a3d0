"""Benchmark of the magnoncavity batch CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decay-default --seed 1 --seconds 30 --trace 0

The workload runs in a child process with one thread (child.py) that calls
``magnoncavity.cli.main(argv)`` in a closed loop on the checkout's
``src/``. Outputs go to fresh temporary directories under
``.bench_build/perfbench/`` and are removed at the end; the first pass's
outputs are checked against independent references (checks.py) and every
later pass must write byte-identical data files.

``--trace 0`` reports the end-to-end metrics: the median pass time, the
set-up time of a fresh interpreter (median of several), the child's peak
RSS after its first pass and the share of experiments that succeeded. The
two times are scaled to a reference host speed that a probe samples while
they run (speed.py); the summary lines above the JSON also give them as
wall-clock times.
``--trace 1`` reports the per-layer metrics, in wall-clock time, of a run
whose odd passes are traced from outside (tracing.py), plus the import cost
of the program's modules.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import run_checks
from speed import REFERENCE_S
from tracing import COUNTS, SPANS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 10
CHILD_TIMEOUT_S = 90       # beyond --seconds, for the pass in flight
SELF_SUM_TOL_S = 1e-6
# Pass times are averaged over batches of consecutive passes at least this
# long before the median is taken, so that each batch holds enough probe
# samples to estimate the host's speed, which swings on a scale of seconds.
BATCH_S = 3.0

MODULES = ("cli", "dynamics", "network", "spectral", "modes")


def _child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(root / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",     # nothing is written into src/
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def _scaled(seconds: float, samples: list[float]) -> float:
    """``seconds`` at the reference host speed (speed.py); unscaled without samples."""
    if not samples:
        return seconds
    return seconds * REFERENCE_S / statistics.fmean(samples)


def _setup_sample(argv, outdir: Path, env) -> tuple[float, float]:
    """(scaled, wall) seconds from spawning a fresh interpreter to the first
    experiment's start."""
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), "--setup-only",
                           str(outdir), *argv],
                          env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    started, probe_s, samples, status = proc.stdout.split("\n")[:4]
    if status != "0":
        raise RuntimeError(f"configuration {argv} was rejected (exit {status})")
    wall = float(started) - spawned
    return _scaled(wall - float(probe_s), [float(x) for x in samples.split()]), wall


def _import_costs(stderr: str) -> dict[str, float]:
    """From ``-X importtime`` lines: the cumulative import time of
    magnoncavity.cli and the summed own import time of scipy's modules."""
    cli_cum, scipy_self = 0.0, 0.0
    for m in re.finditer(r"^import time:\s+(\d+) \|\s+(\d+) \|\s+(\S+)\s*$", stderr, re.M):
        own, cumulative, name = int(m[1]), int(m[2]), m[3]
        if name == "magnoncavity.cli":
            cli_cum = cumulative * 1e-6
        if name == "scipy" or name.startswith("scipy."):
            scipy_self += own * 1e-6
    return {"import.magnoncavity_cli_s": cli_cum, "import.scipy_s": scipy_self}


def _batched_median(passes: list[dict]) -> tuple[float, float, int]:
    """Medians of the scaled and of the wall-clock mean pass time over batches
    of consecutive passes lasting at least BATCH_S, and the batch count.

    The probe's own samples are taken out of the scaled time.
    """
    scaled, wall = [], []
    batch: list[dict] = []
    for i, record in enumerate(passes):
        batch.append(record)
        wall_s = sum(p["pass_s"] for p in batch)
        if wall_s >= BATCH_S or (i == len(passes) - 1 and not scaled):
            program_s = wall_s - sum(p["probe_s"] for p in batch)
            samples = [x for p in batch for x in p["samples"]]
            scaled.append(_scaled(program_s, samples) / len(batch))
            wall.append(wall_s / len(batch))
            batch = []
    return statistics.median(scaled), statistics.median(wall), len(scaled)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _layer_metrics(traced: list[dict], untraced: list[dict], problems: list[str]) -> dict:
    layers = [p["layers"] for p in traced]
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.self_s"] = _metric(
            statistics.median(l["self_s"][name] for l in layers), "s")
    for name in COUNTS:
        values = {l["counts"][name] for l in layers}
        if len(values) != 1:
            problems.append(f"count {name} differs between traced passes: {sorted(values)}")
        unit = "bytes" if name.endswith(".bytes") else "count"
        metrics[name] = _metric(layers[0]["counts"][name], unit)
    spans = {l["spans"] for l in layers}
    if len(spans) != 1:
        problems.append(f"span count differs between traced passes: {sorted(spans)}")
    for l in layers:
        gap = abs(sum(l["self_s"].values()) - l["pass_s"])
        if gap > SELF_SUM_TOL_S:
            problems.append(f"self times miss the traced pass time by {gap:.3g} s")
    traced_s = _batched_median(traced)[1]
    metrics["trace.pass_s"] = _metric(traced_s, "s")
    metrics["trace.overhead_s"] = _metric(traced_s - _batched_median(untraced)[1], "s")
    metrics["trace.spans"] = _metric(layers[0]["spans"], "count")
    return metrics


def _module_shares(metrics: dict) -> str:
    total = sum(metrics[f"{n}.self_s"]["value"] for n in SPANS) or 1.0
    shares = {m: sum(metrics[f"{n}.self_s"]["value"] for n in SPANS if n.startswith(m + "."))
              / total for m in MODULES}
    return ", ".join(f"{m} {s:.1%}" for m, s in shares.items())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "magnoncavity" / "cli.py").is_file():
        print(f"{root} holds no src/magnoncavity/cli.py; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))      # for the references in checks.py
    experiments = WORKLOADS[args.workload]
    env = _child_env(root)
    work = root / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=work))
    try:
        setup = [] if args.trace else [
            _setup_sample(experiments[0].argv, tmp / f"setup{k}", env)
            for k in range(SETUP_SAMPLES)]
        cmd = [sys.executable, *(["-X", "importtime"] if args.trace else []),
               str(HERE / "child.py"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--src", str(root / "src"), "--out", str(tmp / "out"),
               "--result", str(tmp / "result.json")]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=args.seconds + CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"workload child failed (exit {proc.returncode}):\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        child = json.loads((tmp / "result.json").read_text())
        passes = child["passes"]
        dirs = {name: Path(d) for name, d in child["first_dirs"].items()}
        ran_ok = [name for name, status in passes[0]["exit"].items() if status == 0]
        found = run_checks(ran_ok, dirs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    problems = [f"{name}: {p}" for name, ps in found.items() for p in ps]
    attempted = failed = 0
    for record in passes:
        for name, status in record["exit"].items():
            attempted += 1
            if status != 0 or name in record["mismatch"] or found.get(name):
                failed += 1

    for name in passes[0]["exit"]:
        differing = sum(name in p["mismatch"] for p in passes)
        if differing:
            problems.append(f"{name}: data differ from pass 0 in {differing} later passes")

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    pass_times = [p["pass_s"] for p in untraced]
    pass_s, pass_wall_s, batches = _batched_median(untraced)
    if args.trace:
        metrics = _layer_metrics(traced, untraced, problems)
        metrics.update({k: _metric(v, "s") for k, v in _import_costs(proc.stderr).items()})
    else:
        metrics = {
            "pass_s": _metric(pass_s, "s"),
            "setup_s": _metric(statistics.median(s for s, _ in setup), "s"),
            # After the first pass, as in one CLI run per process: later
            # passes can raise the peak through heap fragmentation alone.
            "peak_rss_mb": _metric(passes[0]["peak_rss_mb"], "MB"),
            "ok_frac": _metric((attempted - failed) / attempted, "fraction"),
        }

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes "
          f"({len(traced)} traced) of {len(experiments)} experiments; "
          f"{failed} of {attempted} experiments failed")
    for name, status in passes[0]["exit"].items():
        if status != 0:
            print(f"  {name} exited {status}")
    print(f"  untraced pass: median over {batches} batches of >= {BATCH_S:g} s "
          f"from {len(pass_times)} passes: {pass_s:.4f} s scaled, {pass_wall_s:.4f} s wall")
    print("  untraced wall pass times: " + " ".join(f"{t:.4f}" for t in pass_times))
    if setup:
        print(f"  setup over {len(setup)} fresh interpreters (scaled/wall s): "
              + ", ".join(f"{s:.4f}/{w:.4f}" for s, w in setup))
    print(f"  peak RSS after pass 1: {passes[0]['peak_rss_mb']:.1f} MB, "
          f"after pass {len(passes)}: {passes[-1]['peak_rss_mb']:.1f} MB")
    if args.trace:
        print(f"  self time by module: {_module_shares(metrics)}")
    for problem in problems:
        print(f"  FAILED CHECK {problem}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
