"""One workload in one single-threaded process (started by run.py).

Drives ``magnoncavity.cli.main(argv)`` in a closed loop: the next
experiment starts only when the previous one has returned. Passes repeat
until the time budget is spent, and at least twice so that reruns can be
compared byte for byte. With ``--trace 1`` every second pass is traced;
otherwise the host's speed is sampled during the passes (speed.py).

``--setup-only`` instead measures set-up: it imports the CLI, parses the
workload's first configuration and reports the moment the first experiment
would start, as ``time.monotonic()`` (a clock shared by all processes),
with the probe's samples.
"""

import sys
import time

SETUP_PROBE_INTERVAL_S = 0.05
PROBE_INTERVAL_S = 0.1

if __name__ == "__main__" and "--setup-only" in sys.argv:
    # Nothing but the stdlib-only probe is imported before the program.
    from speed import SpeedProbe

    started = []

    def _first_experiment(cfg):
        started.append(time.monotonic())
        probe.timed = False
        return 0

    with SpeedProbe(SETUP_PROBE_INTERVAL_S) as probe:
        probe.timed = True
        import magnoncavity.cli as cli

        if hasattr(cli, "run"):
            cli.run = _first_experiment
        outdir, *argv = sys.argv[sys.argv.index("--setup-only") + 1:]
        status = cli.main([*argv, "--out", outdir])
    print(started[0] if started else time.monotonic(), probe.timed_s,
          " ".join(map(str, probe.samples)), status, sep="\n")
    raise SystemExit(0)

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import shutil
from pathlib import Path

MIN_PASSES = 2


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _data_digests(outdir: Path) -> dict[str, str]:
    # manifest.json carries the run's duration, so it is not compared.
    if not outdir.is_dir():
        return {}
    return {p.name: _digest(p) for p in sorted(outdir.iterdir())
            if p.is_file() and p.name != "manifest.json"}


def _call_main(cli, argv, tracer, run_id: str):
    """Exit status of one CLI invocation; its output is swallowed."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            if tracer:
                tracer.run_id = run_id
                return tracer.call("cli.main", cli.main, argv)
            return cli.main(argv)
        except SystemExit as exc:       # argparse rejected the argv
            return exc.code
        except Exception as exc:        # a traceback counts as a failed experiment
            return f"{type(exc).__name__}: {exc}"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    import magnoncavity.cli as cli
    from speed import SpeedProbe
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.src.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"magnoncavity imported from {cli.__file__}, not from {args.src}")

    experiments = list(WORKLOADS[args.workload])
    rng = random.Random(args.seed)
    reference: dict[str, dict[str, str]] = {}
    first_dirs: dict[str, str] = {}
    passes: list[dict] = []
    # A traced run compares its traced passes with its own untraced ones,
    # so neither kind is probed there.
    probe = SpeedProbe(PROBE_INTERVAL_S)
    with contextlib.nullcontext() if args.trace else probe:
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or (
                args.seconds - (time.perf_counter() - start)
                >= min(p["pass_s"] for p in passes)):
            index = len(passes)
            tracer = Tracer() if args.trace and index % 2 == 1 else None
            record = {"traced": tracer is not None, "pass_s": 0.0,
                      "exit": {}, "mismatch": []}
            first_sample, probe_s = len(probe.samples), probe.timed_s
            order = experiments[:]
            rng.shuffle(order)
            if tracer:
                tracer.install()
            try:
                for exp in order:
                    outdir = args.out / f"p{index:03d}-{exp.name}"
                    probe.timed = True
                    t0 = time.perf_counter()
                    status = _call_main(cli, [*exp.argv, "--out", str(outdir)],
                                        tracer, f"{index}:{exp.name}")
                    record["pass_s"] += time.perf_counter() - t0
                    probe.timed = False
                    record["exit"][exp.name] = status
                    digests = _data_digests(outdir)
                    if index == 0:
                        reference[exp.name] = digests
                        first_dirs[exp.name] = str(outdir)
                    elif digests != reference[exp.name]:
                        record["mismatch"].append(exp.name)
            finally:
                if tracer:
                    tracer.uninstall()
            if tracer:
                record["layers"] = tracer.reduce()
            if index > 0:
                for exp in experiments:
                    shutil.rmtree(args.out / f"p{index:03d}-{exp.name}", ignore_errors=True)
            record["probe_s"] = probe.timed_s - probe_s
            record["samples"] = probe.samples[first_sample:]
            record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            passes.append(record)

    result = {"passes": passes, "first_dirs": first_dirs}
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
