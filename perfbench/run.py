"""One-command benchmark for molcontrast.

    python3 perfbench/run.py                      # all workloads, one process each
    python3 perfbench/run.py --workload downstream --seed 3 --seconds 20
    python3 perfbench/run.py --workload pretrain_paper --trace 1
    python3 perfbench/run.py --smoke              # tiny inputs, for tests

Run from the repository root.  Prints every metric by name and unit, then
one JSON line (``correct``, ``attempted``, ``failed``, ``metrics``) as the
last line of stdout.  Exits 1 when a library call fails or a correctness
check fails, 2 when the repository's sources are missing.  README.md
describes the workloads, the metrics and the trace.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("pretrain_fixture", "pretrain_paper", "downstream")
# One BLAS thread: results do not depend on the thread count, and a single
# thread is steadier on a shared machine.  Set before numpy is imported.
BLAS_THREADS = "1"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--smoke", action="store_true", help="tiny inputs, minimum cycles, ignores --seconds"
    )
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed,
    }


def run_one(args) -> int:
    for key in THREAD_VARS:
        os.environ[key] = BLAS_THREADS
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

    from tracing import PER_LAYER, measure_traced
    from workloads import END_TO_END, WORKLOADS, Ledger, measure

    w = WORKLOADS[args.workload]
    if args.smoke:
        w = w.smoke()
    env = environment(args.seed)
    print(f"workload {w.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    ledger = Ledger()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT))
    extra: dict = {}
    error = None
    try:
        if args.trace:
            values, extra = measure_traced(w, args.seed, work, ledger)
            units = {k: unit for k, (unit, _) in PER_LAYER.items()}
        else:
            seconds = 0.0 if args.smoke else args.seconds
            values = measure(w, args.seed, seconds, work, ledger)
            units = END_TO_END
    except Exception as exc:  # report, then fail the run without a result
        import traceback

        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (passes, failure) in ledger.checks.items():
        status = "ok" if failure is None else f"FAILED: {failure}"
        print(f"check {name}: {status} ({passes} passed)")
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 1

    spans = extra.pop("spans", None)
    for name, unit in units.items():
        print(f"  {name:32s} {values[name]:.6g} {unit}")
    for name, value in extra.get("encoder_layers", {}).items():
        if name not in units:
            print(f"  {name:32s} {value:.6g} s   (not in BENCHMARK.json)")
    rate = ledger.failed / ledger.attempted
    print(f"  {'error_rate':32s} {rate:.6g} ratio ({ledger.failed} of {ledger.attempted} calls)")
    others = {k: v for k, v in values.items() if k not in units}
    if others or extra:
        print("info " + json.dumps({**others, **extra}, sort_keys=True))

    stem = f"{w.name}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": w.name,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "environment": env,
        "metrics": values,
        "units": units,
        "info": extra,
        "checks": ledger.checks,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if spans is not None:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")

    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if ledger.correct else 1


def run_all(args) -> int:
    """Each workload in its own process; a combined table at the end."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    names = list(next(iter(results.values()))["metrics"]) if results else []
    print(f"\n{'metric':32s}" + "".join(f"{n:>18s}" for n in results))
    for metric in names:
        cells = "".join(f"{r['metrics'][metric]['value']:>18.6g}" for r in results.values())
        unit = next(iter(results.values()))["metrics"][metric]["unit"]
        print(f"{metric:32s}{cells}  {unit}")
    print(
        json.dumps(
            {
                "correct": status == 0 and all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "workloads": results,
            }
        )
    )
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/molcontrast", "tests/molgen.py") if not (ROOT / p).exists()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
