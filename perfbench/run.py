"""Benchmark command: one workload, one process, one result line.

    python3 perfbench/run.py --workload {warm_start,dual_rl,transfer} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  BLAS is pinned to one thread before numpy
loads.  The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it give the run's provenance and every metric under the
workload's own name.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNTIME_DIR = ROOT / ".perfbench"


def _import_program():
    """Import ``dualstyle`` from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    try:
        import dualstyle
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import dualstyle from {SRC}: {exc}")
    if Path(dualstyle.__file__).resolve().parent != SRC / "dualstyle":
        raise SystemExit(f"perfbench: dualstyle resolved to {dualstyle.__file__}, "
                         f"not to {SRC}")


def _git_sha() -> str | None:
    """HEAD of this checkout, or None outside a git checkout."""
    if not (ROOT / ".git").exists():  # never report an enclosing repository
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dualstyle").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _blas_threads(np) -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs_dir.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(args, scale, cfg) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "scale": dataclasses.asdict(scale),
        "config": {key: cfg[key] for key in (
            "pretrain_batch", "dual_batch", "sample_size", "cls_epochs", "max_decode_len",
            "dual_lr", "anneal_gap", "ablation")},
    }


def end_to_end(result, setup_s: float, peak_rss_mb: float) -> dict:
    """The metrics every workload reports, under the names in BENCHMARK.json."""
    values = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "throughput": (result.rate, "items/s"),
        "clf_sent_per_s": (result.clf_sent_per_s, "sent/s"),
        "quality_main": (result.quality_main, "%"),
        "quality_aux": (result.quality_aux, "%"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    _import_program()
    from perfbench import tracer, workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    scale = workloads.Scale()
    cfg = workloads.config(args.seed, scale, RUNTIME_DIR / "work")
    print(json.dumps({"provenance": provenance(args, scale, cfg)}, sort_keys=True), flush=True)
    trace_path = RUNTIME_DIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    out = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), scale,
                        RUNTIME_DIR / "work", trace_path if args.trace else None)
    result, ledger = out["result"], out["ledger"]
    peak_rss_mb = out["memory"]["measure_peak_mb"]

    for problem in ledger.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    named = {
        "setup_s": (out["setup_s"], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failed_share": (ledger.failed / ledger.attempted, "ratio"),
        result.rate_name: (result.rate, result.rate_unit),
        "clf_sent_per_s": (result.clf_sent_per_s, "sent/s"),
        **result.guards,
    }
    for name, (value, unit) in named.items():
        print(f"{args.workload}.{name} = {value!r} {unit}")
    print(json.dumps({"units": out["units"], "counts": result.counts,
                      "memory": out["memory"]}, sort_keys=True))

    if args.trace:
        units = dict(tracer.PER_LAYER_METRICS)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in out["per_layer"].items()}
        print(f"perfbench: spans written to {trace_path}")
    else:
        metrics = end_to_end(result, out["setup_s"], peak_rss_mb)
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
