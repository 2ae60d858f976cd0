"""Spec-to-bytes benchmark: one workload, one run, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload tiled_homog --seed 1 --seconds 16 \\
        --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports the per-layer metrics.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a human-readable account of the run.  Exits non-zero,
without a result line, when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("tiled_homog", "inhomo_plates", "store_verify", "serve_small")

NOT_MEASURED = (
    "not measured: repro.dist and the thread/process backends (their "
    "worker processes break the one-process load rule, and this host's "
    "usable cores cannot test scaling)"
)


def _import_program() -> Optional[str]:
    """Put ``src/`` first on the path and import ``repro`` from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"program source not found at {SRC}"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    try:
        import repro
    except ImportError as exc:
        return f"cannot import repro: {exc!r}"
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        return f"imported repro from {repro.__file__}, not {SRC}"
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_rev() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; src_sha256 names the code
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _src_digest() -> str:
    """SHA-256 over the program's sources; names the code without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(args: argparse.Namespace) -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    problem = _import_program()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    from perfbench import measure, workloads

    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "serve_small":
            result = measure.run_serve(args.seed, args.seconds,
                                       bool(args.trace), scratch)
        else:
            result = measure.run_generation(
                workloads.GENERATION[args.workload], args.seed,
                args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    print("fingerprint: " + json.dumps(fingerprint(args), sort_keys=True))
    print(NOT_MEASURED)
    for note in result.notes:
        print(note)
    fail_frac = result.failed / result.attempted if result.attempted else 1.0
    print(f"fail_frac = {fail_frac:g} ({result.failed} of "
          f"{result.attempted} operations)")
    for error in result.errors:
        print(f"FAILED CHECK: {error}")
    for name, (value, unit) in result.metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not result.errors and result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
