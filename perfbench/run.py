"""Seeded benchmark for icuxai.

Run one workload in this process (the last output line is one JSON
result object)::

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 30 --trace 0

``--trace 1`` reports the per-layer figures instead of the end-to-end
ones and writes the spans to ``perfbench/out/``. Without ``--workload``
(or with ``--workload all``) every workload runs twice, untraced and
traced, each in a fresh process, and a summary is written to
``perfbench/out/summary.json``.

The program under test is the ``icuxai`` package in ``src/`` of the
checkout this file lives in; the benchmark builds its inputs from the
seed and hands the package nothing else.
"""

from __future__ import annotations

import os

# pin BLAS threading before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("desk-train", "desk-explain", "paper-pipeline")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package() -> None:
    """Put the checkout's ``src`` first on the path, or exit 2."""
    if not (SRC / "icuxai" / "__init__.py").is_file():
        print(f"error: the icuxai sources are not in {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import icuxai
    if Path(icuxai.__file__).resolve().parent != (SRC / "icuxai").resolve():
        print(f"error: imported icuxai from {icuxai.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def _report(name: str, args, result: dict) -> None:
    """Human-readable lines: every metric with its unit and sample count."""
    print(f"workload {name} seed {args.seed} trace {args.trace}: "
          f"{result['rounds']} rounds in {result['measured_s']:.1f} s")
    for metric, (value, unit, n) in result["metrics"].items():
        print(f"  {metric:<40} {value:>14.6g} {unit:<6} n={n}")
    failed_fraction = result["failed"] / result["attempted"]
    print(f"  {'failed_fraction':<40} {failed_fraction:>14.6g} {'1':<6} "
          f"n={result['attempted']}")
    for check, ok, detail in result["checks"]:
        print(f"  check {'PASS' if ok else 'FAIL'} {check}: {detail}")
    print(f"digest {result['digest']}")
    if result["traced_digest"] is not None:
        print(f"traced-digest {result['traced_digest']}")


def run_one(args) -> int:
    import machine
    import workloads

    OUT.mkdir(exist_ok=True)
    desc = machine.describe()
    (OUT / "machine.json").write_text(json.dumps(desc, indent=2) + "\n")
    print("machine " + json.dumps(desc, sort_keys=True))
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        try:
            result = workloads.execute(args.workload, args.seed, args.seconds,
                                       bool(args.trace), Path(work))
        except Exception:
            traceback.print_exc()
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}))
            return 1
    if result["tracers"]:
        from tracing import write_spans
        path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        write_spans(path, result["tracers"])
        print(f"spans written to {path.relative_to(ROOT)}")
    _report(args.workload, args, result)
    correct = result["failed"] == 0 and all(ok for _, ok, _ in result["checks"])
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in result["metrics"].items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    summary, status = {}, 0
    for name in NAMES:
        entry = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            entry[trace] = {"result": json.loads(lines[-1]), **{
                key.replace("-", "_"): next((ln.split()[1] for ln in lines
                                             if ln.startswith(key + " ")), None)
                for key in ("digest", "traced-digest")}}
            if not entry[trace]["result"]["correct"]:
                status = 1
        if 0 in entry and 1 in entry:
            # a traced round of one process against an untraced round of
            # the other: tracing and a fresh process both change nothing
            same = entry[0]["digest"] == entry[1]["traced_digest"]
            print(f"{name}: untraced round and the other process's traced round "
                  f"{'byte-identical' if same else 'DIFFER'}")
            status |= 0 if same else 1
        summary[name] = {str(k): v for k, v in entry.items()}
    (OUT / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps({"ok": status == 0, "workloads": list(summary)}))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    _import_package()
    if args.workload == "all":
        OUT.mkdir(exist_ok=True)
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
