"""The perf ledger's one command.

Driver form (what ``BENCHMARK.json`` names; one workload, one run)::

    python3 benchmarks/perf/run.py --workload open_scripted --seed 5 \\
        --seconds 8 --trace 0

prints every metric by name with its unit, an ``# info`` line of raw
host-second figures, and as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exit code 1 if any output check failed.

Ledger form (all six workloads, each run in its own fresh interpreter so
peak RSS and cache state never leak between them)::

    python3 benchmarks/perf/run.py [--workloads a,b] [--seed 5] [--runs 5] \\
        [--seconds 8] [--out ledger.json]

runs every workload ``--runs`` times untraced (seeds ``seed``, ``seed+1``,
…; median and quartiles reported, every run kept) and once traced.

``--selfcheck`` runs all six workloads at tiny sizes, traced and
untraced, in this process, and validates what they emit against
``BENCHMARK.json``.
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
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# The program under test is imported from the checkout this file sits in.
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def _work_dir() -> Path:
    path = ROOT / ".perf_work" / f"run-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _drop_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass  # another run is using it


def _print_metrics(result) -> None:
    from layers import METRICS

    bases = {metric.name: metric.base for metric in METRICS}
    for name, entry in result.metrics.items():
        base = bases.get(name)
        suffix = f"   [{base}]" if base else ""
        print(f"{name:<46} {entry['value']:>16.6f} {entry['unit']}{suffix}")


def run_one(name: str, seed: int, seconds: float, trace: bool,
            trace_out=None, tiny: bool = False):
    """One run of one workload in this process."""
    try:
        from harness import measure
        from workloads import WORKLOADS
    except ModuleNotFoundError as error:
        raise SystemExit(
            f"cannot import the program under test from {ROOT / 'src'}: {error}"
        )
    if name not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}"
        )
    work = _work_dir()
    try:
        workload = WORKLOADS[name](work, tiny=tiny)
        handle = open(trace_out, "w", encoding="utf-8") if trace_out else None
        try:
            return measure(workload, seed, seconds, trace, handle)
        finally:
            if handle is not None:
                handle.close()
    finally:
        _drop_work_dir(work)


def driver_main(args) -> int:
    result = run_one(
        args.workload, args.seed, args.seconds, bool(args.trace),
        trace_out=args.trace_out,
    )
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {'on' if args.trace else 'off'}")
    _print_metrics(result)
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    print("# info " + json.dumps(result.info))
    print(result.last_line())
    return 0 if result.correct else 1


# ----------------------------------------------------------------------
# Ledger form
# ----------------------------------------------------------------------

def _child(name: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if not lines:
        raise SystemExit(
            f"{name} seed {seed} printed nothing (exit {done.returncode}):\n"
            f"{done.stderr}"
        )
    payload = json.loads(lines[-1])
    payload["exit"] = done.returncode
    payload["host_s"] = time.perf_counter() - started
    payload["seed"] = seed
    for line in lines:
        if line.startswith("# info "):
            payload["info"] = json.loads(line[len("# info "):])
        if line.startswith("CHECK FAILED"):
            payload.setdefault("problems", []).append(line)
    return payload


def spread(values) -> dict:
    """Median, quartiles and (Q3 - Q1) / median of a metric's runs."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "runs": list(values),
    }


def ledger_main(args) -> int:
    from workloads import current_revision

    contract = load_contract()
    declared = [entry["name"] for entry in contract["workloads"]]
    names = args.workloads.split(",") if args.workloads else declared
    ledger = {
        "git_sha": current_revision(ROOT), "seed": args.seed, "runs": args.runs,
        "seconds": args.seconds, "workloads": {},
    }
    ok = True
    for name in names:
        runs = [
            _child(name, args.seed + i, args.seconds, 0)
            for i in range(args.runs)
        ]
        traced = _child(name, args.seed, args.seconds, 1)
        ok = ok and traced["exit"] == 0 and all(r["exit"] == 0 for r in runs)
        end_to_end = {
            metric["name"]: dict(
                spread([r["metrics"][metric["name"]]["value"] for r in runs]),
                unit=metric["unit"], bound=metric["bound"],
            )
            for metric in contract["end_to_end"]
        }
        info = runs[0].get("info", {})
        ledger["workloads"][name] = {
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "top_layers": traced.get("info", {}).get("top_layers", []),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "failed_share": sum(r["failed"] for r in runs)
            / sum(r["attempted"] for r in runs),
            "sim_digests": [r.get("info", {}).get("sim_digest") for r in runs],
            "raw_queries_per_s": [
                r.get("info", {}).get("raw_queries_per_s") for r in runs
            ],
            "run_host_s": [round(r["host_s"], 2) for r in runs],
            "problems": [p for r in runs + [traced] for p in r.get("problems", [])],
        }
        ledger.setdefault("machine", {
            key: info.get(key) for key in ("nproc", "python", "numpy")
        })
        print(f"\n== {name}")
        for metric, row in end_to_end.items():
            print(
                f"  {metric:<18} {row['median']:>12.4f} {row['unit']:<4} "
                f"[{row['q1']:.4f} .. {row['q3']:.4f}]  spread "
                f"{100 * row['spread']:.1f}% of bound {100 * row['bound']:.0f}%"
            )
        for layer, share in ledger["workloads"][name]["top_layers"]:
            print(f"  top layer {layer:<40} {100 * share:5.1f}% of traced wall")
        for problem in ledger["workloads"][name]["problems"]:
            print("  " + problem)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(ledger, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print("\nPASS" if ok else "\nFAIL")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# Self-check
# ----------------------------------------------------------------------

def selfcheck_main(args) -> int:
    import layers

    contract = load_contract()
    failures = []

    def expect(condition, text):
        if not condition:
            failures.append(text)

    for section in ("end_to_end", "per_layer"):
        for metric in contract[section]:
            expect(NAME_PATTERN.match(metric["name"]),
                   f"{section} name {metric['name']!r} is malformed")
            expect(metric.get("unit"), f"{metric['name']} has no unit")
            expect(metric.get("better") in ("lower", "higher"),
                   f"{metric['name']} has no direction")
            if section == "end_to_end":
                expect(0 < metric.get("bound", 0) <= 0.25,
                       f"{metric['name']} has no bound in (0, 0.25]")
    declared_layers = {m["name"]: m for m in contract["per_layer"]}
    expect(
        list(declared_layers) == [m.name for m in layers.METRICS],
        "BENCHMARK.json per_layer differs from layers.METRICS",
    )
    for metric in layers.METRICS:
        declared = declared_layers.get(metric.name, {})
        expect(
            (declared.get("unit"), declared.get("better"))
            == (metric.unit, metric.better),
            f"{metric.name}: unit/direction differ from layers.METRICS",
        )

    originals = {}
    for target in layers.TARGETS:
        module = __import__(target.module, fromlist=["_"])
        holder = module
        for part in target.qualname.split(".")[:-1]:
            holder = getattr(holder, part)
        leaf = target.qualname.split(".")[-1]
        originals[(target.module, target.qualname)] = (
            holder, leaf, vars(holder).get(leaf, None)
        )

    started = time.perf_counter()
    for entry in contract["workloads"]:
        name = entry["name"]
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run_one(name, args.seed, 1.0, trace, tiny=True)
            expect(result.correct,
                   f"{name} trace={int(trace)}: {result.problems}")
            expect(
                set(result.metrics) == {m["name"] for m in contract[section]},
                f"{name} trace={int(trace)}: emitted metrics differ from "
                f"BENCHMARK.json {section}",
            )
            for metric in contract[section]:
                got = result.metrics.get(metric["name"], {})
                expect(got.get("unit") == metric["unit"],
                       f"{name}: {metric['name']} unit {got.get('unit')!r}")
                if section == "end_to_end":
                    expect(got.get("value", 0) > 0,
                           f"{name}: {metric['name']} is not positive")
            if trace:
                expect(
                    result.metrics["trace.unresolved_targets_n"]["value"] == 0,
                    f"{name}: span targets no longer resolve",
                )
            print(f"selfcheck {name:<14} trace={int(trace)} "
                  f"{'ok' if result.correct else 'FAILED'}")
    # The tracing-off runs must see the unwrapped program: every wrapped
    # attribute is again the very object it was before any tracing.
    for (module, qualname), (holder, leaf, before) in originals.items():
        expect(vars(holder).get(leaf, None) is before,
               f"{module}:{qualname} is not its original after tracing")

    print(f"selfcheck took {time.perf_counter() - started:.1f}s")
    for failure in failures:
        print("SELFCHECK FAILED: " + failure)
    print("PASS" if not failures else "FAIL")
    return 0 if not failures else 1


def _pin_hash_seed() -> None:
    """Re-execute once with ``PYTHONHASHSEED=0``.

    String hashing is salted per interpreter, so dict and set layouts -
    and with them a few per cent of host time - differ from process to
    process: ten runs of one seed spread 5.8 % unpinned and 2.7 % pinned
    on ``matrix_serial``. The program's outputs do not depend on the salt
    (its determinism contract); only the stopwatch does.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="run this one workload (driver form)")
    parser.add_argument("--workloads", help="ledger form: comma-separated subset")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=5,
                        help="ledger form: untraced runs per workload")
    parser.add_argument("--out", help="ledger form: write the ledger JSON here")
    parser.add_argument("--trace-out", dest="trace_out",
                        help="driver form, --trace 1: write spans as JSON lines")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_contract()["run_seconds"])
    if args.selfcheck:
        return selfcheck_main(args)
    if args.workload:
        return driver_main(args)
    return ledger_main(args)


if __name__ == "__main__":
    _pin_hash_seed()
    sys.exit(main())
