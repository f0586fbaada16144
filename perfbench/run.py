"""nefshrink benchmark: end-to-end timings, or a traced per-module breakdown.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sim_location --seed 1 --seconds 10 --trace 0

``--trace 0`` repeats the workload's CLI call for ``--seconds`` and reports
``wall_s`` (median round), ``peak_rss_mb`` and ``setup_s`` (median of three
fresh-interpreter imports of numpy and nefshrink, each plus generating the
inputs).  ``--trace 1`` alternates plain rounds with rounds in which every
public function of the six modules is wrapped, and reports per-layer call
counts, work counters and self-time shares, plus the tracing overhead.
Both modes check every output outside the timed region, rerun the
workload at the reference seed and compare it with
``perfbench/reference.json``.  The last line of standard output is one
JSON object; details, the environment stamp and (traced) the spans go to
``.bench_out/``.  ``--write-reference`` regenerates ``reference.json``
from the current program.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# serial runs: one BLAS thread, so the numbers measure the program, not the scheduler
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from tracing import COUNTERS, Patches, Tracer, install, program_modules  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import numpy, nefshrink.cli; print(time.perf_counter() - start)"
)
# layer self times must add up to the traced wall time within this share
COVERAGE_SHARE = 0.01

# the per-layer breakdown reported with --trace 1 (see BENCHMARK.json)
LAYERS = (
    "families.sample_matrix",
    "families.variance_function",
    "risk.ure",
    "risk.aure",
    "risk.squared_error_loss",
    "optimize.RowOrder.from_tau",
    "optimize.RowOrder.is_feasible",
    "optimize.isotonic_box_projection",
    "optimize.minimize_ure",
    "optimize.minimize_aure",
    "optimize.sample_feasible_weights",
    "estimators.shrink_to_location",
    "estimators.shrink_to_grand_mean",
    "estimators.minimize_true_loss",
    "harness.estimate_sup_gap",
    "harness.estimate_sup_gap_grand_mean",
    "harness.write_records_csv",
    "cli.loadtxt",
    "cli.savetxt",
)


def load_program() -> dict:
    """Import nefshrink from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "nefshrink" / "__init__.py").is_file():
        sys.exit(f"error: no nefshrink sources under {src}")
    sys.path.insert(0, str(src))
    modules = program_modules()
    if not Path(modules["cli"].__file__).resolve().is_relative_to(src):
        sys.exit("error: nefshrink was imported from outside this checkout")
    return modules


def import_seconds() -> float:
    """Time to import numpy and nefshrink in a fresh interpreter."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                           capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout)


def environment(seed: int) -> dict:
    import numpy as np

    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nefshrink").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "git_sha": git_sha(ROOT),
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def git_sha(root: Path):
    """HEAD of the checkout read from ``.git``; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload, program, inputs, seconds: float, after_round=None):
    """Repeat the timed call until ``seconds`` have passed (at least once);
    wall time, output digest (None on failure) and output of each round."""
    walls, digests, outputs = [], [], []
    begin = time.perf_counter()
    while True:
        gc.collect()
        start = time.perf_counter()
        try:
            rc, output = workload.run(program, inputs)
        except Exception:  # a crash is a failed round, not a crashed benchmark
            traceback.print_exc()
            rc, output = -1, None
        walls.append(time.perf_counter() - start)
        digests.append(workload.digest(inputs, output) if rc == 0 else None)
        outputs.append(output)
        if after_round is not None:
            after_round()
        if time.perf_counter() - begin >= seconds:
            return walls, digests, outputs


def check_rounds(workload, program, inputs, digests, output):
    """Failed operations over all rounds; every round must equal the checked one."""
    if output is None:
        return workload.ops_per_round * len(digests), ["the last timed round crashed"]
    verdict = workload.check(program, inputs, output)
    failed = 0
    for digest in digests:
        same = digest is not None and digest == verdict.digest
        failed += len(verdict.failures) if same else workload.ops_per_round
    reasons = list(verdict.failures.values())
    if any(d != verdict.digest for d in digests):
        reasons.append("a timed round's output differs from the checked output")
    return failed, reasons


def reference_pass(workload, program, workdir: Path, reference: dict):
    """Run once at the reference seed and compare with the stored outputs."""
    workdir.mkdir()
    inputs = workload.setup(REFERENCE_SEED, workdir)
    rc, output = workload.run(program, inputs)
    verdict = workload.check(program, inputs, output)
    failures = dict(verdict.failures)
    if rc != 0 or verdict.digest != workload.digest(inputs, output):
        failures = {op: "reference-seed run failed" for op in range(workload.ops_per_round)}
    below = 0
    if workload.name not in reference:
        failures = {op: "no stored reference" for op in range(workload.ops_per_round)}
    elif verdict.summary:
        mismatches, below = workload.compare(verdict.summary, reference[workload.name])
        for op, reason in mismatches.items():
            failures.setdefault(op, reason)
    return failures, below


def write_reference(program) -> int:
    """Store each workload's reference-seed outputs from the current program."""
    stored = {}
    workdir = OUT / f"reference-{os.getpid()}"
    try:
        for name, workload in WORKLOADS.items():
            sub = workdir / name
            sub.mkdir(parents=True)
            inputs = workload.setup(REFERENCE_SEED, sub)
            rc, output = workload.run(program, inputs)
            verdict = workload.check(program, inputs, output)
            if rc != 0 or verdict.failures:
                print(f"{name}: outputs fail their checks: "
                      f"{list(verdict.failures.values())[:3]}", file=sys.stderr)
                return 1
            stored[name] = {"seed": REFERENCE_SEED, **verdict.summary}
            print(f"{name}: reference recorded")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(stored, indent=1) + "\n")
    return 0


def traced_metrics(workload, program, inputs, seconds, stem):
    """Per-layer metrics from rounds that alternate plain and traced."""
    plain, traced, digests, rounds = [], [], [], []
    tracer = Tracer()
    begin = time.perf_counter()
    while True:
        walls, round_digests, outputs = measure(workload, program, inputs, 0)
        plain += walls
        digests += round_digests
        with Patches() as patches:
            install(tracer, patches, program)
            walls, round_digests, outputs = measure(
                workload, program, inputs, 0,
                after_round=lambda: rounds.append(dict(tracer.counts)))
        traced += walls
        digests += round_digests
        if time.perf_counter() - begin >= seconds:
            break
    tracer.write(stem.with_suffix(".spans.json"))
    first = rounds[0]
    repeat = all(
        {k: v - prev[k] for k, v in cur.items()} == first
        for prev, cur in zip(rounds, rounds[1:]))
    times = tracer.layer_times()
    traced_total = sum(traced)
    coverage = tracer.root_seconds() / traced_total
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (first[f"{layer}.calls"], "count")
        metrics[f"{layer}.self_pct"] = (100.0 * times[layer]["self_s"] / traced_total, "%")
        if layer in COUNTERS:
            key = f"{layer}.{COUNTERS[layer][0]}"
            metrics[key] = (first[key], "count")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    metrics["trace.coverage_pct"] = (100.0 * coverage, "%")
    notes = {
        "plain_walls_s": plain,
        "traced_walls_s": traced,
        "counts_repeat_every_round": repeat,
        "layers": {name: {**t, "calls": first[f"{name}.calls"]} for name, t in times.items()},
    }
    problems = []
    if not repeat:
        problems.append("per-layer counts differ between traced rounds")
    if abs(coverage - 1.0) > COVERAGE_SHARE:
        problems.append(f"layer self times cover {coverage:.2%} of the traced wall time")
    for name, t in sorted(times.items(), key=lambda kv: -kv[1]["self_s"]):
        if t["total_s"] > 0:
            print(f"  {name:40s} calls/round {first[f'{name}.calls']:8d}  "
                  f"self {100 * t['self_s'] / traced_total:6.2f}%  "
                  f"incl {100 * t['total_s'] / traced_total:6.2f}%")
    return metrics, notes, digests, outputs[-1], problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")

    program = load_program()
    OUT.mkdir(exist_ok=True)
    if args.write_reference:
        return write_reference(program)
    reference = json.loads(REFERENCE.read_text())

    workload = WORKLOADS[args.workload]
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            imported = import_seconds()
            start = time.perf_counter()
            inputs = workload.setup(args.seed, workdir)
            setups.append(imported + time.perf_counter() - start)
        setup_s = statistics.median(setups)
        problems, notes = [], {}
        if args.trace:
            metrics, notes, digests, output, problems = traced_metrics(
                workload, program, inputs, args.seconds, stem)
        else:
            walls, digests, outputs = measure(workload, program, inputs, args.seconds)
            output = outputs[-1]
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (statistics.median(walls), "s"),
                "peak_rss_mb": (peak_rss_mb, "MiB"),
            }
            notes = {"walls_s": walls, "setups_s": setups}
            if None not in outputs:
                notes.update(workload.details(outputs))
        failed, reasons = check_rounds(workload, program, inputs, digests, output)
        ref_failures, below = reference_pass(workload, program, workdir / "reference", reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = workload.ops_per_round * (len(digests) + 1)
    failed += len(ref_failures)
    reasons += list(ref_failures.values())
    correct = failed == 0 and not problems
    rounds = len(digests)
    print(f"workload {workload.name}: {rounds} rounds of {workload.ops_per_round} ops, "
          f"seed {args.seed}, trace {args.trace}")
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    if below:
        print(f"note: {below} minimized objectives below the reference (allowed)")
    for reason in (reasons + problems)[:10]:
        print(f"check: {reason}")
    env = environment(args.seed)
    print("env " + json.dumps(env))
    if not args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        for name, value in notes.items():
            if name.startswith("fit_"):
                print(f"{name} = {value:.6g} s (median call)")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stem.with_suffix(".json").write_text(json.dumps(
        {**result, "workload": workload.name, "why": workload.why, "env": env,
         "failed_frac": failed / attempted, "objectives_below_reference": below,
         "check_failures": (reasons + problems)[:100], **notes}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
