"""kplab benchmark: seeded experiment workloads run through ``kplab.cli``.

Usage, from the repository root:

    python3 bench/run.py --workload maximal|simplex|corpus|all \\
        [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics from a traced run.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--workload all`` each workload runs in its own process and a table of every
metric is printed instead.  See bench/README.md.
"""

from __future__ import annotations

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
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import reference
import tracer as tracer_mod
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BENCH_DIR = Path(__file__).resolve().parent

SETUP_SAMPLES = 16  # fresh interpreters per untraced run, spread over the run
# Timings are given in reference seconds: seconds on a host where one
# `reference.unit()` takes REF_SECONDS.  Each sample is divided by the time of
# a reference unit run right after it, because the host's speed drifts by up
# to 2x over minutes and the two drift together (see README.md).
REF_SECONDS = 0.1
REF_TOTAL = Fraction(418967, 60)  # what reference.unit() returns
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import kplab
from kplab.cli import parse_spec
for path in sys.argv[2:]:
    with open(path) as fh:
        parse_spec(fh.read())
print(time.perf_counter() - t0)
"""


def load_kplab():
    """Import kplab from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import kplab
        import kplab.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import kplab from {SRC}: {exc}")
    if SRC.resolve() not in Path(kplab.__file__).resolve().parents:
        sys.exit(f"bench: imported kplab from {kplab.__file__}, not from {SRC}")
    return kplab


def measure_setup(spec_paths, count: int) -> list:
    """Seconds each of `count` fresh interpreters takes to import kplab and
    parse the workload's spec files."""
    samples = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), *map(str, spec_paths)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def time_reference() -> float:
    """Seconds one reference unit takes now."""
    t0 = perf_counter()
    total = reference.unit()
    seconds = perf_counter() - t0
    if total != REF_TOTAL:
        sys.exit(f"bench: reference unit returned {total}, expected {REF_TOTAL}")
    return seconds


def run_pass(cli, specs, tracer=None):
    """One pass: every spec through ``kplab.cli.main`` as ``kplab run`` does,
    in the current directory, which holds the spec files.

    Returns (seconds, {spec name: (exit code, sha256 of the JSON rows,
    the JSON rows as bytes)}).
    """
    wall = 0.0
    codes = {}
    for spec in specs:
        span = tracer.open("spec", spec=spec.name) if tracer else None
        t0 = perf_counter()
        try:
            code = cli.main(["run", f"{spec.name}.spec"])
        except SystemExit as exc:
            code = exc.code
        wall += perf_counter() - t0
        if span is not None:
            tracer.close(span)
        codes[spec.name] = code
    out = {}
    for spec in specs:
        path = Path(f"{spec.name}.json")
        data = path.read_bytes() if path.exists() else b""
        out[spec.name] = (codes[spec.name], hashlib.sha256(data).hexdigest() if data else None, data)
        if data:
            path.unlink()
    return wall, out


def selftest(kplab) -> list:
    """The tracer must see calls made through `from .x import f` copies:
    incidence_count on the degenerate (4,2,1) configuration over GF(3) has 3
    points < 3^2, so it probes each of the 13 flats with membership once per
    point: 1 incidence_count call and 39 membership calls inside it."""
    cfg = kplab.gen_degenerate(4, 2, 1, kplab.Field(3))
    tracer = tracer_mod.Tracer(kplab)
    tracer.install()
    try:
        index = kplab.incidence_count(cfg)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    inside = sum(s.leaf.get("flats.membership", (0,))[0] for s in tracer.spans
                 if s.name == "incidence.incidence_count")
    got = (
        m.get("incidence.incidence_count.calls"),
        m.get("incidence.incidence_count.probe.calls"),
        m.get("flats.membership.calls"),
        inside,
        index.total,
    )
    problems = []
    if got != (1, 1, 39, 39, 39):
        problems.append(
            "tracer self-test: (incidence_count calls, probe calls, membership calls, "
            f"membership calls inside incidence_count, |I|) = {got}, expected (1, 1, 39, 39, 39)"
        )
    left = [
        f"{name}.{attr}"
        for name, mod in sys.modules.items() if name == "kplab" or name.startswith("kplab.")
        for attr, obj in vars(mod).items() if "Tracer." in getattr(obj, "__qualname__", "")
    ]
    if left:
        problems.append(f"tracer self-test: uninstall left wrappers bound at {left}")
    return problems


@dataclass
class Measurements:
    walls: list = field(default_factory=list)
    pass_refs: list = field(default_factory=list)  # reference unit after each untraced pass
    setup_refs: list = field(default_factory=list)  # reference unit after each set-up sample
    traced_walls: list = field(default_factory=list)
    layer_samples: list = field(default_factory=list)
    passes: list = field(default_factory=list)
    setup_samples: list = field(default_factory=list)


def measure(kplab, specs, spec_paths, seconds: float, trace_path=None) -> Measurements:
    """Repeat passes until one more would overrun `seconds`; at least one.

    Untraced: a reference unit is timed after every pass and after every
    set-up sample.  SETUP_SAMPLES set-up samples are taken between passes,
    evenly over the run, so set-up and passes see the same machine.  Traced (a
    `trace_path` is given): each untraced pass is followed by a traced one
    over the same specs, and the spans of the last traced pass are written to
    `trace_path`.
    """
    got = Measurements()
    trace = trace_path is not None
    tracer = tracer_mod.Tracer(kplab) if trace else None
    if not trace:
        measure_setup(spec_paths, 1)  # warm-up: compiles the bytecode
        time_reference()
    start = perf_counter()
    while True:
        due = (perf_counter() - start) * SETUP_SAMPLES / seconds
        if not trace and len(got.setup_samples) <= due:
            got.setup_samples += measure_setup(spec_paths, 1)
            got.setup_refs.append(time_reference())
        gc.collect()
        wall, outcome = run_pass(kplab.cli, specs)
        got.walls.append(wall)
        got.passes.append(outcome)
        if not trace:
            got.pass_refs.append(time_reference())
        per_iteration = statistics.median(got.walls)
        if tracer is not None:
            gc.collect()
            tracer.reset()
            tracer.install()
            try:
                wall, outcome = run_pass(kplab.cli, specs, tracer)
            finally:
                tracer.uninstall()
            got.traced_walls.append(wall)
            got.passes.append(outcome)
            got.layer_samples.append(tracer.metrics())
            per_iteration += statistics.median(got.traced_walls)
        else:
            per_iteration += statistics.median(got.pass_refs)
        if perf_counter() - start + per_iteration > seconds:
            break
    if tracer is not None:
        tracer.dump(trace_path)
    return got


def reference_seconds(samples, refs) -> float:
    """Median of each sample divided by the reference unit timed after it,
    in reference seconds."""
    return statistics.median(s / r for s, r in zip(samples, refs)) * REF_SECONDS


def verify(workload, specs, passes, golden):
    """Every spec run must exit 0 and reproduce the reference digest: the
    golden one on the default seed, else the first pass's, so every later
    pass, traced or not, must agree with it.  The rows of the first pass go
    through the workload's output checks.

    Returns (attempted, failed, digests, rows per pass, problems).
    """
    attempted = failed = rows_per_pass = 0
    digests = {}
    problems = []
    for spec in specs:
        _, first_digest, data = passes[0][spec.name]
        reference = golden.get(spec.name) or first_digest
        digests[spec.name] = first_digest
        for outcome in passes:
            code, digest, _ = outcome[spec.name]
            attempted += 1
            if code != 0 or digest != reference:
                failed += 1
        if first_digest != reference:
            problems.append(f"{spec.name}: digest {first_digest} differs from golden {reference}")
        rows = json.loads(data) if data else []
        rows_per_pass += len(rows)
        problems += workloads.check_rows(spec, rows)
    sides = {s.side for s in specs if s.side}
    if workload == "corpus" and sides != {"enum", "probe"}:
        problems.append(f"corpus: incidence_count sides reached {sorted(sides)}, need enum and probe")
    return attempted, failed, digests, rows_per_pass, problems


def source_digest() -> str:
    """SHA-256 of src/kplab, which identifies the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "kplab").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(args, bench) -> int:
    kplab = load_kplab()
    specs = workloads.make_specs(args.workload, args.seed)
    default_seed = args.seed == workloads.DEFAULT_SEED
    golden = {}
    if default_seed:
        with open(BENCH_DIR / "golden.json") as fh:
            golden = json.load(fh)[args.workload]
        if set(golden) != {s.name for s in specs}:
            sys.exit(f"bench: golden.json does not cover the {args.workload} specs")

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    spec_paths = [workdir / f"{spec.name}.spec" for spec in specs]
    for spec, path in zip(specs, spec_paths):
        path.write_text(spec.text)
    problems = selftest(kplab) if args.trace else []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        trace_path = WORK / f"trace-{args.workload}-{args.seed}.json" if args.trace else None
        got = measure(kplab, specs, spec_paths, args.seconds, trace_path)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, digests, rows_per_pass, found = verify(
        args.workload, specs, got.passes, golden
    )
    problems += found
    if args.trace:
        metrics = {
            name: statistics.median(m.get(name, 0) for m in got.layer_samples)
            for name in bench["per_layer"] if name != "trace.overhead"
        }
        metrics["trace.overhead"] = statistics.median(got.traced_walls) / statistics.median(got.walls)
        if args.workload == "corpus":
            for side in ("enum", "probe"):
                if not all(m.get(f"incidence.incidence_count.{side}.calls") for m in got.layer_samples):
                    problems.append(f"corpus: a traced pass never took the {side} side of incidence_count")
    else:
        wall = reference_seconds(got.walls, got.pass_refs)
        metrics = {
            "wall_s": wall,
            "rows_per_s": rows_per_pass / wall,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": reference_seconds(got.setup_samples, got.setup_refs),
        }

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "kplab_source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "specs": {s.name: s.text for s in specs},
        "ref_seconds": REF_SECONDS,
        "pass_wall_median_s": statistics.median(got.walls),
        "pass_walls_s": got.walls,
        "pass_reference_units_s": got.pass_refs,
        "setup_reference_units_s": got.setup_refs,
        "traced_pass_walls_s": got.traced_walls,
        "setup_samples_s": got.setup_samples,
        "rows_per_pass": rows_per_pass,
        "digests": digests,
        "golden": bool(golden),
        "fail_frac": failed / attempted,
        "problems": problems,
    }
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": bench["units"][name]} for name, v in metrics.items()},
    }
    result_path = WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps({"stamp": stamp, "result": result}, indent=2) + "\n")

    for problem in problems:
        print(f"bench: FAIL {problem}", file=sys.stderr)
    for name, digest in digests.items():
        print(f"digest {args.workload} seed={args.seed} {name} {digest}")
    print(f"fail_frac {stamp['fail_frac']} (failed {failed} of {attempted} spec runs)")
    if not args.trace:
        print(f"unscaled: median pass {stamp['pass_wall_median_s']:.4f} s over {len(got.walls)} passes, "
              f"median reference unit {statistics.median(got.pass_refs):.4f} s")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, bench) -> int:
    """Each workload in its own process; prints every metric with its unit."""
    status = 0
    for workload in bench["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        unscaled = [line for line in lines if line.startswith("unscaled: ")]
        if proc.returncode not in (0, 1) or not lines:
            print(f"{workload}: exited {proc.returncode} without a result")
            status = 1
            continue
        result = json.loads(lines[-1])
        fail_frac = result["failed"] / result["attempted"]
        print(f"{workload}: correct={result['correct']} fail_frac={fail_frac:.4f} "
              f"({result['failed']} of {result['attempted']} spec runs)")
        for name, metric in result["metrics"].items():
            print(f"  {name:48s} {metric['value']:>14.6g} {metric['unit']}")
        for line in unscaled:
            print(f"  {line}")
        status |= 0 if result["correct"] else 1
    return status


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    bench = {
        "workloads": [w["name"] for w in declared["workloads"]],
        "per_layer": [m["name"] for m in declared["per_layer"]],
        "units": {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]},
    }
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=bench["workloads"] + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    WORK.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args, bench)
    return run_workload(args, bench)


if __name__ == "__main__":
    sys.exit(main())
