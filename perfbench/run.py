"""speiserlab benchmark: one workload per process, checked and timed.

Run from the repository root:

    python3 perfbench/run.py --workload construct-gamma --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``theorem1-default``, ``construct-gamma``
and ``packing-fat``.  Each is a closed loop with one caller, in this single
process, with ``SPEISER_LAB_THREADS`` unset (one library thread) and the
BLAS/OpenMP pools set to one thread: on a 2-core machine a two-thread BLAS
pool roughly doubled the run-to-run spread of ``theorem1-default`` (its
small VEL solves) without changing the median.  Passes over
the workload's operations repeat until ``--seconds`` have elapsed (at least
one pass).

``--trace 0`` prints the end-to-end metrics:

* ``wall_s``: median over passes of the time spent in the workload's
  operations (output checks excluded);
* ``setup_s``: median over ``SETUP_PROBES`` fresh interpreters of the time
  from process start until the benchmark, speiserlab, numpy and scipy are
  imported, i.e. until the first timed call could start (the workloads'
  inputs are a few parameters; graphs are built inside timed operations);
* ``peak_rss_mb``: peak resident memory of this process.

``error_rate`` (failed / attempted operations) and ``unconverged`` (VEL
estimates flagged ``converged=False``) are printed above the result line;
they are not metrics of the result line because they are 0 on some
workloads.  An operation fails when it raises, exits non-zero or fails the
output check.

``--trace 1`` alternates untraced passes with passes under the span
wrappers of ``spans.py``, at least two of each.  It prints per-layer self
times and work counts (medians over traced passes; counts must repeat
exactly in every traced pass, or the run is not correct), plus
``bench.overhead_s`` (median traced minus median untraced pass wall) and
``bench.unattributed.s`` (time inside operations but outside every traced
function).  In every traced pass the self times of the traced functions
plus the unattributed time add up to the pass's wall time; the per-pass
figures are in the result file.  Spans go to ``.perfbench_out/trace-*.json``.

The seed feeds ``Theorem1Config.seed`` (which ``run_theorem1`` does not use
yet, so ``theorem1-default`` does not depend on it) and the Monte Carlo
inputs of ``check_hs``; ``construct-gamma`` has no random input.

Every result also prints, and writes to ``.perfbench_out/result-*.json``, a
record of the run environment (source digest, git commit when available,
CPU count, Python/numpy/scipy versions, BLAS, and the thread settings as
found and as used).

``--record-reference`` runs one pass and stores its observations as the
workload's reference values in ``reference.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 9
MIN_TRACED_PASSES = 2
MAX_PRINTED_FAILURES = 20
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("theorem1-default", "construct-gamma", "packing-fat")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for f in sorted((src / "speiserlab").rglob("*.py")):
        h.update(f.relative_to(src).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def env_record(root: Path, src: Path, found: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = None
    return {
        "commit": git_commit(root),
        "source_sha256": source_digest(src),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env_found": found,
        "thread_env_used": {k: os.environ.get(k) for k in (*THREAD_VARS, "SPEISER_LAB_THREADS")},
    }


def measure_setup(args, count: int) -> list[float]:
    """Wall times of fresh interpreters that import everything, then exit."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-probe",
    ]
    samples = []
    for _ in range(count):
        # no timeout: a timed wait polls in steps of up to 50 ms, which would
        # quantize the samples; a blocking wait returns when the child exits
        t0 = perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        samples.append(perf_counter() - t0)
    return samples


def relative_spans(spans_: list) -> list:
    """Spans with times in seconds from the first span's start."""
    t0 = spans_[0][1]
    return [[name, start - t0, end - t0, parent] for name, start, end, parent in spans_]


def run_pass(workloads, args, out_dir, reference, tracer=None):
    p = workloads.Pass(args.workload, args.seed, out_dir, reference, tracer)
    workloads.WORKLOADS[args.workload](p)
    return p


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "speiserlab" / "__init__.py").is_file():
        print(f"perfbench: no speiserlab sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    found = {k: os.environ.get(k) for k in (*THREAD_VARS, "SPEISER_LAB_THREADS")}
    os.environ.pop("SPEISER_LAB_THREADS", None)
    os.environ.update({k: "1" for k in THREAD_VARS})
    sys.path.insert(0, str(src))

    if args.setup_probe:
        import workloads  # noqa: F401  (imports speiserlab, numpy and scipy)

        return 0

    # probes before and after the passes sample two stretches of machine load
    probe = not (args.record_reference or args.trace)
    setup = measure_setup(args, SETUP_PROBES // 2) if probe else []
    import speiserlab
    import workloads

    if Path(speiserlab.__file__).resolve().parent != (src / "speiserlab").resolve():
        print(f"perfbench: imported {speiserlab.__file__}, not {src}", file=sys.stderr)
        return 2
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)

    if args.record_reference:
        p = run_pass(workloads, args, out_dir, None)
        if p.failures:
            print("\n".join(p.failures), file=sys.stderr)
            return 1
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        refs[args.workload] = p.observed
        REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        return 0

    reference = json.loads(REFERENCE.read_text())[args.workload]
    t_start = perf_counter()
    passes = []
    traced = []  # (pass, tracer) pairs
    if args.trace:
        # untraced and traced passes alternate, so the overhead estimate
        # compares passes run under similar machine load
        while len(traced) < MIN_TRACED_PASSES or perf_counter() - t_start < args.seconds:
            passes.append(run_pass(workloads, args, out_dir, reference))
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced.append((run_pass(workloads, args, out_dir, reference, tracer), tracer))
            finally:
                tracer.uninstall()
    else:
        while not passes or perf_counter() - t_start < args.seconds:
            passes.append(run_pass(workloads, args, out_dir, reference))
    if probe:
        setup += measure_setup(args, SETUP_PROBES - SETUP_PROBES // 2)

    all_passes = passes + [p for p, _ in traced]
    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    failures = [f for p in all_passes for f in p.failures]
    consistency = []
    shas = {p.report_sha256 for p in all_passes}
    if len(shas) > 1:
        consistency.append(f"report sha256 differs between passes: {sorted(map(str, shas))}")
    unconverged = max(p.unconverged for p in all_passes)

    if args.trace:
        metrics, detail = layer_metrics(traced, passes, consistency)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(p.wall_s for p in passes), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
        detail = {"setup_samples_s": setup}
    detail["op_s"] = [p.op_s for p in all_passes]

    error_rate = failed / attempted
    env = env_record(root, src, found)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(all_passes),
        "error_rate": error_rate,
        "unconverged": unconverged,
        "report_sha256": next(iter(shas)) if len(shas) == 1 else None,
        "failures": failures + consistency,
        "metrics": metrics,
        "detail": detail,
        "env": env,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        (out_dir / f"trace-{tag}.json").write_text(json.dumps({
            "fields": ["name", "start_s", "end_s", "parent"],
            "passes": [relative_spans(t.spans) for _, t in traced],
        }))

    problems = failures + consistency
    for f in problems[:MAX_PRINTED_FAILURES]:
        print(f"FAILED {f}")
    if len(problems) > MAX_PRINTED_FAILURES:
        print(f"FAILED ... {len(problems) - MAX_PRINTED_FAILURES} more in {OUT_DIR}/result-{tag}.json")
    print(f"workload {args.workload} seed {args.seed} passes {len(all_passes)} "
          f"operations {attempted}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {error_rate:.6g} ratio")
    print(f"unconverged {unconverged} count")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def layer_metrics(traced, untraced, consistency):
    """Per-layer metrics: medians of self times over traced passes, exact counts."""
    per_pass = [t.summary() for _, t in traced]
    names = [spans.span_name(m, a) for m, a, _ in spans.TARGETS]
    metrics = {}

    def med(f):
        return statistics.median(f(d) for d in per_pass)

    for name in names:
        metrics[f"{name}.s"] = {"value": med(lambda d: d["self_s"].get(name, 0.0)), "unit": "s"}
    metrics["vel.solve_vel.calls"] = {
        "value": med(lambda d: d["calls"].get("vel.solve_vel", 0)), "unit": "count"}
    metrics["graph_core.from_walks.calls"] = {
        "value": med(lambda d: d["calls"].get("graph_core.from_walks", 0)), "unit": "count"}
    for name in spans.COUNTS:
        seen = {d["counts"].get(name, 0) for d in per_pass}
        if len(seen) != 1:
            consistency.append(f"{name} differs between traced passes: {sorted(seen)}")
        metrics[name] = {"value": max(seen), "unit": "count"}
    attempted = per_pass[0]["counts"].get("vel.attempted", 0)
    converged = per_pass[0]["counts"].get("vel.converged", 0)
    gaps = per_pass[0]["values"].get("vel.rel_gap", [])
    # no VEL solve ran: nothing unconverged, no gap
    metrics["vel.converged_share"] = {
        "value": converged / attempted if attempted else 1.0, "unit": "ratio"}
    metrics["vel.max_rel_gap"] = {"value": max(gaps, default=0.0), "unit": "ratio"}

    traced_wall = statistics.median(p.wall_s for p, _ in traced)
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    metrics["bench.unattributed.s"] = {
        "value": med(lambda d: d["self_s"].get(spans.OP, 0.0)), "unit": "s"}
    metrics["bench.traced_wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["bench.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
    metrics["bench.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    detail = {
        "traced_pass_wall_s": [p.wall_s for p, _ in traced],
        "untraced_pass_wall_s": [p.wall_s for p in untraced],
        "self_s": [d["self_s"] for d in per_pass],
        "calls": [d["calls"] for d in per_pass],
    }
    return metrics, detail


if __name__ == "__main__":
    sys.exit(main())
