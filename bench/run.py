"""qupitcube benchmark: time to verdict per CLI subcommand, per-layer spans from outside.

Usage (from the repository root):

    python3 bench/run.py --workload strings --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

A run repeats passes over the workload's ops until ``--seconds`` is
spent.  Each pass is a fresh interpreter (``worker.py``) that calls every
op once, as an in-process ``qupitcube.cli.main(argv)`` call with stdout
captured: a closed loop with one client, one op at a time, no pool.
Every verdict is checked against ``workloads.KNOWN_ANSWERS``, and every
op must give a byte-identical report in every pass.

``--trace 0`` reports the end-to-end metrics.  The gated times scale
every call by the speed of a reference kernel timed right after it
(``reference.py``); the raw times are printed beside them.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (see ``spans.py``) and the tracing overhead.  The last
stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result, with the environment and
one sha256 per op report, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"
# A closed loop on at most nproc cores: numpy's BLAS and OpenMP stay
# single-threaded in every pass.
THREADS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
MIN_PASSES = 3
MIN_TAIL_BEYOND = 10
PERCENTILES = (99.9, 99, 95, 90, 75)

# (name, unit, layer, statistic).  A statistic ending in "_share" is a
# ratio of two counts summed over the pass.
PER_LAYER = [
    *[(f"fp.mat_rref.{s}", u, "fp.mat_rref", s)
      for s, u in (("calls", "count"), ("self_s", "s"), ("cells", "count"))],
    *[(f"fp.{f}.{s}", u, f"fp.{f}", s) for f in ("nullspace", "mat_rank")
      for s, u in (("calls", "count"), ("self_s", "s"))],
    *[(f"oracle.build_segment_constraints.{s}", u, "oracle.build_segment_constraints", s)
      for s, u in (("calls", "count"), ("self_s", "s"), ("rows", "count"),
                   ("cols", "count"))],
    *[(f"oracle.solve_segment.{s}", u, "oracle.solve_segment", s)
      for s, u in (("calls", "count"), ("self_s", "s"), ("nontrivial_share", "share"))],
    *[(f"oracle.max_nontrivial_length.{s}", u, "oracle.max_nontrivial_length", s)
      for s, u in (("calls", "count"), ("self_s", "s"))],
    *[(f"classify.enumerate_deformable.{s}", u, "classify.enumerate_deformable", s)
      for s, u in (("calls", "count"), ("self_s", "s"), ("tuples", "count"))],
    *[(f"classify.orbit.{s}", u, "classify.orbit", s)
      for s, u in (("calls", "count"), ("self_s", "s"), ("tuples_visited", "count"))],
    *[(f"classify.OrbitCache.canonical.{s}", u, "classify.OrbitCache.canonical", s)
      for s, u in (("calls", "count"), ("hit_share", "share"))],
    ("classify.classify_orbits.self_s", "s", "classify.classify_orbits", "self_s"),
    ("classify.scan_theorem1.self_s", "s", "classify.scan_theorem1", "self_s"),
    *[(f"conditions.theorem1_report.{s}", u, "conditions.theorem1_report", s)
      for s, u in (("calls", "count"), ("self_s", "s"))],
    *[(f"logical.TorusCode.{f}.{s}", u, f"logical.TorusCode.{f}", s)
      for f in ("generator_matrix", "check_abelian", "rank")
      for s, u in (("calls", "count"), ("self_s", "s"))],
    ("logical.matrix_bytes", "bytes", "logical.TorusCode.generator_matrix", "matrix_bytes"),
    *[(f"logical.{f}.self_s", "s", f"logical.{f}", "self_s")
      for f in ("planar_census", "encoded_qudit_count", "logical_commutation_table")],
    *[(f"algebra.op_mul.{s}", u, "algebra.op_mul", s)
      for s, u in (("calls", "count"), ("self_s", "s"), ("term_pairs", "count"))],
    *[(f"algebra.{f}.self_s", "s", f"algebra.{f}", "self_s")
      for f in ("build_projector", "inversion_conjugate")],
    *[(f"codes.{f}.{s}", u, f"codes.{f}", s)
      for f in ("build_generator", "commutation_exponent", "verify_translation_commutation")
      for s, u in (("calls", "count"), ("self_s", "s"))],
    ("cli.main.self_s", "s", "cli.main", "self_s"),
]
SHARES = {"nontrivial_share": "nontrivial", "hit_share": "hits"}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def run_pass(args, pass_no: int, trace: int) -> tuple[float, dict]:
    """One pass in a fresh worker: (its set-up time, its result)."""
    cmd = [sys.executable, str(WORKER), args.workload, str(args.seed), str(pass_no),
           str(trace)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **THREADS},
                          stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        lines = proc.stdout.read().splitlines()
    if ready != "ready\n" or proc.returncode != 0 or not lines:
        fail(f"pass {pass_no} of {args.workload} failed (exit {proc.returncode})")
    return setup_s, json.loads(lines[-1])


class Verdicts:
    """Tallies every op outcome: errors, known answers, repeat digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_defect_calls = 0
        self.errors: list[dict] = []
        self.wrong: dict[str, dict] = {}
        self.nondeterministic: set[str] = set()
        self.digests: dict[str, str] = {}

    def add(self, op, rec: dict) -> None:
        self.attempted += 1
        bad = self.digests.setdefault(op.id, rec["sha256"]) != rec["sha256"]
        if bad:
            self.nondeterministic.add(op.id)
        if rec["error"] is not None:
            self.errors.append({"op": op.id, "exit": rec["exit"], "stderr": rec["error"]})
            bad = True
        elif rec["wrong"]:
            keys = {key for key, _ in rec["wrong"]}
            predicted = op.defect and keys == {workloads.KNOWN_DEFECTS[op.defect][0]}
            self.wrong.setdefault(op.id, {
                "op": op.id, "argv": list(op.argv),
                "wrong": [f"{key}: {msg}" for key, msg in rec["wrong"]],
                "known_defect": op.defect if predicted else None})
            # a wrong verdict that a known defect predicts is listed and
            # counted on its own; only unexplained ones count as failed
            self.known_defect_calls += bool(predicted)
            bad = bad or not predicted
        self.failed += bad

    @property
    def correct(self) -> bool:
        unexplained = [w for w in self.wrong.values() if w["known_defect"] is None]
        return not (self.errors or self.nondeterministic or unexplained)


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """The highest percentile above p50 with at least ten ops beyond it,
    and its value; None when there are too few ops for one."""
    for q in PERCENTILES:
        if len(latencies) * (1 - q / 100) >= MIN_TAIL_BEYOND:
            cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
            return q, cuts[round(q * 10) - 1]
    return None


def fastest(passes: list[dict]) -> list[float]:
    """Each op's fastest call over the passes.

    Other tenants of a shared machine only ever add time; the fastest of
    several calls spread over the run is the steadiest estimate of what
    the op itself costs.
    """
    return [min(p["ops"][i]["latency_s"] for p in passes)
            for i in range(len(passes[0]["ops"]))]


def scaled(passes: list[dict]) -> list[float]:
    """Each op's latency in seconds at the reference speed.

    Every call is scaled by NOMINAL_S over the median time of the
    reference kernel slices run right after it; a call with none right
    after it takes the next slice of its pass (or, at the end of the
    pass, the last one).  Each op takes the median over the passes.
    """
    calls = [[] for _ in passes[0]["ops"]]
    for p in passes:
        pending = []
        for i in p["order"]:
            pending.append(i)
            if p["ops"][i]["reference_s"]:
                scale = reference.NOMINAL_S / statistics.median(p["ops"][i]["reference_s"])
                for j in pending:
                    calls[j].append(p["ops"][j]["latency_s"] * scale)
                pending = []
        for j in pending:
            calls[j].append(p["ops"][j]["latency_s"] * scale)
    return [statistics.median(c) for c in calls]


def per_layer(totals: list[dict]) -> dict:
    """Per-layer metrics from the per-pass totals; counts repeat exactly
    across passes, and times take the fastest pass."""
    metrics = {}
    for name, unit, layer, stat in PER_LAYER:
        values = []
        for pass_totals in totals:
            t = pass_totals.get(layer, {})
            if stat in SHARES:
                values.append(t.get(SHARES[stat], 0) / t["calls"] if t.get("calls") else 0.0)
            else:
                values.append(t.get(stat, 0))
        metrics[name] = {"value": min(values), "unit": unit}
    return metrics


def run_workload(args) -> int:
    if not (SRC / "qupitcube" / "__init__.py").is_file():
        fail(f"no qupitcube sources under {SRC}")
    ops = workloads.build(args.workload, args.seed)
    verdicts = Verdicts()
    setups, plain, traced, walls = [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setup_s, result = run_pass(args, len(plain), 0)
        walls.append(time.perf_counter() - t0)
        setups.append(setup_s)
        plain.append(result)
        if args.trace:
            traced.append(run_pass(args, len(traced), 1)[1])
        for result in (plain[-1], *traced[-1:]):
            for op, rec in zip(ops, result["ops"]):
                verdicts.add(op, rec)
        elapsed = time.perf_counter() - start
        # stop where the run ends closest to --seconds
        if len(plain) >= MIN_PASSES and elapsed * (1 + 0.5 / len(plain)) > args.seconds:
            break

    op_latency = fastest(plain)
    op_scaled = scaled(plain)
    ref_times = [t for p in plain for rec in p["ops"] for t in rec["reference_s"]]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": plain[0]["environment"],
        "loop": "closed, 1 client, 1 op in flight, in-process cli.main, "
                "a fresh interpreter per pass",
        "ops_per_pass": len(ops), "passes": len(plain),
        "pass_wall_median_s": statistics.median(walls),
        "setup_samples_s": setups,
        "reference": {"samples": len(ref_times), "median_s": statistics.median(ref_times),
                      "nominal_s": reference.NOMINAL_S},
        "wrong_verdicts": sorted(verdicts.wrong.values(), key=lambda w: w["op"]),
        "errors": verdicts.errors,
        "nondeterministic_ops": sorted(verdicts.nondeterministic),
        "known_defects": {k: v[1] for k, v in workloads.KNOWN_DEFECTS.items()},
        "op_report_sha256": verdicts.digests,
        "ops": {op.id: {"argv": list(op.argv), "fastest_s": t, "scaled_s": u}
                for op, t, u in zip(ops, op_latency, op_scaled)},
    }
    lines = []
    if not args.trace:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_scaled_s": {"value": sum(op_scaled), "unit": "s"},
            "op_p50_scaled_s": {"value": statistics.median(op_scaled), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in plain),
                            "unit": "MB"},
        }
        extra = {"wall_s": {"value": sum(op_latency), "unit": "s"},
                 "op_p50_s": {"value": statistics.median(op_latency), "unit": "s"},
                 "reference_median_s": {"value": statistics.median(ref_times),
                                        "unit": "s"},
                 "failed_share": {"value": verdicts.failed / verdicts.attempted,
                                  "unit": "share"},
                 "wrong_verdicts": {"value": len(verdicts.wrong), "unit": "count"},
                 "known_defect_calls": {"value": verdicts.known_defect_calls,
                                        "unit": "count"}}
        tail_q = tail(op_latency)
        if tail_q is None:
            lines.append(f"{args.workload} op_tail_s: none, {len(ops)} ops leave no "
                         f"percentile above p50 with {MIN_TAIL_BEYOND} beyond it")
        else:
            extra["op_tail_s"] = {"value": tail_q[1], "unit": "s"}
            report["op_tail_percentile"] = tail_q[0]
            lines.append(f"{args.workload} op_tail_s is p{tail_q[0]:g} of n={len(ops)} ops")
        lines.append(f"{args.workload} over {len(plain)} passes, each op's raw latency is "
                     f"its fastest call and its scaled latency its median scaled call")
    else:
        metrics = per_layer([p["totals"] for p in traced])
        report["traced_passes"] = len(traced)
        report["untraced_wall_s"] = sum(op_latency)
        report["traced_wall_s"] = sum(fastest(traced))
        report["trace_overhead_s"] = report["traced_wall_s"] - report["untraced_wall_s"]
        extra = {}
        lines.append(f"{args.workload} trace overhead = {report['trace_overhead_s']:.4g} s "
                     f"({report['traced_wall_s']:.4g} s traced, "
                     f"{report['untraced_wall_s']:.4g} s untraced)")
    report["metrics"] = {**metrics, **extra}

    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    for name, m in report["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for line in lines:
        print(line)
    for w in report["wrong_verdicts"]:
        cause = w["known_defect"] or "UNEXPLAINED"
        print(f"{args.workload} wrong verdict [{cause}] {w['op']}: {'; '.join(w['wrong'])}")
    for e in verdicts.errors:
        print(f"{args.workload} error {e['op']}: exit {e['exit']}")
    for op_id in report["nondeterministic_ops"]:
        print(f"{args.workload} report differs between passes: {op_id}")
    print(f"{args.workload} result file: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": verdicts.correct, "attempted": verdicts.attempted,
                      "failed": verdicts.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, one after another."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
