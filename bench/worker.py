"""One pass over a workload's ops, in a fresh interpreter.

Usage (``run.py`` starts it once per pass):

    python3 bench/worker.py WORKLOAD SEED PASS TRACE

It prints ``ready`` as soon as qupitcube is imported and the CLI parser
is built, so that ``run.py`` can time a fresh interpreter's set-up.  Then
it calls every op of the workload once, in an order drawn from the seed
and the pass number, each as one in-process ``qupitcube.cli.main(argv)``
call with stdout captured, and prints one JSON line: per op the latency,
exit code, sha256 of the report and the known-answer findings; the
environment; the peak RSS; and, with TRACE 1, the per-layer totals.

Nothing the library keeps in memory carries from one pass to the next.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import qupitcube.cli as cli  # noqa: E402

cli.build_parser()
print("ready", flush=True)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402

REFERENCE_SHARE = 0.1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def environment() -> dict:
    u = os.uname()
    return {
        "machine": u.machine,
        "os": f"{u.sysname} {u.release}",
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def call(argv) -> tuple[float, int | None, str, str]:
    """One op: (latency, exit code or None on a crash, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
        except Exception:  # an op that crashes is counted, the pass goes on
            rc = None
            err.write(traceback.format_exc())
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()


def outcome(op, result) -> dict:
    latency, rc, out, err = result
    rec = {"latency_s": latency, "exit": rc,
           "sha256": hashlib.sha256(out.encode()).hexdigest(),
           "wrong": [], "error": None}
    if rc not in (0, 1):
        rec["error"] = err[-2000:]
    elif op.check is not None:
        try:
            rec["wrong"] = op.check(json.loads(out))
        except (ValueError, KeyError, TypeError) as e:
            rec["error"] = f"report not checkable: {e!r}"
    return rec


def main() -> int:
    name, seed, pass_no, trace = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
    if Path(cli.__file__).resolve().parent != SRC / "qupitcube":
        print(f"worker: imported qupitcube from {cli.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    ops = workloads.build(name, seed)
    order = list(range(len(ops)))
    # a fresh order each pass, so that no op always pays for going first
    random.Random(f"{name}:{seed}:pass{pass_no}").shuffle(order)
    tracer = None
    if trace == "1":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    records = [None] * len(ops)
    owed = 0.0
    for i in order:
        if tracer is not None:
            tracer.op_id = ops[i].id
        records[i] = outcome(ops[i], call(ops[i].argv))
        # the reference kernel takes about REFERENCE_SHARE of the pass,
        # in slices right after the ops, so it sees the host as they did
        owed += REFERENCE_SHARE * records[i]["latency_s"]
        records[i]["reference_s"] = []
        while owed > 0:
            records[i]["reference_s"].append(reference.timed())
            owed -= records[i]["reference_s"][-1]
    print(json.dumps({
        "ops": records,
        "order": order,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "environment": environment(),
        "totals": tracer.take_totals() if tracer is not None else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
