"""lifesim benchmark: one workload, one process, one closed-loop caller.

    python3 lifebench/run.py --workload {compare,train,emtr_scan} --seed N
                             --seconds S --trace {0,1} [--toy]

Run from the repository root.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Each run also appends a record (machine fingerprint, seed,
digest, metrics) to ``lifebench/out/results.jsonl``; a traced run writes its
spans to ``lifebench/out/``.  See README.md.
"""

import os

# BLAS is pinned to one thread before numpy loads: the package documents
# single-threaded numpy, and the reference machine has 2 shared cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 7


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "lifesim" / "__init__.py").is_file():
        print(f"lifebench: no lifesim sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def machine(seed: int) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                      "libscipy_openblas*.so")):
        get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        get.restype, get.argtypes = ctypes.c_int, []
        threads = get()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": threads if threads is not None else os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def run_round(wl, call) -> tuple[list[int], object]:
    """Each item of the workload once, timed on its own, then checked."""
    times, results = [], []
    for item in wl.items:
        t0 = perf_counter_ns()
        try:
            out = call(item)
        except Exception:   # a failed operation is counted, not fatal
            traceback.print_exc()
            out = None
        times.append(perf_counter_ns() - t0)
        results.append(out)
    return times, wl.check(results)


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()
        self.problems: list[str] = []

    def add(self, n_items: int, check) -> None:
        self.attempted += n_items
        self.failed += check.failed
        self.digests.add(check.digest)
        self.problems += check.problems

    @property
    def correct(self) -> bool:
        return self.failed == 0 and len(self.digests) == 1


def untraced(wl, seconds: float, tally: Tally) -> tuple[dict, list[str]]:
    times: list[int] = []
    work = 0
    deadline = perf_counter() + seconds
    while not times or perf_counter() < deadline:
        t, check = run_round(wl, wl.run_item)
        times += t
        work += check.work
        tally.add(len(t), check)
    metrics = {
        "op_p50_s": (statistics.median(times) / 1e9, "s"),
        "op_p99_s": (float(np.percentile(times, 99)) / 1e9, "s"),
        "work_per_s": (work / (sum(times) / 1e9), "1/s"),
    }
    return metrics, wl.headline(times, work)


def traced(wl, seconds: float, tally: Tally, spans_path: Path) -> tuple[dict, list[str]]:
    """Pairs of one untraced and one traced round on the same inputs, the
    order flipping every pair so that a drifting machine speed cancels out
    of the overhead; per-layer metrics come from the traced rounds."""
    import layers
    from spans import LayerStats, Tracer

    tracer = Tracer()
    snapshots = layers.SnapshotLog()
    traced_call = tracer.wrap("op", wl.run_item)
    ns = {False: 0, True: 0}
    n_ops = 0
    order = (False, True)
    deadline = perf_counter() + seconds
    while not n_ops or perf_counter() < deadline:
        for tracing in order:
            if tracing:
                with tracer.patch(layers.targets(snapshots)):
                    t, check = run_round(wl, traced_call)
                snapshots.end_round()
                n_ops += len(t)
            else:
                t, check = run_round(wl, wl.run_item)
            ns[tracing] += sum(t)
            tally.add(len(t), check)
        order = order[::-1]
    tracer.write(spans_path)
    stats = LayerStats(tracer.spans)
    metrics = layers.per_layer_metrics(stats, snapshots, n_ops, traced_ns=ns[True], untraced_ns=ns[False])
    return metrics, [f"{len(tracer.spans)} spans written to {spans_path}"]


def main(argv=None) -> int:
    _import_program()
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true", help="toy sizes, for the smoke test")
    args = ap.parse_args(argv)

    cls = WORKLOADS[args.workload]
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        wl = cls(args.seed, args.toy)
        setup_s.append(perf_counter() - t0)

    tally = Tally()
    with wl.recording():
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            metrics, notes = traced(wl, args.seconds, tally, spans_path)
        else:
            metrics, notes = untraced(wl, args.seconds, tally)
            metrics["setup_s"] = (statistics.median(setup_s), "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")

    fingerprint = machine(args.seed)
    digest = ",".join(sorted(tally.digests))
    print(f"lifebench workload={args.workload} seed={args.seed} trace={args.trace} toy={int(args.toy)}")
    print("machine: " + json.dumps(fingerprint))
    print(f"digest: {digest}")
    for line in notes:
        print(line)
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}")
    if len(tally.digests) > 1:
        print("check failed: rounds on the same inputs gave different digests")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "toy": args.toy, "machine": fingerprint,
              "digest": digest, "correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": {k: v for k, (v, _) in metrics.items()}}
    with open(OUT_DIR / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
