"""Smoke test of the benchmark: every workload at toy size, untraced and
traced, plus a run without the program's sources.

    python3 lifebench/smoke.py

Checks that each run exits 0, prints every metric BENCHMARK.json names for
its mode with that metric's unit, passes its output checks, prints the
machine fingerprint and one behaviour digest, and that tracing leaves the
digest unchanged.  A copy holding only BENCHMARK.json and lifebench/ must
exit non-zero without a result.  Exits 1 at the first failure.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "lifebench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        digests = []
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{label} exited {proc.returncode}:\n{proc.stderr}")
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: checks failed:\n{proc.stdout}")
            units = {m["name"]: m["unit"] for m in spec[group]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == units, f"{label}: metrics {printed} != {units}")
            for name, unit in units.items():
                expect(any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines),
                       f"{label}: no '{name} = <value> {unit}' line")
            expect(any(line.startswith("machine: ") for line in lines), f"{label}: no machine fingerprint")
            digest = [line for line in lines if line.startswith("digest: ")]
            expect(len(digest) == 1 and len(digest[0]) == len("digest: ") + 64, f"{label}: digest line {digest}")
            digests.append(digest[0])
        expect(digests[0] == digests[1], f"{workload}: tracing changed the digest")
        print(f"ok {workload}")

    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, Path(bare) / "lifebench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(Path(bare), spec["workloads"][0]["name"], 0)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               "a copy without the program's sources did not fail")
    print("ok without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
