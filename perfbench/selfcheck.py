"""Structure check of the benchmark at toy size. It never asserts a timing.

    python3 perfbench/selfcheck.py

Runs every workload on desk.ini inputs, untraced and traced, and checks:
- workloads.py, BENCHMARK.json and the emitted results name the same
  workloads and the same metrics with the same units;
- the last stdout line has exactly the keys correct, attempted, failed and
  metrics, and no rep failed;
- every per-layer host time is non-zero on at least one workload, so each
  span is wired to a call;
- run.py refuses CAPSBEAM_THREADS above nproc, and exits non-zero without a
  result in a directory that holds only BENCHMARK.json and perfbench/.
Exits 1 and lists the problems if any check fails.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    problems = []
    if dict(workloads.END_TO_END) != expected[0]:
        problems.append("workloads.END_TO_END differs from BENCHMARK.json end_to_end")
    if dict(workloads.PER_LAYER) != expected[1]:
        problems.append("workloads.PER_LAYER differs from BENCHMARK.json per_layer")
    if list(workloads.WORKLOADS) != [w["name"] for w in bench["workloads"]]:
        problems.append("workloads.WORKLOADS differs from BENCHMARK.json workloads")

    busy = set()
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = run(["--workload", workload, "--seed", "1", "--seconds", "0.5",
                        "--trace", str(trace), "--size", "toy"])
            result = last_json(proc.stdout)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0 or result is None:
                problems.append(f"{where}: exit {proc.returncode}, {proc.stderr[-500:]}")
                continue
            if set(result) != RESULT_KEYS:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            units = {name: metric["unit"] for name, metric in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{where}: metric names or units differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} "
                                "reps failed")
            if trace:
                busy |= {name for name, metric in result["metrics"].items() if metric["value"]}
    idle = [name for name in workloads.HOST_SPANS if name not in busy]
    if idle:
        problems.append(f"host spans never timed on any workload: {idle}")

    env = dict(os.environ, CAPSBEAM_THREADS=str(len(os.sched_getaffinity(0)) + 1))
    proc = run(["--workload", "desk_report", "--seed", "1", "--seconds", "1"], env=env)
    if proc.returncode == 0 or last_json(proc.stdout) is not None:
        problems.append("CAPSBEAM_THREADS above nproc was not refused")

    bare = ROOT / "perfbench" / "out" / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = run(["--workload", "desk_report", "--seed", "1", "--seconds", "1"], cwd=bare)
    if proc.returncode == 0 or last_json(proc.stdout) is not None:
        problems.append("a checkout without the program still produced a result")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
