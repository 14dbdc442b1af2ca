"""Self-test of the benchmark: smoke-size runs of every workload path.

    python3 perfbench/selftest.py

Run from the checkout root; takes about a minute. Each workload runs
untraced and traced at tiny sizes (`--smoke`). The test asserts that
every run ends with a correct result and no failed operation, that the
JSON line carries exactly BENCHMARK.json's metrics with their units,
that the report lines carry every metric perfbench/README.md documents
for that workload with its unit, and that traced self times sum to no
more than the wall time of the operation they sit in. Last, it checks
that the benchmark refuses to run where the program's source is absent.
Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()

REPORTED = {
    "train": {
        "setup_s": "s",
        "train_samples_per_s": "trials/s",
        "train_step_ms_mean": "ms",
        "train_step_ms_p50": "ms",
        "train_step_ms_p90": "ms",
        "eval_trials_per_s": "trials/s",
        "peak_rss_mb": "MB",
        "val_acc": "fraction",
        "error_rate": "fraction",
    },
    "serve": {
        "setup_s": "s",
        "eval_trials_per_s": "trials/s",
        "infer_latency_ms_mean": "ms",
        "infer_latency_ms_p50": "ms",
        "infer_latency_ms_p90": "ms",
        "peak_rss_mb": "MB",
        "error_rate": "fraction",
    },
}
TRACED = {
    "train": {
        "tensor.backward_ms": "ms",
        "backends.conv_bwd_ms": "ms",
        "training.augment_ms": "ms",
        "training.adamw_ms": "ms",
        "training.skipped_steps": "count",
    },
    "serve": {"model.load_into_ms": "ms"},
}
TRACED_COMMON = {
    "trace.self_sum_ms": "ms",
    "trace.op_wall_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_ratio": "fraction",
}
KINDS = {"train_small": "train", "train_default": "train", "serve_default": "serve"}


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check(cond, message):
    if not cond:
        print(f"FAIL: {message}")
        sys.exit(1)


def check_run(workload, trace, benchmark):
    proc = run(workload, trace)
    label = f"{workload} --trace {trace}"
    check(proc.returncode == 0, f"{label} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: {result['attempted']} attempted, {result['failed']} failed; {lines}")
    listed = {m["name"]: m["unit"] for m in benchmark["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == listed, f"{label}: JSON metrics {got} differ from BENCHMARK.json {listed}")
    for name, m in result["metrics"].items():
        check(isinstance(m["value"], (int, float)), f"{label}: {name} is not a number")

    report = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            report[name] = (float(value), unit)
    kind = KINDS[workload]
    wanted = dict(REPORTED[kind])
    if trace:
        wanted.update(listed)
        wanted.update(TRACED[kind])
        wanted.update(TRACED_COMMON)
    for name, unit in wanted.items():
        check(name in report, f"{label}: report lacks {name}")
        check(report[name][1] == unit, f"{label}: {name} in {report[name][1]}, not {unit}")
    if trace:
        self_sum, wall = report["trace.self_sum_ms"][0], report["trace.op_wall_ms"][0]
        check(0 < self_sum <= wall, f"{label}: self times {self_sum} ms exceed op wall {wall} ms")
    check(any(line.startswith("env ") for line in lines), f"{label}: no env line")
    print(f"ok {label}: {result['attempted']} operations")


def check_refuses_without_program():
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("train_small", 0, cwd=bare)
        check(proc.returncode != 0, "ran without the program's source")
        check(not proc.stdout.strip(), f"printed a result without the program: {proc.stdout}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # a benchmark run still has files there
    print("ok refuses to run without src/")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    check([w["name"] for w in benchmark["workloads"]] == list(KINDS), "workload list changed")
    for workload in KINDS:
        for trace in (0, 1):
            check_run(workload, trace, benchmark)
    check_refuses_without_program()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
