"""Run one benchmark workload of nakul and print its metrics.

    python3 perfbench/run.py --workload train_small --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The program is imported from `src/`
of that checkout; nothing needs installing. This process writes the
workload's inputs (synthetic trials from `--seed`, and for the serving
workload a checkpoint) into a scratch directory under the checkout,
then starts `worker.py` in its own process with BLAS pinned to one
thread and waits for it. The worker measures; this process checks the
worker's environment, prints the report, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the `end_to_end` list of
BENCHMARK.json, with `--trace 1` the `per_layer` list. Workloads must
run one at a time, never beside each other or beside the test suite.
See perfbench/README.md.

    python3 perfbench/run.py --write-reference

rewrites the fixed-seed reference trajectory that `train_small` checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (sits beside this file)

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
WORKER_TIMEOUT_S = 170


def _import_program():
    """Import nakul from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "nakul", "__init__.py")):
        raise SystemExit(f"no program source at {SRC}/nakul: run from a checkout root")
    sys.path.insert(0, SRC)
    import nakul

    if not os.path.abspath(nakul.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported nakul from {nakul.__file__}, not from {SRC}")


def _write_dataset(path, spec, seed):
    from nakul.cli import save_dataset
    from nakul.training import generate_synthetic

    signals, labels = generate_synthetic(spec, seed)
    save_dataset(path, signals, labels, spec.rate, f"perfbench seed={seed}\n")


def prepare_inputs(work, wl, seed):
    """Everything the worker reads, written before any timing starts."""
    _write_dataset(os.path.join(work, "data"), wl.spec, seed)
    if wl.kind == "train" and wl.reference:
        _write_dataset(os.path.join(work, "reference"), wl.reference_spec, workloads.REFERENCE_SEED)
    if wl.kind == "serve":
        from nakul.model import init_model, save_checkpoint
        from nakul.rng import stream

        model = init_model(wl.model_config(), stream(seed, "init"))
        save_checkpoint(os.path.join(work, "model.nakl"), model.named())


def run_worker(work, args, *extra):
    env = dict(os.environ)
    env.update({var: "1" for var in workloads.BLAS_VARS})
    env["PYTHONPATH"] = SRC
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--work", work,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd.extend(extra)
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker exceeded {WORKER_TIMEOUT_S} s")
    finally:  # also on SIGTERM or Ctrl-C: never leave the worker running
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise SystemExit(f"worker exited with code {code}")
    if "--write-reference" in extra:
        return None
    with open(os.path.join(work, "result.json")) as fh:
        return json.load(fh)


def check_environment(env):
    """Refuse a result measured without BLAS pinned to one thread."""
    seen = env["blas_env"]
    unpinned = {k: v for k, v in seen.items() if v != "1"}
    if unpinned:
        raise SystemExit(f"workload process ran with BLAS not pinned to one thread: {unpinned}")


def print_report(result):
    print("env " + json.dumps(result["env"], sort_keys=True))
    for name, m in result["report"].items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    for line in result.get("notes", []):
        print("note " + line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-test only")
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite the train_small reference trajectory and exit")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")

    _import_program()
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        if args.write_reference:
            args.workload = "train_small"
            wl = workloads.get(args.workload)
            _write_dataset(os.path.join(work, "reference"), wl.reference_spec, workloads.REFERENCE_SEED)
            run_worker(work, args, "--write-reference")
            print(f"wrote {workloads.REFERENCE_PATH}")
            return 0
        wl = workloads.get(args.workload, smoke=args.smoke)
        prepare_inputs(work, wl, args.seed)
        result = run_worker(work, args, *(["--smoke"] if args.smoke else []))
        check_environment(result["env"])
        print_report(result)
        print(json.dumps(result["summary"], sort_keys=True), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still has files there
    return 0


if __name__ == "__main__":
    sys.exit(main())
