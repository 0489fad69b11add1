#!/usr/bin/env python3
"""Quick self-check of the e2ebench benchmark; takes under a minute.

    python3 e2ebench/selfcheck.py

Run from the root of a checkout. Checks that:
  * BENCHMARK.json is exactly the spec run.py defines;
  * every workload, run at a tiny size with --trace 0 and --trace 1, passes
    its oracle check and prints every end-to-end / per-layer metric by name
    with its unit, and nothing else;
  * in a directory holding only BENCHMARK.json and e2ebench/, the benchmark
    fails without printing a result.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_run_module():
    spec = importlib.util.spec_from_file_location("e2ebench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_bench(cwd, *args, timeout=600, env=None):
    return subprocess.run([sys.executable, "e2ebench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)


def check_result(run, workload, trace, proc):
    assert proc.returncode == 0, \
        f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{workload}: oracle check failed: {result}"
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    if trace == 0:
        expected = {n: u for n, u, _, _ in run.END_TO_END}
    else:
        expected = {n: u for n, u, _ in run.PER_LAYER}
    metrics = result["metrics"]
    assert set(metrics) == set(expected), set(metrics) ^ set(expected)
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit, (name, metrics[name])
        assert isinstance(metrics[name]["value"], (int, float)), (name, metrics[name])
        if trace == 0:
            assert metrics[name]["value"] > 0, (workload, name, metrics[name])
    print(f"ok  {workload} trace={trace}: {len(metrics)} metrics, "
          f"{result['attempted']} ops, oracle check passed", flush=True)


def main():
    run = load_run_module()
    with open(ROOT / "BENCHMARK.json") as f:
        assert json.load(f) == run.spec(), "BENCHMARK.json differs from run.py --emit-spec"
    print("ok  BENCHMARK.json matches run.py", flush=True)

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(ROOT, "--workload", workload, "--seed", str(run.CHECK_SEED),
                             "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny")
            check_result(run, workload, trace, proc)

    bare = run.build_dir() / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, "--workload", "hol_lsm", "--seed", "1", "--seconds", "1",
                     "--trace", "0", timeout=170,
                     env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "benchmark succeeded without the program's sources"
    assert '"correct"' not in proc.stdout, "benchmark printed a result without the sources"
    print("ok  fails cleanly without the program's sources", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
