"""Self-test of the benchmark itself: python3 bench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
each metric BENCHMARK.json names is printed with its unit; that the
correctness gate trips when every expected count is perturbed; and that
the benchmark refuses to run without the gmmodes sources. Exits non-zero
on the first problem.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "bench", "run.py")
sys.path.insert(0, os.path.join(ROOT, "bench"))

from run import WORKLOADS  # noqa: E402


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None), proc


def check(cond, msg):
    if not cond:
        raise SystemExit(f"selftest FAILED: {msg}")
    print(f"ok  {msg}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = {w["name"] for w in bench["workloads"]}
    check(listed <= set(WORKLOADS), f"listed workloads {sorted(listed)} are known to run.py")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[key]}
        for wl in WORKLOADS:
            rc, res, proc = run("--workload", wl, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny")
            check(rc == 0 and res is not None, f"{wl} trace={trace} exits 0 with a result" + (
                "" if res else f"\n{proc.stderr[-2000:]}"))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{wl} trace={trace} prints every {key} metric with its unit")
            check(res["attempted"] >= 1, f"{wl} trace={trace} attempted {res['attempted']} ops")
            if wl in listed:
                check(res["correct"] and res["failed"] == 0, f"{wl} trace={trace} is correct")
            else:
                print(f"    {wl} trace={trace}: failed {res['failed']} of {res['attempted']} (not listed)")
            if trace:
                m = res["metrics"]
                check(m["trace.layer_self_s"]["value"] <= m["trace.pass_s"]["value"],
                      f"{wl} layer self times sum to no more than the traced pass")
    for wl in WORKLOADS:
        rc, res, _ = run("--workload", wl, "--seed", "0", "--seconds", "1", "--trace", "0", "--tiny", "--perturb", "1")
        check(rc == 0 and res is not None and res["failed"] > 0 and not res["correct"],
              f"{wl} correctness gate trips on a perturbed expected count "
              f"(fail_frac {res and res['failed']}/{res and res['attempted']})")

    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    rc, res, _ = run("--workload", sorted(listed)[0], "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    check(rc != 0 and res is None, "without the gmmodes sources it exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
