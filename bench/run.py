"""gmmodes benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a gmmodes checkout and imports the package from
``src/``. Workloads (see ``bench/worker.py``):

- ``oracle_k2``: random 2-component mixtures, multistart vs ridgeline oracle.
- ``cold_cli``: one fresh ``gmmodes modes`` CLI process per operation.
- ``product_k9``: the k=9, d=4 product of two triangles (the catalog's
  heaviest scenario), 2250 starts.
- ``catalog``: the whole ``scenario_catalog()`` as ``gmmodes verify`` runs it.
- ``small_delta``: the d=2, k=3 arrangement at delta = 2^-5 ... 2^-18.

``catalog`` and ``small_delta`` have failing operations in the current
program (a fifth mode in ``arrangement(d=3,k=3)`` for some Halton seeds,
seed 3 among them; lost vertex modes and NonSPD at small delta), so they
are runnable and counted as failures but not listed in BENCHMARK.json,
which lists only workloads on which every operation passes its check.
``bench/baseline.json`` records every workload's figures for the initial
package, and ``python3 bench/selftest.py`` checks the benchmark itself.

With ``--trace 0`` the benchmark prints the end-to-end metrics; with
``--trace 1`` it wraps the public functions of gmmodes' modules in spans
and prints per-layer metrics, writing the spans to
``.bench_out/trace-<workload>-seed<N>.json.gz``. The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
BLAS is pinned to one thread in every process it starts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "bench")
WORKLOADS = ("catalog", "cold_cli", "oracle_k2", "product_k9", "small_delta")
SETUP_PROBES = 4  # extra set-ups per run; setup_s is the median of these and the run's own
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "mixture.evaluate.calls": "count",
    "mixture.evaluate.self_s": "s",
    "mixture.log_terms.calls": "count",
    "mixture.log_terms.point_components": "count",
    "mixture.log_terms.self_s": "s",
    **{f"mixture.{m}.{k}": u for m in ("log_density", "responsibilities", "grad_over_density")
       for k, u in (("calls", "count"), ("rows", "count"), ("self_s", "s"))},
    "mixture.make_mixture.calls": "count",
    "mixture.make_mixture.self_s": "s",
    "modefinder.default_starts.self_s": "s",
    "modefinder.find_critical_points.self_s": "s",
    "modefinder.ridgeline_oracle_k2.self_s": "s",
    "modefinder.starts_used": "count",
    "modefinder.starts_converged": "count",
    "modefinder.converged_ratio": "ratio",
    "modefinder.dedup_ratio": "ratio",
    "modefinder.evals_per_start": "count",
    "constructions.self_s": "s",
    "cli.import_gmmodes_s": "s",
    "cli.import_lazy_s": "s",
    "cli.process_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "trace.layer_self_s": "s",
}


def import_times(stderr: str, eager: list[str]) -> tuple[float, float]:
    """From ``-X importtime`` output: cumulative seconds of the top-level
    ``gmmodes`` imports, and of top-level imports of modules that were not
    loaded when the process finished its own imports (lazy imports)."""
    eager = set(eager)
    gm = lazy = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if name.startswith("  "):  # nested import, already in its parent's cumulative
            continue
        name, sec = name.strip(), int(cum) / 1e6
        if name == "gmmodes" or name.startswith("gmmodes."):
            gm += sec
        elif name not in eager:
            lazy += sec
    return gm, lazy


def spawn(cmd, env, timeout):
    t0 = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    return t0, proc


def last_json(proc, what):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{what} exited with status {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="a few inputs per pass, no extra set-up probes")
    ap.add_argument("--perturb", type=int, default=0, help="add this to every expected count (gate self-test)")
    args = ap.parse_args()
    started = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "gmmodes", "__init__.py")):
        print(f"error: no gmmodes sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    worker = [os.path.join(HERE, "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace), "--perturb", str(args.perturb)]
    if args.tiny:
        worker.append("--tiny")

    setups = []
    if not args.trace:
        for _ in range(0 if args.tiny else SETUP_PROBES):
            t0, proc = spawn([sys.executable, *worker, "--setup-only"], env, DEADLINE_S)
            setups.append(last_json(proc, "set-up probe")["ready"] - t0)

    flags = ["-X", "importtime"] if args.trace else []
    remaining = DEADLINE_S - (time.monotonic() - started)
    t0, proc = spawn([sys.executable, *flags, *worker], env, remaining)
    res = last_json(proc, "benchmark worker")
    sys.stderr.writelines(ln for ln in proc.stderr.splitlines(True) if not ln.startswith("import time:"))

    env_rec = res["env"]
    print("env: " + " ".join(f"{k}={v!r}" for k, v in env_rec.items()))
    attempted = len(res["op_s"]) + res.get("attempted_untraced", 0)
    failed = res["failed"]
    ops_ms = sorted(1000.0 * s for s in res["op_s"])
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={len(res['pass_s'])} "
          f"attempted={attempted} failed={failed} fail_frac={failed}/{attempted}")

    if not args.trace:
        setups.append(res["ready"] - t0)
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(res["pass_s"]),
            "op_p50_ms": statistics.median(ops_ms),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END
        beyond = len(ops_ms) - int(0.9 * len(ops_ms))
        p90 = (f"op_p90_ms={statistics.quantiles(ops_ms, n=10)[8]:.1f} ms" if beyond >= 10
               else f"op_p90_ms not reported ({beyond} samples beyond it, fewer than 10)")
        print(f"setup_s from {len(setups)} set-ups; pass_s from {len(res['pass_s'])} passes; "
              f"op_p50_ms from {len(ops_ms)} ops; {p90}")
    else:
        layers = res["layers"]
        if args.workload == "cold_cli":
            runs = [(wall, *import_times(err, eager)) for wall, err, eager in res["cli_runs"]]
            layers["cli.process_s"] = statistics.median(r[0] for r in runs)
            layers["cli.import_gmmodes_s"] = statistics.median(r[1] for r in runs)
            layers["cli.import_lazy_s"] = statistics.median(r[2] for r in runs)
        else:
            # In-process workloads: the benchmark worker is the gmmodes process.
            gm, lazy = import_times(proc.stderr, res["eager_modules"])
            layers.update({"cli.process_s": 0.0, "cli.import_gmmodes_s": gm, "cli.import_lazy_s": lazy})
        layers["trace.pass_s"] = statistics.median(res["pass_s"])
        layers["trace.overhead_s"] = layers["trace.pass_s"] - statistics.median(res["untraced_pass_s"])
        metrics = {k: layers.get(k, 0.0) for k in PER_LAYER}
        units = PER_LAYER
        if res["layer_time_violations"]:
            print(f"FAILED layer self times exceed the pass time in {res['layer_time_violations']} traced passes")
            failed += res["layer_time_violations"]

    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
