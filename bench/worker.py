"""Benchmark worker: builds one workload's inputs, times passes over them
and checks every result. Started by ``bench/run.py``; prints its raw
measurements as one JSON line on stdout.

Workloads are closed loops: one operation at a time, in this process (the
``cold_cli`` operation is one fresh CLI process at a time).
"""

import os

# Pin BLAS before numpy loads OpenBLAS; the CLI's GMM_MODES_THREADS is set
# only after numpy is loaded and so pins nothing.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from tracer import LAYERS, Tracer, layer_metrics, self_times  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import gmmodes  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402
from gmmodes import cli, constructions, mixture, modefinder  # noqa: E402
from gmmodes.errors import GmModesError  # noqa: E402

EAGER_MODULES = sorted(sys.modules)
LAYER_MODULES = {"gmmodes": gmmodes, "mixture": mixture, "modefinder": modefinder,
                 "constructions": constructions, "cli": cli}


class Catalog:
    """One op: one scenario of ``scenario_catalog()``, run as ``gmmodes verify``
    runs it (budget max(500, 250 k), Halton seed = workload seed). A pass
    builds the catalog, as ``verify`` does, then runs every scenario."""

    def __init__(self, seed, tiny, offset):
        self.seed, self.tiny, self.offset = seed, tiny, offset
        self.warm = constructions.scenario_catalog()[0]

    def warm_up(self):
        self.check(self.warm)

    def ops(self):
        scenarios = constructions.scenario_catalog()
        for scen in scenarios[:3] if self.tiny else scenarios:
            yield scen.name, lambda scen=scen: self.check(scen)

    def check(self, scen):
        starts = modefinder.default_starts(scen, budget=max(500, 250 * scen.mixture.k), seed=self.seed)
        rep = modefinder.find_critical_points(scen.mixture, starts, search_box=scen.search_box)
        ok = rep.bound_check.mode_count_within_upper
        if scen.expected_modes is not None:
            ok = ok and rep.mode_count == scen.expected_modes + self.offset
        return ok


class OracleK2:
    """One op: a seeded random 2-component mixture in d = 1..3 (the
    acceptance criterion 8 generator), counted by 200-start multistart and
    by the ridgeline oracle, which must agree on count and locations. A
    pass is 45 mixtures, so a run holds several passes and 100+ ops.

    The dimension cycles 1, 2, 3 instead of being drawn: an op's cost grows
    with d, so a drawn d would make the pass time depend on the seed."""

    def __init__(self, seed, tiny, offset):
        self.seed, self.offset = seed, offset
        rng = np.random.default_rng(seed)
        self.inputs = [self._draw(rng, 1 + i % 3) for i in range(6 if tiny else 46)]

    @staticmethod
    def _draw(rng, d):
        covs = []
        for _ in range(2):
            A = rng.normal(size=(d, d))
            covs.append(A @ A.T + 0.3 * np.eye(d))
        alpha = float(rng.uniform(0.15, 0.85))
        mix = mixture.make_mixture([alpha, 1 - alpha], rng.normal(scale=1.5, size=(2, d)), covs)
        sigma = np.sqrt(max(np.max(np.linalg.eigvalsh(c.cov)) for c in mix.components))
        box = (mix.means.min(axis=0) - 3.0 * sigma, mix.means.max(axis=0) + 3.0 * sigma)
        return constructions.Scenario("oracle_k2", mix, None, "none", box)

    def warm_up(self):
        self.check(self.inputs[0])

    def ops(self):
        for i, scen in enumerate(self.inputs[1:]):
            yield f"mixture {i}", lambda scen=scen: self.check(scen)

    def check(self, scen):
        mix = scen.mixture
        starts = modefinder.default_starts(scen, budget=200, seed=self.seed)
        rep = modefinder.find_critical_points(mix, starts, search_box=scen.search_box)
        oracle = [p for p in modefinder.ridgeline_oracle_k2(mix, samples=4000) if p.kind == "mode"]
        if not oracle or rep.mode_count != len(oracle) + self.offset:
            return False
        return all(
            min(np.linalg.norm(m.location - p.location) for p in oracle) <= rep.dedup_radius
            for m in rep.modes
        )


class ColdCli:
    """One op: one fresh ``python -m gmmodes.cli modes <cross file> --starts 200``
    process; its exit status and ``modes=`` summary value are checked."""

    def __init__(self, seed, tiny, offset):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.base = os.path.join(OUT_DIR, "cold_cli-cross")
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["construct", "cross", "--output", self.base]) != 0:
                raise RuntimeError("gmmodes construct cross failed")
        self.expected = constructions.cross_example().expected_modes + offset
        self.args = ["modes", self.base + ".mixture.json", "--starts", "200", "--seed", str(seed)]
        src = os.path.join(ROOT, "src")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        self.tracer = None
        self.cli_runs = []  # (process_s, importtime stderr, eager modules) per traced op

    def warm_up(self):
        pass  # every op is a cold process by design

    def ops(self):
        yield "cli", self.check

    def check(self):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "gmmodes.cli", *self.args]
        else:
            spans_path = os.path.join(OUT_DIR, "cold_cli-child-spans.json")
            shim = os.path.join(ROOT, "bench", "cli_shim.py")
            cmd = [sys.executable, "-X", "importtime", shim, spans_path, *self.args]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=150)
        wall = time.monotonic() - t0
        if self.tracer is not None:
            with open(spans_path, encoding="utf-8") as fh:
                child = json.load(fh)
            self.tracer.adopt(child["spans"], self.tracer.current())
            self.cli_runs.append((wall, proc.stderr, child["eager_modules"]))
        elif proc.stderr:
            sys.stderr.write(proc.stderr)
        lines = proc.stdout.split()
        modes = [int(w[6:]) for w in lines if w.startswith("modes=")]
        return proc.returncode == 0 and modes == [self.expected]


class ProductK9:
    """One op: ``product_of_triangles(2, 0.72)`` (k=9, d=4, 16 modes) built and
    run as ``gmmodes verify`` runs it, 2250 starts. It is the catalog's
    heaviest scenario, where per-start Newton through the per-point
    ``evaluate`` dominates."""

    def __init__(self, seed, tiny, offset):
        self.seed, self.offset = seed, offset

    def warm_up(self):
        # Same code at the smallest budget: component means and midpoints only.
        self.check(budget=9)

    def ops(self):
        yield "product", self.check

    def check(self, budget=None):
        scen = constructions.product_of_triangles(2, 0.72)
        k = scen.mixture.k
        starts = modefinder.default_starts(scen, budget=budget or max(500, 250 * k), seed=self.seed)
        rep = modefinder.find_critical_points(scen.mixture, starts, search_box=scen.search_box)
        return budget is not None or rep.mode_count == scen.expected_modes + self.offset


class SmallDelta:
    """One op: the generic (d=2, k=3, seed=1) arrangement at one delta, with
    500 starts; C(3,2)+3 = 6 modes are expected for every delta. A
    GmModesError while building the mixture is a failed op."""

    EXPONENTS = (5, 8, 11, 14, 18)

    def __init__(self, seed, tiny, offset):
        self.seed, self.offset = seed, offset
        self.deltas = [2.0 ** -j for j in ((5, 18) if tiny else self.EXPONENTS)]

    def warm_up(self):
        self.check(self.deltas[0])

    def ops(self):
        for delta in self.deltas:
            yield f"delta=2^{round(np.log2(delta))}", lambda delta=delta: self.check(delta)

    def check(self, delta):
        scen = constructions.arrangement_scenario(constructions.generic_arrangement(2, 3, seed=1), delta)
        starts = modefinder.default_starts(scen, budget=500, seed=self.seed)
        rep = modefinder.find_critical_points(scen.mixture, starts, search_box=scen.search_box)
        return rep.mode_count == 6 + self.offset


WORKLOADS = {"catalog": Catalog, "cold_cli": ColdCli, "oracle_k2": OracleK2, "product_k9": ProductK9,
             "small_delta": SmallDelta}


def measure(wl, seconds, tracer=None):
    """Whole passes until ``seconds`` have elapsed, to the nearest half pass.

    With a tracer, passes alternate untraced and traced (ending on a traced
    one), so both kinds see the same machine load and the difference of
    their medians is the tracing overhead. Returns the untraced and the
    traced passes, each as pass times, op times, failures and, when traced,
    each pass's span range ``(root, end)``.
    """
    plain = {"pass_s": [], "op_s": [], "failed": 0}
    traced = {"pass_s": [], "op_s": [], "failed": 0, "roots": []}
    reported = set()
    t_start = time.monotonic()
    while True:
        on = tracer is not None and len(plain["pass_s"]) > len(traced["pass_s"])
        acc = traced if on else plain
        if on:
            tracer.install(LAYER_MODULES)
            wl.tracer = tracer
            root = tracer.begin("pass")
        t_pass = time.monotonic()
        for label, fn in wl.ops():
            if on:
                sid = tracer.begin("op")
            t0 = time.monotonic()
            try:
                ok = fn()
            except GmModesError as exc:
                ok, label = False, f"{label}: {type(exc).__name__}: {exc}"
            acc["op_s"].append(time.monotonic() - t0)
            if on:
                tracer.end(sid)
            if not ok:
                acc["failed"] += 1
                if label not in reported:
                    reported.add(label)
                    print(f"FAILED {type(wl).__name__} op {label}", flush=True)
        acc["pass_s"].append(time.monotonic() - t_pass)
        if on:
            tracer.end(root)
            acc["roots"].append((root, len(tracer.spans)))
            tracer.uninstall()
            wl.tracer = None
        mean_pass = statistics.fmean(plain["pass_s"] + traced["pass_s"])
        if (tracer is None or on) and time.monotonic() - t_start >= seconds - 0.5 * mean_pass:
            return plain, traced


def environment() -> dict:
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def per_pass_layers(tracer, roots):
    """Median over traced passes of each layer total, plus derived ratios,
    and the number of passes whose layer self times exceed the pass."""
    selfs = self_times(tracer.spans)
    per_pass, over = [], 0
    for root, end in roots:
        m = layer_metrics(tracer.spans, root, end, selfs)
        used, conv = m.get("modefinder.starts_used", 0), m.get("modefinder.starts_converged", 0)
        m["modefinder.converged_ratio"] = conv / used if used else 0.0
        m["modefinder.dedup_ratio"] = m.get("modefinder.distinct_points", 0) / conv if conv else 0.0
        m["modefinder.evals_per_start"] = m.get("modefinder.fcp_evaluate_calls", 0) / used if used else 0.0
        m["trace.layer_self_s"] = sum(m.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
        over += m["trace.layer_self_s"] > tracer.spans[root][2] - tracer.spans[root][1]
        per_pass.append(m)
    keys = set().union(*per_pass)
    return {k: statistics.median(m.get(k, 0.0) for m in per_pass) for k in sorted(keys)}, over


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--perturb", type=int, default=0, help="added to every expected count")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.seed, args.tiny, args.perturb)
    wl.warm_up()
    out = {"ready": time.monotonic()}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    out["env"] = environment()
    if not args.trace:
        plain, _ = measure(wl, args.seconds)
        out.update(plain)
    else:
        tracer = Tracer()
        plain, traced = measure(wl, args.seconds, tracer)
        roots = traced.pop("roots")
        out.update(traced)
        out["untraced_pass_s"] = plain["pass_s"]
        out["attempted_untraced"] = len(plain["op_s"])
        out["failed"] += plain["failed"]
        out["layers"], out["layer_time_violations"] = per_pass_layers(tracer, roots)
        out["eager_modules"] = EAGER_MODULES
        out["cli_runs"] = getattr(wl, "cli_runs", [])
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json.gz"), out["env"])
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = (children if isinstance(wl, ColdCli) else own) / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
