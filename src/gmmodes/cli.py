"""Command-line front end: construct scenarios, count modes, print bound
tables, export density grids and ridgeline samples, and verify the whole
scenario catalog.

Every JSON artifact embeds the tool version, the seed and the fully
resolved options, so a run can be reproduced from its own output. The
``timestamp`` field is the only part that varies between identical runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, bounds
from .constructions import (
    Scenario,
    arrangement_scenario,
    cross_example,
    duistermaat_triangle,
    generic_arrangement,
    product_of_triangles,
    scenario_catalog,
    scenario_metadata,
    seven_mode_probe,
    univariate_pair,
)
from .errors import (
    DimensionMismatch,
    GmModesError,
    InvalidParameter,
    UnknownScenario,
    UnsupportedDimension,
)
from .mixture import Mixture, load_mixture, mixture_to_dict
from .modefinder import (
    AscentOptions,
    _ridgeline_k2,
    default_starts,
    find_critical_points,
)

_CONSTRUCT_NAMES = ("cross", "duistermaat", "univariate", "arrangement", "seven-probe", "product")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    start_budget: int = 500
    gradient_tolerance: float = 1e-10
    dedup_radius: float | None = None
    output_path: str | None = None
    format: str = "text"

    def ascent_options(self) -> AscentOptions:
        return AscentOptions(
            gradient_tolerance=self.gradient_tolerance,
            dedup_radius=self.dedup_radius,
        )


def _envelope(config: RunConfig, payload: dict) -> dict:
    return {
        "tool": "gmmodes",
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "config": asdict(config),
        **payload,
    }


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidParameter(f"cannot write {path}: {exc.strerror}") from exc


def _scenario_for_mixture(mix: Mixture, meta: dict | None) -> Scenario:
    from .constructions import _search_box

    if meta is not None and "search_box" in meta:
        try:
            box = tuple(np.asarray(meta["search_box"][end], dtype=float) for end in ("lo", "hi"))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidParameter(f"metadata search_box needs numeric lo and hi ({exc!r})") from exc
        if box[0].shape != (mix.dim,) or box[1].shape != (mix.dim,):
            raise DimensionMismatch(f"metadata search_box does not match dim {mix.dim}")
        name = meta.get("name", "file")
        expected = meta.get("expected_modes")
        provenance = meta.get("provenance", "none")
    else:
        box = _search_box(mix)
        name, expected, provenance = "file", None, "none"
    return Scenario(
        name=name,
        mixture=mix,
        expected_modes=expected,
        expectation_provenance=provenance,
        search_box=box,
    )


def _summary_line(report) -> str:
    return (
        f"modes={report.mode_count} "
        f"saddles={report.count('saddle')} "
        f"minima={report.count('antimode')} "
        f"degenerate={report.count('degenerate')} "
        f"upper_bound={report.bound_check.upper}"
    )


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_construct(args) -> int:
    name = args.scenario
    if name == "cross":
        scen = cross_example()
    elif name == "duistermaat":
        scen = duistermaat_triangle(args.sigma)
    elif name == "univariate":
        scen = univariate_pair(args.mu1, args.sigma1, args.mu2, args.sigma2, args.alpha)
    elif name == "arrangement":
        arr = generic_arrangement(args.d, args.k, seed=args.seed)
        scen = arrangement_scenario(arr, args.delta)
    elif name == "seven-probe":
        scen = seven_mode_probe(args.sigma_t, args.sigma_n)
    elif name == "product":
        scen = product_of_triangles(args.n, args.sigma)
    else:
        raise UnknownScenario(
            f"unknown scenario {name!r}; choose from {', '.join(_CONSTRUCT_NAMES)}"
        )

    base = args.output or name
    config = RunConfig(seed=args.seed, output_path=base)
    mix_doc = _envelope(config, {"mixture": mixture_to_dict(scen.mixture)})
    meta = scenario_metadata(scen)
    if scen.arrangement is not None:
        meta["vertices"] = scen.arrangement.vertices.tolist()
        meta["normals"] = scen.arrangement.normals.tolist()
        meta["offsets"] = scen.arrangement.offsets.tolist()
        meta["genericity_margin"] = scen.arrangement.genericity_margin
    meta_doc = _envelope(config, {"metadata": meta})
    _write(json.dumps(mix_doc, indent=2) + "\n", base + ".mixture.json")
    _write(json.dumps(meta_doc, indent=2) + "\n", base + ".meta.json")
    print(f"wrote {base}.mixture.json and {base}.meta.json ({scen.name})")
    return 0


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidParameter(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise InvalidParameter(f"{path} is not valid JSON: {exc}") from exc


def _load_mixture_file(path: str) -> tuple[Mixture, dict | None]:
    doc = _load_json(path)
    if isinstance(doc, dict):
        doc = doc.get("mixture", doc)  # accept bare schema or enveloped file
    from .mixture import mixture_from_dict

    mix = mixture_from_dict(doc)
    meta = None
    meta_path = path.replace(".mixture.json", ".meta.json")
    if meta_path != path and os.path.exists(meta_path):
        doc = _load_json(meta_path)
        meta = doc.get("metadata") if isinstance(doc, dict) else doc
        if meta is not None and not isinstance(meta, dict):
            raise InvalidParameter(f"{meta_path}: metadata must be a JSON object")
    return mix, meta


def cmd_modes(args) -> int:
    config = RunConfig(
        seed=args.seed,
        start_budget=args.starts,
        gradient_tolerance=args.grad_tol,
        dedup_radius=args.dedup_radius,
        output_path=args.output,
        format=args.format,
    )
    mix, meta = _load_mixture_file(args.mixture)
    scen = _scenario_for_mixture(mix, meta)
    starts = default_starts(scen, budget=config.start_budget, seed=config.seed)
    report = find_critical_points(
        mix, starts, opts=config.ascent_options(), search_box=scen.search_box
    )
    print(_summary_line(report))
    if config.format == "csv":
        _write(report.to_csv(), config.output_path)
    elif config.format == "json" or config.output_path:
        doc = _envelope(config, {"report": report.to_dict()})
        _write(json.dumps(doc, indent=2) + "\n", config.output_path)
    return 0


def cmd_bounds(args) -> int:
    if args.table:
        table = bounds.bound_table(args.table[0], args.table[1])
        if args.format == "csv":
            _write(bounds.table_to_csv(table), args.output)
        elif args.format == "json":
            cells = [asdict(b) for row in table for b in row]
            _write(json.dumps({"version": __version__, "table": cells}, indent=2) + "\n", args.output)
        else:
            _write(bounds.table_to_text(table), args.output)
    else:
        if args.d is None or args.k is None:
            raise GmModesError("bounds needs either --table D_MAX K_MAX or both --d and --k")
        d, k = args.d, args.k
        line = (
            f"d={d} k={k} lower={bounds.lower(d, k)} "
            f"conjecture={bounds.conjecture(d, k)} upper={bounds.upper(d, k)}"
        )
        _write(line + "\n", args.output)
    return 0


def _corner(text: str | None, dim: int, default: np.ndarray) -> np.ndarray:
    """A box corner from a comma-separated --lo/--hi value, else the default."""
    if text is None:
        return default
    try:
        corner = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise InvalidParameter(f"corner {text!r} is not comma-separated numbers") from exc
    if corner.shape != (dim,):
        raise DimensionMismatch(f"corner {text!r} has {corner.size} coordinates, the mixture has {dim}")
    return corner


def cmd_scan(args) -> int:
    mix, meta = _load_mixture_file(args.mixture)
    if mix.dim not in (1, 2):
        raise UnsupportedDimension(f"grid scan supports d in {{1, 2}}, got d={mix.dim}")
    if not 1 <= args.res <= 2000:
        raise InvalidParameter(f"resolution {args.res} is outside 1..2000 per axis")
    scen = _scenario_for_mixture(mix, meta)
    lo, hi = (_corner(text, mix.dim, box) for text, box in zip((args.lo, args.hi), scen.search_box))
    axes = [np.linspace(lo[i], hi[i], args.res) for i in range(mix.dim)]
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["x", "y"][: mix.dim] + ["log_density"])
    # One log_density call per line of the grid along its last axis, so
    # memory stays at one line even at the largest resolution.
    for lead in itertools.product(*axes[:-1]):
        pts = np.column_stack([np.full(args.res, v) for v in lead] + [axes[-1]])
        for p, v in zip(pts, mix.log_density(pts)):
            writer.writerow([repr(float(c)) for c in p] + [repr(float(v))])
    _write(out.getvalue(), args.output)
    return 0


def cmd_ridgeline(args) -> int:
    mix, _ = _load_mixture_file(args.mixture)
    if mix.k != 2:
        raise GmModesError(f"ridgeline export requires exactly 2 components, got {mix.k}")
    if args.samples < 1:
        raise InvalidParameter(f"--samples must be >= 1, got {args.samples}")
    t = np.linspace(0.0, 1.0, args.samples)
    x = _ridgeline_k2(mix)(t)
    ld = mix.log_density(x)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["t"] + [f"x_{i + 1}" for i in range(mix.dim)] + ["log_density"])
    for i in range(len(t)):
        writer.writerow(
            [repr(float(t[i]))] + [repr(float(v)) for v in x[i]] + [repr(float(ld[i]))]
        )
    _write(out.getvalue(), args.output)
    return 0


def cmd_verify(args) -> int:
    config = RunConfig(seed=args.seed, start_budget=args.starts)
    scenarios = [s for s in scenario_catalog() if args.only is None or args.only in s.name]
    if not scenarios:
        raise InvalidParameter(f"--only {args.only!r} matches no scenario in the catalog")
    failures = 0
    for scen in scenarios:
        budget = max(config.start_budget, 250 * scen.mixture.k)
        starts = default_starts(scen, budget=budget, seed=config.seed)
        report = find_critical_points(
            scen.mixture, starts, opts=config.ascent_options(), search_box=scen.search_box
        )
        if scen.expected_modes is None:
            verdict, ok = "no-expectation", True
        else:
            ok = report.mode_count == scen.expected_modes
            verdict = "pass" if ok else "FAIL"
        if not report.bound_check.mode_count_within_upper:
            ok, verdict = False, "FAIL(upper-bound)"
        failures += 0 if ok else 1
        print(
            f"{verdict:15s} {scen.name:42s} expected={scen.expected_modes} "
            f"measured={report.mode_count} ({_summary_line(report)})"
        )
    return 1 if failures else 0


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gmmodes", description=__doc__)
    p.add_argument("--version", action="version", version=f"gmmodes {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="write a named scenario to mixture + metadata files")
    c.add_argument("scenario", help=f"one of: {', '.join(_CONSTRUCT_NAMES)}")
    c.add_argument("--sigma", type=float, default=0.72)
    c.add_argument("--mu1", type=float, default=0.0)
    c.add_argument("--sigma1", type=float, default=1.0)
    c.add_argument("--mu2", type=float, default=2.0)
    c.add_argument("--sigma2", type=float, default=1.0)
    c.add_argument("--alpha", type=float, default=0.5)
    c.add_argument("--d", type=int, default=2)
    c.add_argument("--k", type=int, default=3)
    c.add_argument("--delta", type=float, default=0.03125)
    c.add_argument("--sigma-t", type=float, default=0.5)
    c.add_argument("--sigma-n", type=float, default=0.01)
    c.add_argument("--n", type=int, default=2)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--output", default=None)
    c.set_defaults(func=cmd_construct)

    m = sub.add_parser("modes", help="find and classify the critical points of a mixture file")
    m.add_argument("mixture")
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--starts", type=int, default=500)
    m.add_argument("--dedup-radius", type=float, default=None)
    m.add_argument("--grad-tol", type=float, default=1e-10)
    m.add_argument("--output", default=None)
    m.add_argument("--format", choices=("json", "csv", "text"), default="text")
    m.set_defaults(func=cmd_modes)

    b = sub.add_parser("bounds", help="exact bound triples for (d, k)")
    b.add_argument("--d", type=int, default=None)
    b.add_argument("--k", type=int, default=None)
    b.add_argument("--table", type=int, nargs=2, metavar=("D_MAX", "K_MAX"))
    b.add_argument("--output", default=None)
    b.add_argument("--format", choices=("json", "csv", "text"), default="text")
    b.set_defaults(func=cmd_bounds)

    s = sub.add_parser("scan", help="CSV grid of log-density over a box (d <= 2)")
    s.add_argument("mixture")
    s.add_argument("--lo", default=None, help="comma-separated lower corner")
    s.add_argument("--hi", default=None, help="comma-separated upper corner")
    s.add_argument("--res", type=int, default=200)
    s.add_argument("--output", default=None)
    s.set_defaults(func=cmd_scan)

    r = sub.add_parser("ridgeline", help="CSV of ridgeline curve samples for k = 2")
    r.add_argument("mixture")
    r.add_argument("--samples", type=int, default=1001)
    r.add_argument("--output", default=None)
    r.set_defaults(func=cmd_ridgeline)

    v = sub.add_parser("verify", help="run the full scenario catalog and check mode counts")
    v.add_argument("--only", default=None, help="substring filter on scenario names")
    v.add_argument("--seed", type=int, default=1)
    v.add_argument("--starts", type=int, default=500)
    v.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GmModesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
