"""Command-line front end: construct scenarios, count modes, print bound
tables, export density grids and ridgeline samples, and verify the whole
scenario catalog.

Every JSON artifact embeds the tool version and, as ``config``, the
command's own arguments, defaults filled in, so a run can be reproduced
from its own output. The ``timestamp`` field is the only part that varies
between identical runs.
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
from dataclasses import asdict

import numpy as np

from . import __version__, bounds
from .constructions import (
    arrangement_scenario,
    cross_example,
    duistermaat_triangle,
    generic_arrangement,
    product_of_triangles,
    scenario_catalog,
    scenario_from_metadata,
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
from .mixture import Mixture, mixture_to_dict
from .modefinder import (
    AscentOptions,
    _checked_box,
    _on_halves,
    _ridgeline_halves,
    _RidgelineHalf,
    default_starts,
    find_critical_points,
    ridgeline_oracle_k2,
)

# The scenarios of ``gmmodes construct``, each built from the parsed arguments.
_CONSTRUCTIONS = {
    "cross": lambda a: cross_example(),
    "duistermaat": lambda a: duistermaat_triangle(a.sigma),
    "univariate": lambda a: univariate_pair(a.mu1, a.sigma1, a.mu2, a.sigma2, a.alpha),
    "arrangement": lambda a: arrangement_scenario(generic_arrangement(a.d, a.k, seed=a.seed), a.delta),
    "seven-probe": lambda a: seven_mode_probe(a.sigma_t, a.sigma_n),
    "product": lambda a: product_of_triangles(a.n, a.sigma),
}


def _envelope(args, payload: dict) -> dict:
    """A JSON artifact: ``payload`` under the tool, its version, the time
    and ``config``, the command's own parsed arguments."""
    return {
        "tool": "gmmodes",
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "config": {key: value for key, value in vars(args).items() if key != "func"},
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
    build = _CONSTRUCTIONS.get(args.scenario)
    if build is None:
        raise UnknownScenario(
            f"unknown scenario {args.scenario!r}; choose from {', '.join(_CONSTRUCTIONS)}"
        )
    scen = build(args)
    base = args.output_path or args.scenario
    mix_doc = _envelope(args, {"mixture": mixture_to_dict(scen.mixture)})
    meta_doc = _envelope(args, {"metadata": scenario_metadata(scen)})
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
    meta_path = path.removesuffix(".mixture.json") + ".meta.json"
    if path.endswith(".mixture.json") and os.path.exists(meta_path):
        doc = _load_json(meta_path)
        meta = doc.get("metadata") if isinstance(doc, dict) else doc
        if meta is not None and not isinstance(meta, dict):
            raise InvalidParameter(f"{meta_path}: metadata must be a JSON object")
    return mix, meta


def cmd_modes(args) -> int:
    mix, meta = _load_mixture_file(args.mixture)
    scen = scenario_from_metadata(mix, meta)
    starts = default_starts(scen, budget=args.start_budget, seed=args.seed)
    opts = AscentOptions(gradient_tolerance=args.gradient_tolerance, dedup_radius=args.dedup_radius)
    report = find_critical_points(mix, starts, opts=opts, search_box=scen.search_box)
    summary = _summary_line(report)
    if args.format == "text":
        # The summary line is the text document.
        _write(summary + "\n", args.output_path)
    else:
        # A document written to stdout must be all of stdout, so the summary
        # then goes to stderr.
        print(summary, file=sys.stderr if args.output_path in (None, "-") else sys.stdout)
        if args.format == "csv":
            _write(report.to_csv(), args.output_path)
        else:
            doc = _envelope(args, {"report": report.to_dict()})
            _write(json.dumps(doc, indent=2) + "\n", args.output_path)
    if report.mode_count == 0:  # every mixture has a mode, so this report missed it
        converged = f"{report.starts_converged} of {report.starts_used} starts converged"
        print(f"error: no start converged to a mode ({converged})", file=sys.stderr)
        return 1
    return 0


def cmd_bounds(args) -> int:
    if args.table:
        table = bounds.bound_table(args.table[0], args.table[1])
        if args.format == "csv":
            _write(bounds.table_to_csv(table), args.output_path)
        elif args.format == "json":
            cells = [asdict(b) for row in table for b in row]
            _write(json.dumps(_envelope(args, {"table": cells}), indent=2) + "\n", args.output_path)
        else:
            _write(bounds.table_to_text(table), args.output_path)
    else:
        if args.d is None or args.k is None:
            raise GmModesError("bounds needs either --table D_MAX K_MAX or both --d and --k")
        d, k = args.d, args.k
        line = (
            f"d={d} k={k} lower={bounds.lower(d, k)} "
            f"conjecture={bounds.conjecture(d, k)} upper={bounds.upper(d, k)}"
        )
        _write(line + "\n", args.output_path)
    return 0


def _corner(text: str | None, dim: int, default: np.ndarray) -> np.ndarray:
    """A box corner from a comma-separated --lo/--hi value, else the default.
    Its coordinates must be finite; a lo above hi scans that axis downward."""
    if text is None:
        return default
    try:
        corner = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise InvalidParameter(f"corner {text!r} is not comma-separated numbers") from exc
    if corner.shape != (dim,):
        raise DimensionMismatch(f"corner {text!r} has {corner.size} coordinates, the mixture has {dim}")
    if not np.all(np.isfinite(corner)):
        raise InvalidParameter(f"corner {text!r} has a non-finite coordinate")
    return corner


def cmd_scan(args) -> int:
    mix, meta = _load_mixture_file(args.mixture)
    if mix.dim not in (1, 2):
        raise UnsupportedDimension(f"grid scan supports d in {{1, 2}}, got d={mix.dim}")
    if not 1 <= args.res <= 2000:
        raise InvalidParameter(f"resolution {args.res} is outside 1..2000 per axis")
    box = _checked_box(mix, scenario_from_metadata(mix, meta).search_box)
    lo, hi = (_corner(text, mix.dim, default) for text, default in zip((args.lo, args.hi), box))
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
    _write(out.getvalue(), args.output_path)
    return 0


def cmd_ridgeline(args) -> int:
    mix, _ = _load_mixture_file(args.mixture)
    if mix.k != 2:
        raise GmModesError(f"ridgeline export requires exactly 2 components, got {mix.k}")
    if args.samples < 1:
        raise InvalidParameter(f"--samples must be >= 1, got {args.samples}")
    t = np.linspace(0.0, 1.0, args.samples)
    with np.errstate(divide="ignore"):  # theta = log(t / (1 - t)) is -inf at t = 0 and +inf at t = 1
        x = _on_halves(_ridgeline_halves(mix), _RidgelineHalf.points, np.log(t) - np.log1p(-t), mix.dim)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["t"] + [f"x_{i + 1}" for i in range(mix.dim)] + ["log_density"])
    for ti, xi, li in zip(t, x, mix.log_density(x)):
        writer.writerow([repr(float(v)) for v in (ti, *xi, li)])
    _write(out.getvalue(), args.output_path)
    return 0


def cmd_verify(args) -> int:
    if args.starts < 1:
        raise InvalidParameter(f"--starts must be >= 1, got {args.starts}")
    scenarios = [s for s in scenario_catalog() if args.only is None or args.only in s.name]
    if not scenarios:
        raise InvalidParameter(f"--only {args.only!r} matches no scenario in the catalog")
    failures = 0
    for scen in scenarios:
        starts = default_starts(scen, budget=max(args.starts, 250 * scen.mixture.k), seed=args.seed)
        report = find_critical_points(scen.mixture, starts, search_box=scen.search_box)
        if scen.expected_modes is None:
            verdict, ok = "no-expectation", True
        else:
            ok = report.mode_count == scen.expected_modes
            verdict = "pass" if ok else "FAIL"
        oracle = sum(p.kind == "mode" for p in ridgeline_oracle_k2(scen.mixture)) if scen.mixture.k == 2 else None
        if oracle not in (None, report.mode_count):
            ok, verdict = False, "FAIL(oracle)"
        if report.mode_count == 0:
            ok, verdict = False, "FAIL(no-mode)"
        if not report.bound_check.mode_count_within_upper:
            ok, verdict = False, "FAIL(upper-bound)"
        failures += 0 if ok else 1
        print(
            f"{verdict:15s} {scen.name:42s} expected={scen.expected_modes} "
            f"measured={report.mode_count} {'' if oracle is None else f'oracle={oracle} '}({_summary_line(report)})"
        )
    return 1 if failures else 0


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gmmodes", description=__doc__)
    p.add_argument("--version", action="version", version=f"gmmodes {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="write a named scenario to mixture + metadata files")
    c.add_argument("scenario", help=f"one of: {', '.join(_CONSTRUCTIONS)}")
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
    c.add_argument("--output", dest="output_path", default=None)
    c.set_defaults(func=cmd_construct)

    m = sub.add_parser("modes", help="find and classify the critical points of a mixture file")
    m.add_argument("mixture")
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--starts", dest="start_budget", type=int, default=500)
    m.add_argument("--dedup-radius", type=float, default=None)
    m.add_argument("--grad-tol", dest="gradient_tolerance", type=float, default=AscentOptions.gradient_tolerance)
    m.add_argument("--output", dest="output_path", default=None)
    m.add_argument("--format", choices=("json", "csv", "text"), default="text")
    m.set_defaults(func=cmd_modes)

    b = sub.add_parser("bounds", help="exact bound triples for (d, k)")
    b.add_argument("--d", type=int, default=None)
    b.add_argument("--k", type=int, default=None)
    b.add_argument("--table", type=int, nargs=2, metavar=("D_MAX", "K_MAX"))
    b.add_argument("--output", dest="output_path", default=None)
    b.add_argument("--format", choices=("json", "csv", "text"), default="text")
    b.set_defaults(func=cmd_bounds)

    s = sub.add_parser("scan", help="CSV grid of log-density over a box (d <= 2)")
    s.add_argument("mixture")
    s.add_argument("--lo", default=None, help="comma-separated lower corner")
    s.add_argument("--hi", default=None, help="comma-separated upper corner")
    s.add_argument("--res", type=int, default=200)
    s.add_argument("--output", dest="output_path", default=None)
    s.set_defaults(func=cmd_scan)

    r = sub.add_parser("ridgeline", help="CSV of ridgeline curve samples for k = 2")
    r.add_argument("mixture")
    r.add_argument("--samples", type=int, default=1001)
    r.add_argument("--output", dest="output_path", default=None)
    r.set_defaults(func=cmd_ridgeline)

    v = sub.add_parser("verify", help="run the full scenario catalog and check mode counts")
    v.add_argument("--only", default=None, help="substring filter on scenario names")
    v.add_argument("--seed", type=int, default=1)
    v.add_argument("--starts", type=int, default=500)
    v.set_defaults(func=cmd_verify)

    return p


def _join_corners(argv: list[str]) -> list[str]:
    """Rewrite ``--lo V`` and ``--hi V`` as ``--lo=V`` and ``--hi=V``:
    argparse reads a value such as ``-1,-2`` as an option, not as a value."""
    out = []
    for a in argv:
        if out and out[-1] in ("--lo", "--hi"):
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


def main(argv=None) -> int:
    # Fewnomial upper bounds pass Python's default 4300-digit limit on
    # int -> str conversion from k = 167 on; print them exactly.
    # Releases without the limit have no setter.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(_join_corners(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except GmModesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
