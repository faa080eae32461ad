"""Command-line entry point.

One binary with subcommands covering the full workflow: simulate rendered
samples, estimate the pipeline gain, generate impulse cubes, estimate knot
coordinates, fit display models, emit gamma-correction cubes, and validate
model predictions.

Exit codes: 0 success, 1 computational failure (non-convergence, degenerate
data), 2 I/O or format error, 64 usage error.  Messages go to stderr; data
goes to the requested output file, or to stdout when no output is given.
File bodies are byte-stable for identical flags and inputs; run metadata
(tool version, resolved configuration, timestamp) goes to a ``.meta.json``
sidecar next to each ``--out`` file and the ``validate --plot`` SVG (the
impulse cubes of ``gen-delta-cubes`` get none); a writer that fails leaves no file.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .calibrate import (GammaCorrectionSpec, build_correction_cube,
                        estimate_knots_delta, estimate_knots_optimize,
                        estimate_scale_constant, load_sweeps)
from .cubelut import (DEFAULT_GRID_SIZE, CubeTonemap, KnotGrid,
                      default_knot_grid, make_delta_cube, parse_cube,
                      serialize_cube)
from .display import fit_achromatic, fit_chromatic, load_achromatic_csv, \
    load_chromatic_csv, load_display, save_display
from .errors import FitError, HdrpcalError, UsageError, ValidationError
from .harness import (MATERIAL_FLOOR, generate_samples, load_samples,
                      save_samples, validate_model)
from .scene import DEFAULT_SCALE_CONSTANT

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_IO = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _arg_type(convert, ok, expected: str):
    """An argparse type: ``convert`` the text, then require ``ok`` of it."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


_seed = _arg_type(int, lambda x: x >= 0, "a non-negative integer")
_count = _arg_type(int, lambda x: x >= 1, "a positive integer")
_positive = _arg_type(float, lambda x: 0 < x < np.inf, "a finite number > 0")
_fraction = _arg_type(float, lambda x: 0 <= x <= 1, "a number in [0, 1]")


def _build_parser() -> _Parser:
    parser = _Parser(prog="hdrpcal",
                     description="Render-pipeline model and display "
                                 "gamma-correction toolkit.")
    parser.add_argument("--version", action="version", version=f"hdrpcal {__version__}")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress informational messages on stderr")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    fmt = argparse.ArgumentDefaultsHelpFormatter
    # each flag that several subcommands share, defined once as a parent
    gain, knots, tonemap = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    gain.add_argument("--c", type=_positive, default=DEFAULT_SCALE_CONSTANT,
                      help="pipeline gain")
    knots.add_argument("--knots", default=None,
                       help="knot CSV; the built-in delta estimates if not given")
    tonemap.add_argument("--tonemap", default="none",
                         help="'none' or a path to a .cube file")

    p = sub.add_parser("simulate", formatter_class=fmt, parents=[tonemap, knots, gain],
                       help="generate random rendered samples")
    p.add_argument("--samples", type=_count, default=1000,
                   help="number of samples")
    p.add_argument("--seed", type=_seed, default=0, help="random seed")
    p.add_argument("--material", choices=["lambert", "unlit"], default="lambert",
                   help="material kind")
    p.add_argument("--quantize", action="store_true",
                   help="quantize values to 8-bit precision")
    p.add_argument("--out", default=None, help="output sample CSV")

    p = sub.add_parser("fit-c", formatter_class=fmt,
                       help="estimate the pipeline gain from samples")
    p.add_argument("--in", dest="infile", required=True, help="sample CSV")
    p.add_argument("--out", default=None, help="output JSON report")

    p = sub.add_parser("gen-delta-cubes", formatter_class=fmt,
                       help="write the 32 impulse cube files")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("estimate-knots", formatter_class=fmt, parents=[gain],
                       help="estimate tonemapping knot coordinates")
    p.add_argument("--mode", choices=["delta", "optimize"], required=True)
    p.add_argument("--in", dest="infile", action="append", required=True,
                   help="delta mode: sweep CSV with header m,u,t; optimize "
                        "mode: sample CSV (repeatable, one per --cube)")
    p.add_argument("--cube", action="append", default=None,
                   help="cube file a sample CSV was rendered under "
                        "(optimize mode; repeat per --in)")
    p.add_argument("--init", default=None,
                   help="initial knot CSV (optimize mode; default: built-in "
                        "delta estimates)")
    p.add_argument("--seed", type=_seed, default=0, help="holdout split seed")
    p.add_argument("--out", default=None, help="output knot CSV")

    p = sub.add_parser("fit-display", formatter_class=fmt,
                       help="fit a display model from measurements")
    p.add_argument("--in", dest="infile", required=True,
                   help="measurement CSV (achromatic: v,L; chromatic: "
                        "v_r,v_g,v_b,X,Y,Z)")
    p.add_argument("--mode", choices=["achromatic", "chromatic"], required=True)
    p.add_argument("--out", default=None, help="output display JSON")

    p = sub.add_parser("make-cube", formatter_class=fmt, parents=[knots],
                       help="emit a gamma-correction cube for a display")
    p.add_argument("--display", required=True, help="display JSON")
    p.add_argument("--r", type=_positive, default=1.0,
                   help="displayable input range r, for every channel")
    p.add_argument("--refine", action="store_true",
                   help="least-squares refine the knot outputs")
    p.add_argument("--out", default=None, help="output .cube file")

    p = sub.add_parser("validate", formatter_class=fmt, parents=[tonemap, knots, gain],
                       help="score model predictions against recorded samples")
    p.add_argument("--in", dest="infile", required=True, help="sample CSV")
    p.add_argument("--filter-m", type=_fraction, default=MATERIAL_FLOOR,
                   help="material floor for the filtered error statistic")
    p.add_argument("--out", default=None, help="output report CSV")
    p.add_argument("--plot", default=None, help="output SVG scatter")
    return parser


def _info(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


class _Body(list):
    """A text stream that keeps the strings written to it: a body held once."""

    write = list.append

    def tell(self) -> int:
        return sum(map(len, self))


def _emit(args, write, out: str | None) -> None:
    """Buffer the body ``write(file)`` writes, then put it in ``out`` with a
    metadata sidecar, or on stdout when ``out`` is None."""
    body = _Body()
    write(body)
    if out is None:
        sys.stdout.writelines(body)
        return
    path = Path(out)
    with open(path, "w") as fh:
        fh.writelines(body)
    meta = {"tool": "hdrpcal", "version": __version__, "command": args.command,
            "config": {k: v for k, v in sorted(vars(args).items())
                       if k not in ("command", "quiet")},
            "written": datetime.datetime.now(datetime.timezone.utc).isoformat()}
    Path(str(path) + ".meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    _info(args, f"wrote {path}")


def _read(path: str, what: str, reader):
    """``reader(file)`` on the input ``path`` opened as text; a decode error
    names the file."""
    try:
        with open(path) as fh:
            return reader(fh)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{what} {path}: {exc}") from exc


def _load_knots(knots_arg: str | None) -> KnotGrid:
    if knots_arg is None:
        return default_knot_grid()
    return _read(knots_arg, "knot CSV", KnotGrid.from_csv)


def _load_tonemap(tonemap_arg: str, knots_arg: str | None):
    if tonemap_arg == "none":
        return None
    lut = _read(tonemap_arg, "cube file", parse_cube)
    return CubeTonemap(_load_knots(knots_arg), lut)


def _cmd_simulate(args) -> int:
    tonemap = _load_tonemap(args.tonemap, args.knots)
    kind = "lambertian" if args.material == "lambert" else "unlit"
    samples = generate_samples(args.samples, args.seed, kind=kind,
                               tonemap=tonemap, quantize=args.quantize,
                               scale_constant=args.c)
    _emit(args, lambda fh: save_samples(samples, fh), args.out)
    return EXIT_OK


def _cmd_fit_c(args) -> int:
    est = estimate_scale_constant(_read(args.infile, "sample CSV", load_samples))
    doc = {"c": est.c, "slope": est.slope, "n_samples": est.n_samples,
           "n_channel_points": est.n_channel_points,
           "n_saturated_excluded": est.n_saturated}
    _emit(args, lambda fh: fh.write(json.dumps(doc, indent=2) + "\n"), args.out)
    return EXIT_OK


def _cmd_gen_delta_cubes(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for m in range(1, DEFAULT_GRID_SIZE + 1):
        with open(outdir / f"delta_{m:02d}.cube", "w") as fh:
            serialize_cube(make_delta_cube(m), fh)
    _info(args, f"wrote {DEFAULT_GRID_SIZE} impulse cubes to {outdir}")
    return EXIT_OK


def _cmd_estimate_knots(args) -> int:
    if args.mode == "delta":
        if len(args.infile) != 1:
            raise UsageError("delta mode takes exactly one --in sweep CSV")
        grid, report = estimate_knots_delta(_read(args.infile[0], "sweep CSV", load_sweeps))
        for m in report.no_response:
            _info(args, f"knot {m}: no response (inactive)")
        for m, note in report.anomalies.items():
            _info(args, f"knot {m}: {note}")
    else:
        cubes = args.cube or []
        if len(cubes) != len(args.infile):
            raise UsageError("optimize mode needs one --cube per --in")
        init = _load_knots(args.init)
        datasets = [(_read(sample_path, "sample CSV", load_samples),
                     _read(cube_path, "cube file", parse_cube))
                    for sample_path, cube_path in zip(args.infile, cubes)]
        grid, report = estimate_knots_optimize(datasets, init,
                                               scale_constant=args.c,
                                               seed=args.seed)
        status = "converged" if report.converged else "did not converge"
        if report.notes:
            status += ": " + "; ".join(report.notes)
        _info(args, f"train median |error| = {report.train_median_255:.4g}/255, "
                    f"holdout = {report.holdout_median_255:.4g}/255 "
                    f"({report.n_evaluations} evaluations, {status})")
    _emit(args, grid.to_csv, args.out)
    return EXIT_OK


def _cmd_fit_display(args) -> int:
    load, fit = ((load_achromatic_csv, fit_achromatic) if args.mode == "achromatic"
                 else (load_chromatic_csv, fit_chromatic))
    display, report = fit(_read(args.infile, "measurement CSV", load))
    _info(args, f"fit residual rms = {report.residual_rms:.6g} "
                f"over {report.n_points} points")
    _emit(args, lambda fh: save_display(display, fh, report), args.out)
    return EXIT_OK


def _cmd_make_cube(args) -> int:
    display = _read(args.display, "display JSON", load_display)
    spec = GammaCorrectionSpec(display, input_range=args.r)
    lut = build_correction_cube(spec, _load_knots(args.knots), refine=args.refine)
    _emit(args, lambda fh: serialize_cube(lut, fh), args.out)
    return EXIT_OK


def _cmd_validate(args) -> int:
    samples = _read(args.infile, "sample CSV", load_samples)
    tonemap = _load_tonemap(args.tonemap, args.knots)
    report = validate_model(samples, tonemap=tonemap, scale_constant=args.c,
                            material_floor=args.filter_m)
    _info(args, f"median |error| = {report.median_abs_255:.4g}/255 "
                f"(filtered: {report.filtered_median_abs_255:.4g}/255, "
                f"{report.n_excluded} samples excluded)")
    _emit(args, report.to_csv, args.out)
    if args.plot is not None:
        _emit(args, report.to_svg, args.plot)
    return EXIT_OK


_HANDLERS = {
    "simulate": _cmd_simulate,
    "fit-c": _cmd_fit_c,
    "gen-delta-cubes": _cmd_gen_delta_cubes,
    "estimate-knots": _cmd_estimate_knots,
    "fit-display": _cmd_fit_display,
    "make-cube": _cmd_make_cube,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"hdrpcal: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FitError as exc:
        print(f"hdrpcal: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except (HdrpcalError, OSError) as exc:
        print(f"hdrpcal: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
