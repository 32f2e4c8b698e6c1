"""The library's denoise pipeline, and the command line around it.

`denoise` moves an image to the filtering domain, resolves the filter's
parameters at the CLI's defaults, filters and maps the result back; the
``denoise`` and ``bench`` commands run the same `_prepare` between load
and save. It lives here because the benchmark's tracer times its stages
through this module's names; ``import despeckle`` skips this module,
whose argparse, hashlib and statistics cost ~20 ms to import.

Subcommands: ``synth`` corrupts a clean PGM with synthetic speckle,
``denoise`` runs one filter over a PGM, ``eval`` scores a denoised
image against its reference, and ``bench`` times a filter.

Exit codes: 0 success, 2 usage or parameter problems (including a missing
input file), 1 runtime failures (parse errors, numeric blowups, a failed
engine worker process, I/O, running out of memory). Every run echoes its
fully resolved configuration to standard error before doing any work, so
logs capture the effective parameters. The worker cap for the non-local
filters and SRAD comes from --threads, else from the DESPECKLE_THREADS
environment variable; 0 means one worker per CPU. The echoed ``threads``
is the number of workers the filter starts, from the plan it starts
them by (`workers.plan`). Lee and Frost run on the calling thread and
read neither setting.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import statistics
import sys
import time
from dataclasses import fields
from pathlib import Path

from .baselines import (
    FrostParams,
    LeeParams,
    SradParams,
    frost_filter,
    lee_filter,
    srad,
    srad_plan,
)
from .errors import DomainError, NumericError, ParameterError, PgmParseError, check_int, check_real
from .image import GrayImage
from .metrics import CSV_HEADER, evaluate
from .nlm import NlmParams, RobustNlmParams, engine_plan, nlm_denoise, robust_nlm_denoise
from .noise import SpeckleParams, add_multiplicative_speckle, estimate_noise_sigma, exp_expand, log_compress
from .pgm import load_pgm, save_pgm

THREADS_ENV_VAR = "DESPECKLE_THREADS"
H2_CAP = 1e12
H1_FLOOR = 1e-6

FILTER_CHOICES = ("nlm", "robust-nlm", "lee", "frost", "srad")
DOMAIN_CHOICES = ("linear", "log")
MODEL_CHOICES = {"mult-gauss": "multiplicative_gaussian", "rayleigh": "rayleigh"}

# The pipeline's parameter keywords (every field of the parameter classes,
# one per filter flag), and those whose defaults follow from the noise level.
PARAM_NAMES = tuple(dict.fromkeys(
    field.name for cls in (NlmParams, RobustNlmParams, LeeParams, FrostParams, SradParams)
    for field in fields(cls) if field.name != "base"))
_NOISE_DEFAULTS = {"nlm": ("h",), "robust-nlm": ("h", "h2"), "lee": ("noise_sigma",)}


def _echo(pairs: dict) -> None:
    shown = ("-" if v is None else f"{v:g}" if isinstance(v, float) else v for v in pairs.values())
    text = " ".join(f"{key}={value}" for key, value in zip(pairs, shown))
    print(f"resolved-config: {text}", file=sys.stderr)


def _resolve_threads(flag: int | None) -> int:
    if flag is not None:
        return flag
    raw = os.environ.get(THREADS_ENV_VAR, "")
    if raw.strip() == "":
        return 0
    try:
        requested = int(raw)
    except ValueError:
        raise ParameterError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from None
    return check_int(requested, f"{THREADS_ENV_VAR} (0 = auto)")


def _build(cls, params: dict, **fixed):
    """``cls`` from ``fixed`` and the ``params`` it has fields for."""
    names = {field.name for field in fields(cls)}
    return cls(**{name: value for name, value in params.items() if name in names}, **fixed)


def _window(radius: int) -> str:
    return f"{2 * radius + 1}x{2 * radius + 1}"


def _prepare(img: GrayImage, filter: str = "robust-nlm", *, domain: str | None = None,
             epsilon: float = 1.0, threads: int = 0, sigma_n: float | None = None, **params):
    """`denoise` in two steps: resolve every parameter for ``img``, and
    return (run, config); run() filters and maps back to ``img``'s domain."""
    threads = check_int(threads, "threads (0 = auto)")
    if filter not in FILTER_CHOICES:
        raise ParameterError(f"filter must be one of {FILTER_CHOICES}, got {filter!r}")
    domain = domain or ("log" if filter == "robust-nlm" else "linear")
    if domain not in DOMAIN_CHOICES:
        raise ParameterError(f"domain must be one of {DOMAIN_CHOICES}, got {domain!r}")
    unknown = sorted(set(params) - set(PARAM_NAMES))
    if unknown:
        raise ParameterError(f"no filter takes {unknown}; the parameters are {PARAM_NAMES}")
    epsilon = check_real(epsilon, "epsilon")
    work = log_compress(img, epsilon) if domain == "log" else img
    params = {name: value for name, value in params.items() if value is not None}
    needs = _NOISE_DEFAULTS.get(filter, ())
    if sigma_n is not None and needs:
        sigma_n = check_real(sigma_n, "sigma_n", nonnegative=True)
    elif any(name not in params for name in needs):  # else sigma_n stays None
        sigma_n = estimate_noise_sigma(work).sigma_n
    config: dict = {"domain": domain, "epsilon": epsilon, "filter": filter}
    if filter in ("nlm", "robust-nlm"):
        if "h" not in params:
            params["h"] = max(9.0 * sigma_n, H1_FLOOR)
        base = _build(NlmParams, params)
        config.update({"search_window": _window(base.search_radius),
                       "patch_window": _window(base.patch_radius), "sigma_s": base.sigma_s,
                       "self_weight": base.self_weight, "sigma_n": sigma_n,
                       "threads": engine_plan(threads, work.height, work.width, base,
                                              filter == "robust-nlm")[1]})
        if filter == "nlm":
            config["h"] = base.h
            filtered = lambda: nlm_denoise(work, base, threads=threads)
        else:
            if "h2" not in params:
                params["h2"] = H2_CAP if sigma_n < 1e-6 else min(148.0 / sigma_n, H2_CAP)
            robust = _build(RobustNlmParams, params, base=base)
            config.update({"h1": base.h, "h2": robust.h2,
                           "prefilter_sigma": robust.prefilter_sigma})
            filtered = lambda: robust_nlm_denoise(work, robust, threads=threads)
    elif filter == "lee":
        if "noise_sigma" not in params:
            mean = float(work.pixels.mean())
            params["noise_sigma"] = sigma_n / mean if mean > 0 else 0.0
        lee = _build(LeeParams, params)
        config.update({"window": _window(lee.window_radius), "noise_sigma": lee.noise_sigma})
        filtered = lambda: lee_filter(work, lee)
    elif filter == "frost":
        frost = _build(FrostParams, params)
        config.update({"window": _window(frost.window_radius), "damping": frost.damping})
        filtered = lambda: frost_filter(work, frost)
    else:
        # srad: the diffusion needs strictly positive pixels; PGM inputs
        # may contain zeros, so shift up before and back down after.
        diffusion = _build(SradParams, params)
        lo = float(work.pixels.min())
        shift = (1e-6 - lo) if lo <= 0.0 else 0.0
        config.update({"iterations": diffusion.iterations, "dt": diffusion.dt,
                       "q0": diffusion.q0, "rho": diffusion.rho, "positivity_shift": shift,
                       "threads": srad_plan(threads, work.height, work.width, diffusion)[1]})
        filtered = lambda: GrayImage(
            srad(GrayImage(work.pixels + shift), diffusion, threads=threads).pixels - shift)
    if domain == "linear":
        return filtered, config
    return (lambda: exp_expand(filtered(), epsilon)), config


def denoise(img: GrayImage, filter: str = "robust-nlm", **options) -> tuple[GrayImage, dict]:
    """Run one of `FILTER_CHOICES` over ``img`` as ``despeckle denoise``
    does; return the output, in ``img``'s domain, and the resolved
    configuration: the filter's fields of the CLI's ``resolved-config:``
    line in its order, with ``threads`` the workers the filter starts.

    ``domain`` "log" filters ln(v + ``epsilon``) (default 1.0) and expands
    back; the default is log for robust-nlm, else "linear". ``threads``
    caps the workers of the non-local filters and SRAD (0, the default:
    one per CPU). The other keywords are the fields of the filter's
    parameter class (`PARAM_NAMES`); its default fills one not given or
    None, and another filter's are ignored. The noise level ``sigma_n``,
    estimated on the filtering-domain image when absent and needed, sets
    ``h`` = max(9 sigma_n, `H1_FLOOR`), ``h2`` = 148 / sigma_n (`H2_CAP`
    above it or for sigma_n < 1e-6) and Lee's ``noise_sigma`` = sigma_n /
    mean. SRAD's input is shifted to strictly positive pixels and back.
    An unknown filter, domain or keyword, or a bad value, is a
    ParameterError.
    """
    run, config = _prepare(img, filter, **options)
    return run(), config


def _options(args: argparse.Namespace) -> dict:
    """`_prepare`'s keywords from the filter flags that were given; it
    and the parameter classes fill and check the rest. Lee and Frost
    read no thread setting."""
    options = {name: value for name in ("filter", "domain", "epsilon", "sigma_n", *PARAM_NAMES)
               if (value := getattr(args, name)) is not None}
    if args.self_weight is not None:
        options["self_weight"] = args.self_weight.replace("-", "_")
    if args.filter not in ("lee", "frost"):
        options["threads"] = _resolve_threads(args.threads)
    return options


def run_synth(args: argparse.Namespace) -> int:
    img = load_pgm(args.input)
    params = SpeckleParams(model=MODEL_CHOICES[args.model], sigma=args.sigma,
                           seed=args.seed)
    _echo({"command": "synth", "input": args.input, "output": args.output,
           "model": args.model, "sigma": params.sigma, "seed": params.seed,
           "maxval": args.maxval})
    noisy = add_multiplicative_speckle(img, params)
    save_pgm(noisy, args.output, maxval=args.maxval)
    Path(str(args.output) + ".noise.txt").write_text(
        f"model={args.model}\nsigma={params.sigma:g}\nseed={params.seed}\n", encoding="ascii")
    return 0


def run_denoise(args: argparse.Namespace) -> int:
    img = load_pgm(args.input)
    # every filter keeps its output within the input's range
    maxval = args.maxval or (255 if img.pixels.max() <= 255 else 65535)
    run, config = _prepare(img, **_options(args))
    del img  # the input need not outlive the run
    _echo({"command": "denoise", "input": args.input, "output": args.output,
           "maxval": maxval, **config})
    save_pgm(run(), args.output, maxval=maxval)
    return 0


def run_eval(args: argparse.Namespace) -> int:
    reference = load_pgm(args.reference)
    test = load_pgm(args.test)
    image_id = args.image_id if args.image_id is not None else Path(args.test).stem
    _echo({"command": "eval", "reference": args.reference, "test": args.test,
           "image_id": image_id, "filter_name": args.filter_name, "peak": args.peak,
           "report": args.report or None})
    report = evaluate(reference, test, peak=args.peak)
    row = report.csv_row(image_id, args.filter_name)
    print(row)
    if args.report:
        with Path(args.report).open("a", encoding="ascii") as handle:
            if handle.tell() == 0:
                handle.write(CSV_HEADER + "\n")
            handle.write(row + "\n")
    return 0


def run_bench(args: argparse.Namespace) -> int:
    repeats = check_int(args.repeats, "--repeats", 1)
    run, config = _prepare(load_pgm(args.input), **_options(args))
    _echo({"command": "bench", "input": args.input, "repeats": repeats, **config})
    times, digests = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        out = run()
        times.append(time.perf_counter() - start)
        digests.append(hashlib.sha256(out.pixels.tobytes()).hexdigest())
    if len(set(digests)) != 1:
        raise NumericError("filter outputs differ across bench repeats")
    best = min(times)
    med = statistics.median(times)
    pixels = out.pixels.size
    rate = pixels / best if best > 0 else math.inf
    print(f"bench: filter={config['filter']} repeats={repeats} threads={config.get('threads', 1)} "
          f"pixels={pixels} min_s={best:.6f} median_s={med:.6f} "
          f"pixels_per_second={rate:.0f} checksum={digests[0]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="despeckle",
        description="Speckle denoising pipeline: synthesize noise, filter, score, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    filter_args = argparse.ArgumentParser(add_help=False)
    filter_args.add_argument("--filter", choices=FILTER_CHOICES)
    filter_args.add_argument("--domain", choices=DOMAIN_CHOICES,
                             help="filtering domain; default log for robust-nlm, linear otherwise")
    filter_args.add_argument("--epsilon", type=float,
                             help="offset used by the log transform (default 1.0)")
    filter_args.add_argument("--search-radius", type=int)
    filter_args.add_argument("--patch-radius", type=int)
    filter_args.add_argument("--sigma-s", type=float,
                             help="patch kernel sigma; default patch_radius / 2")
    filter_args.add_argument("--h", type=float,
                             help="similarity decay (h1 for robust-nlm); default 9 * sigma_n")
    filter_args.add_argument("--h2", type=float,
                             help="corruption decay for robust-nlm; default 148 / sigma_n, capped at 1e12")
    filter_args.add_argument("--prefilter-sigma", type=float)
    filter_args.add_argument("--sigma-n", type=float,
                             help="noise level override; skips blind estimation")
    filter_args.add_argument("--self-weight", choices=("natural", "max-neighbor"))
    filter_args.add_argument("--window-radius", type=int, help="lee/frost window radius")
    filter_args.add_argument("--noise-sigma", type=float,
                             help="lee noise coefficient of variation; default sigma_n / mean")
    filter_args.add_argument("--damping", type=float, help="frost damping K")
    filter_args.add_argument("--iterations", type=int, help="srad iterations")
    filter_args.add_argument("--dt", type=float, help="srad time step")
    filter_args.add_argument("--q0", type=float, help="srad initial speckle scale")
    filter_args.add_argument("--rho", type=float, help="srad q0 decay rate")
    filter_args.add_argument("--threads", type=int,
                             help=f"worker cap for nlm filters and srad, at most the CPU count; "
                                  f"0 = one per CPU; default from {THREADS_ENV_VAR}")

    synth = sub.add_parser("synth", help="corrupt a clean PGM with synthetic speckle")
    synth.add_argument("input")
    synth.add_argument("output")
    synth.add_argument("--model", choices=tuple(MODEL_CHOICES), default="mult-gauss")
    synth.add_argument("--sigma", type=float, default=0.2)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--maxval", type=int, choices=(255, 65535), default=255,
                       help="output maxval; noisy samples above it are clipped")

    denoise = sub.add_parser("denoise", parents=[filter_args], help="run one filter over a PGM")
    denoise.add_argument("input")
    denoise.add_argument("output")
    denoise.add_argument("--maxval", type=int, choices=(255, 65535),
                         help="output maxval; default 255 if every input sample is at most 255, "
                              "else 65535")

    evaluate_cmd = sub.add_parser("eval", help="score a denoised image against its reference")
    evaluate_cmd.add_argument("reference")
    evaluate_cmd.add_argument("test")
    evaluate_cmd.add_argument("--report", default=None,
                              help="CSV file to append the row to (header written when new)")
    evaluate_cmd.add_argument("--image-id", default=None,
                              help="identifier column; default: test file stem")
    evaluate_cmd.add_argument("--filter-name", default="-")
    evaluate_cmd.add_argument("--peak", type=float, default=255.0)

    bench = sub.add_parser("bench", parents=[filter_args], help="time a filter on one input")
    bench.add_argument("input")
    bench.add_argument("--repeats", type=int, default=3)

    return parser


_RUNNERS = {"synth": run_synth, "denoise": run_denoise, "eval": run_eval, "bench": run_bench}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors (exit 2) and --help (exit 0)
        return int(exc.code or 0)
    try:
        return _RUNNERS[args.command](args)
    except (ParameterError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PgmParseError, NumericError, OSError, MemoryError) as exc:
        inputs = {vars(args)[key] for key in ("input", "reference", "test") if key in vars(args)}
        if isinstance(exc, FileNotFoundError) and exc.filename in inputs:
            print(f"error: missing input file: {exc.filename}", file=sys.stderr)
            return 2
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
