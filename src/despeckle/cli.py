"""Command line pipeline around the library.

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
is the number of workers the filter starts: never more than the CPUs,
the engine's row tiles or SRAD's full row strips. Lee and Frost run on
the calling thread and read neither setting.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import statistics
import sys
import time
from pathlib import Path

from .baselines import (
    FrostParams,
    LeeParams,
    SradParams,
    _plan_strips,
    frost_filter,
    lee_filter,
    srad,
)
from .errors import DomainError, NumericError, ParameterError, PgmParseError, check_int, check_real
from .image import GrayImage
from .metrics import CSV_HEADER, evaluate
from .nlm import NlmParams, RobustNlmParams, _plan_tiles, nlm_denoise, robust_nlm_denoise
from .noise import SpeckleParams, add_multiplicative_speckle, estimate_noise_sigma, exp_expand, log_compress
from .pgm import load_pgm, save_pgm

THREADS_ENV_VAR = "DESPECKLE_THREADS"
H2_CAP = 1e12
H1_FLOOR = 1e-6

FILTER_CHOICES = ("nlm", "robust-nlm", "lee", "frost", "srad")
MODEL_CHOICES = {"mult-gauss": "multiplicative_gaussian", "rayleigh": "rayleigh"}


def _echo(pairs: dict) -> None:
    text = " ".join(f"{key}={value}" for key, value in pairs.items())
    print(f"resolved-config: {text}", file=sys.stderr)


def _fmt(value: float) -> str:
    return f"{value:g}"


def _resolve_threads(flag: int | None) -> int:
    if flag is not None:
        return check_int(flag, "--threads (0 = auto)")
    raw = os.environ.get(THREADS_ENV_VAR, "")
    if raw.strip() == "":
        return 0
    try:
        requested = int(raw)
    except ValueError:
        raise ParameterError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from None
    return check_int(requested, f"{THREADS_ENV_VAR} (0 = auto)")


def _prepare_filter(args: argparse.Namespace, work: GrayImage):
    """Resolve filter parameters against the working-domain image. The
    non-local filters and SRAD read the thread settings; Lee and Frost
    do not.

    Returns (run, echo) where run maps GrayImage -> GrayImage and echo
    is the dict of effective parameters for the stderr line.
    """
    name = args.filter
    echo: dict = {"filter": name}

    if name in ("nlm", "robust-nlm"):
        threads = _resolve_threads(args.threads)
        sigma_n = args.sigma_n  # stays None when no default needs it
        if sigma_n is not None:
            sigma_n = check_real(sigma_n, "--sigma-n", nonnegative=True)
        elif args.h is None or (name == "robust-nlm" and args.h2 is None):
            sigma_n = estimate_noise_sigma(work).sigma_n
        h1 = float(args.h) if args.h is not None else max(9.0 * sigma_n, H1_FLOOR)
        self_weight = args.self_weight.replace("-", "_")
        base = NlmParams(h=h1, search_radius=args.search_radius,
                         patch_radius=args.patch_radius, sigma_s=args.sigma_s,
                         self_weight=self_weight)
        side = 2 * base.search_radius + 1
        patch_side = 2 * base.patch_radius + 1
        echo.update({
            "search_window": f"{side}x{side}",
            "patch_window": f"{patch_side}x{patch_side}",
            "sigma_s": _fmt(base.sigma_s),
            "self_weight": base.self_weight,
            "sigma_n": "-" if sigma_n is None else _fmt(sigma_n),
            "threads": _plan_tiles(threads, work.height, work.width)[1],
        })
        if name == "nlm":
            echo["h"] = _fmt(base.h)
            return (lambda image: nlm_denoise(image, base, threads=threads)), echo
        if args.h2 is not None:
            h2 = float(args.h2)
        elif sigma_n < 1e-6:
            h2 = H2_CAP
        else:
            h2 = min(148.0 / sigma_n, H2_CAP)
        params = RobustNlmParams(base=base, h2=h2, prefilter_sigma=args.prefilter_sigma)
        echo.update({"h1": _fmt(base.h), "h2": _fmt(h2),
                     "prefilter_sigma": _fmt(params.prefilter_sigma)})
        return (lambda image: robust_nlm_denoise(image, params, threads=threads)), echo

    if name == "lee":
        if args.noise_sigma is not None:
            noise_sigma = float(args.noise_sigma)
        else:
            est = estimate_noise_sigma(work).sigma_n
            mean = float(work.pixels.mean())
            noise_sigma = est / mean if mean > 0 else 0.0
        params = LeeParams(window_radius=args.window_radius, noise_sigma=noise_sigma)
        side = 2 * params.window_radius + 1
        echo.update({"window": f"{side}x{side}", "noise_sigma": _fmt(params.noise_sigma)})
        return (lambda image: lee_filter(image, params)), echo

    if name == "frost":
        params = FrostParams(window_radius=args.window_radius, damping=args.damping)
        side = 2 * params.window_radius + 1
        echo.update({"window": f"{side}x{side}", "damping": _fmt(params.damping)})
        return (lambda image: frost_filter(image, params)), echo

    # srad: the diffusion needs strictly positive pixels; PGM inputs may
    # contain zeros, so shift up before and back down after.
    params = SradParams(iterations=args.iterations, dt=args.dt,
                        q0=args.q0, rho=args.rho)
    threads = _resolve_threads(args.threads)
    lo = float(work.pixels.min())
    shift = (1e-6 - lo) if lo <= 0.0 else 0.0
    echo.update({"iterations": params.iterations, "dt": _fmt(params.dt),
                 "q0": _fmt(params.q0), "rho": _fmt(params.rho),
                 "positivity_shift": _fmt(shift),
                 "threads": _plan_strips(threads, work.height, work.width)[1]})

    def run(image: GrayImage) -> GrayImage:
        lifted = srad(GrayImage(image.pixels + shift), params, threads=threads)
        return GrayImage(lifted.pixels - shift)

    return run, echo


def _load_and_prepare(args: argparse.Namespace, echo: dict):
    """Load, move to the filtering domain, resolve the filter and echo
    the resolved configuration: the part `denoise` and `bench` share.
    ``echo`` holds the command's own fields.

    Returns (working-domain image, filter run, domain, worker count).
    """
    img = load_pgm(args.input)
    domain = args.domain or ("log" if args.filter == "robust-nlm" else "linear")
    epsilon = check_real(args.epsilon, "--epsilon")
    work = log_compress(img, epsilon) if domain == "log" else img
    run, filter_echo = _prepare_filter(args, work)
    _echo({"command": args.command, "input": args.input, **echo, "domain": domain,
           "epsilon": _fmt(epsilon), **filter_echo})
    return work, run, domain, filter_echo.get("threads", 1)  # 1: lee, frost


def run_synth(args: argparse.Namespace) -> int:
    img = load_pgm(args.input)
    params = SpeckleParams(model=MODEL_CHOICES[args.model], sigma=args.sigma,
                           seed=args.seed)
    _echo({"command": "synth", "input": args.input, "output": args.output,
           "model": args.model, "sigma": _fmt(params.sigma), "seed": params.seed,
           "maxval": args.maxval})
    noisy = add_multiplicative_speckle(img, params)
    save_pgm(noisy, args.output, maxval=args.maxval)
    sidecar = str(args.output) + ".noise.txt"
    Path(sidecar).write_text(
        f"model={args.model}\nsigma={_fmt(params.sigma)}\nseed={params.seed}\n",
        encoding="ascii",
    )
    return 0


def run_denoise(args: argparse.Namespace) -> int:
    work, run, domain, _ = _load_and_prepare(args, {"output": args.output, "maxval": args.maxval})
    filtered = run(work)
    out = exp_expand(filtered, args.epsilon) if domain == "log" else filtered
    save_pgm(out, args.output, maxval=args.maxval)
    return 0


def run_eval(args: argparse.Namespace) -> int:
    reference = load_pgm(args.reference)
    test = load_pgm(args.test)
    image_id = args.image_id if args.image_id is not None else Path(args.test).stem
    _echo({"command": "eval", "reference": args.reference, "test": args.test,
           "image_id": image_id, "filter_name": args.filter_name,
           "peak": _fmt(args.peak),
           "report": args.report if args.report else "-"})
    report = evaluate(reference, test, peak=args.peak)
    row = report.csv_row(image_id, args.filter_name)
    print(row)
    if args.report:
        path = Path(args.report)
        fresh = not path.exists() or path.stat().st_size == 0
        with path.open("a", encoding="ascii") as handle:
            if fresh:
                handle.write(CSV_HEADER + "\n")
            handle.write(row + "\n")
    return 0


def run_bench(args: argparse.Namespace) -> int:
    repeats = check_int(args.repeats, "--repeats", 1)
    work, run, _, threads = _load_and_prepare(args, {"repeats": repeats})
    times = []
    digests = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = run(work)
        times.append(time.perf_counter() - start)
        digests.append(hashlib.sha256(out.pixels.tobytes()).hexdigest())
    if len(set(digests)) != 1:
        raise NumericError("filter outputs differ across bench repeats")
    best = min(times)
    med = statistics.median(times)
    pixels = work.height * work.width
    rate = pixels / best if best > 0 else math.inf
    print(f"bench: filter={args.filter} repeats={repeats} threads={threads} "
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
    filter_args.add_argument("--filter", choices=FILTER_CHOICES, default="robust-nlm")
    filter_args.add_argument("--domain", choices=("linear", "log"), default=None,
                             help="filtering domain; default log for robust-nlm, linear otherwise")
    filter_args.add_argument("--epsilon", type=float, default=1.0,
                             help="offset used by the log transform (default 1.0)")
    filter_args.add_argument("--search-radius", type=int, default=NlmParams.search_radius)
    filter_args.add_argument("--patch-radius", type=int, default=NlmParams.patch_radius)
    filter_args.add_argument("--sigma-s", type=float, default=None,
                             help="patch kernel sigma; default patch_radius / 2")
    filter_args.add_argument("--h", type=float, default=None,
                             help="similarity decay (h1 for robust-nlm); default 9 * sigma_n")
    filter_args.add_argument("--h2", type=float, default=None,
                             help="corruption decay for robust-nlm; default 148 / sigma_n, capped at 1e12")
    filter_args.add_argument("--prefilter-sigma", type=float,
                             default=RobustNlmParams.prefilter_sigma)
    filter_args.add_argument("--sigma-n", type=float, default=None,
                             help="noise level override; skips blind estimation")
    filter_args.add_argument("--self-weight", choices=("natural", "max-neighbor"),
                             default=NlmParams.self_weight)
    filter_args.add_argument("--window-radius", type=int, default=LeeParams.window_radius,
                             help="lee/frost window radius")
    filter_args.add_argument("--noise-sigma", type=float, default=None,
                             help="lee noise coefficient of variation; default sigma_n / mean")
    filter_args.add_argument("--damping", type=float, default=FrostParams.damping,
                             help="frost damping K")
    filter_args.add_argument("--iterations", type=int, default=SradParams.iterations,
                             help="srad iterations")
    filter_args.add_argument("--dt", type=float, default=SradParams.dt, help="srad time step")
    filter_args.add_argument("--q0", type=float, default=SradParams.q0,
                             help="srad initial speckle scale")
    filter_args.add_argument("--rho", type=float, default=SradParams.rho, help="srad q0 decay rate")
    filter_args.add_argument("--threads", type=int, default=None,
                             help=f"worker cap for nlm filters and srad, at most the CPU count; "
                                  f"0 = one per CPU; default from {THREADS_ENV_VAR}")

    synth = sub.add_parser("synth", help="corrupt a clean PGM with synthetic speckle")
    synth.add_argument("input")
    synth.add_argument("output")
    synth.add_argument("--model", choices=tuple(MODEL_CHOICES), default="mult-gauss")
    synth.add_argument("--sigma", type=float, default=0.2)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--maxval", type=int, choices=(255, 65535), default=255)

    denoise = sub.add_parser("denoise", parents=[filter_args], help="run one filter over a PGM")
    denoise.add_argument("input")
    denoise.add_argument("output")
    denoise.add_argument("--maxval", type=int, choices=(255, 65535), default=255)

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
    except FileNotFoundError as exc:
        missing = exc.filename if exc.filename else exc
        print(f"error: missing input file: {missing}", file=sys.stderr)
        return 2
    except (ParameterError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PgmParseError, NumericError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
