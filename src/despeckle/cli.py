"""The library's denoise pipeline, and the command line around it.

`denoise` moves an image to the filtering domain, resolves the filter's
parameters at the CLI's defaults, filters and maps the result back; the
``denoise`` and ``bench`` commands run the same `_prepare` between load
and save. It lives here because the benchmark's tracer times its stages
through this module's names; ``import despeckle`` skips this module,
whose argparse, hashlib and statistics cost ~20 ms to import. `_prepare`
runs each filter from its row of `FILTERS`, adding only the defaults
that follow from the noise level.

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
from dataclasses import asdict, fields
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
from .errors import (DomainError, NumericError, ParameterError, PgmParseError, check_int, check_real,
                     nearest_real)
from .image import GrayImage
from .metrics import CSV_HEADER, evaluate
from .nlm import SELF_WEIGHT_MODES, NlmParams, RobustNlmParams, engine_plan, nlm_denoise, robust_nlm_denoise
from .noise import SpeckleParams, add_multiplicative_speckle, estimate_noise_sigma, exp_expand, log_compress
from .pgm import load_pgm, save_pgm

THREADS_ENV_VAR = "DESPECKLE_THREADS"
H2_CAP = 1e12
H1_FLOOR = 1e-6

# Each filter's row: its parameter class, whose fields are its keywords,
# its flags and its resolved-config keys; its worker plan (None: it runs
# on the calling thread); and its call on (image, parameters, threads).
# The calls look the filters up in this module when they run, where the
# benchmark's tracer swaps them.
FILTERS = {
    "nlm": (NlmParams, engine_plan, lambda *run: nlm_denoise(*run)),
    "robust-nlm": (RobustNlmParams, engine_plan, lambda *run: robust_nlm_denoise(*run)),
    "lee": (LeeParams, None, lambda img, params, _: lee_filter(img, params)),
    "frost": (FrostParams, None, lambda img, params, _: frost_filter(img, params)),
    "srad": (SradParams, srad_plan, lambda *run: srad(*run)),
}
DOMAIN_CHOICES = ("linear", "log")
MODEL_CHOICES = {"mult-gauss": "multiplicative_gaussian", "rayleigh": "rayleigh"}

_FIELDS = {name: {field.name: field for field in fields(row[0])} for name, row in FILTERS.items()}
# The pipeline's parameter keywords, one per filter flag.
PARAM_NAMES = tuple(dict.fromkeys(name for group in _FIELDS.values() for name in group))
# The defaults that follow from the noise level, by field: f(sigma_n, filtered pixels),
# each the nearest value its field accepts.
_NOISE_LED = {
    "h": lambda sigma_n, v: nearest_real(max(9.0 * sigma_n, H1_FLOOR)),
    "h2": lambda sigma_n, v: H2_CAP if sigma_n < 1e-6 else nearest_real(min(148.0 / sigma_n, H2_CAP)),
    "noise_sigma": lambda sigma_n, v: (nearest_real(sigma_n / mean, nonnegative=True)
                                       if (mean := float(v.mean())) > 0 else 0.0),
}


def _flag(name: str) -> dict:
    """The argparse keywords of parameter ``name``'s flag: its field's type
    (`SELF_WEIGHT_MODES` for ``self_weight``, which may also be spelled
    with "-"), and help naming the filters that take it."""
    takers = [filter for filter, group in _FIELDS.items() if name in group]
    field = _FIELDS[takers[0]][name]
    kind = ({"choices": SELF_WEIGHT_MODES, "type": lambda mode: mode.replace("-", "_")}
            if name == "self_weight" else {"type": int if field.type == "int" else float})
    return {**kind, "help": "for " + ", ".join(takers)}


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


def _prepare(img: GrayImage, filter: str = "robust-nlm", *, domain: str | None = None,
             epsilon: float = 1.0, threads: int = 0, sigma_n: float | None = None, **params):
    """`denoise` in two steps: resolve every parameter for ``img``, and
    return (run, config); run() filters and maps back to ``img``'s domain."""
    threads = check_int(threads, "threads (0 = auto)")
    if filter not in FILTERS:
        raise ParameterError(f"filter must be one of {tuple(FILTERS)}, got {filter!r}")
    cls, plan, call = FILTERS[filter]
    domain = domain or ("log" if filter == "robust-nlm" else "linear")
    if domain not in DOMAIN_CHOICES:
        raise ParameterError(f"domain must be one of {DOMAIN_CHOICES}, got {domain!r}")
    unknown = sorted(set(params) - set(PARAM_NAMES))
    if unknown:
        raise ParameterError(f"no filter takes {unknown}; the parameters are {PARAM_NAMES}")
    epsilon = check_real(epsilon, "epsilon")
    if sigma_n is not None:
        sigma_n = check_real(sigma_n, "sigma_n", nonnegative=True)
    work = log_compress(img, epsilon) if domain == "log" else img
    params = {name: value for name, value in params.items()
              if value is not None and name in _FIELDS[filter]}
    needs = [name for name in _FIELDS[filter] if name in _NOISE_LED and name not in params]
    if needs and sigma_n is None:
        sigma_n = estimate_noise_sigma(work).sigma_n
    params.update({name: _NOISE_LED[name](sigma_n, work.pixels) for name in needs})
    built = cls(**params)
    config: dict = {"domain": domain, "epsilon": epsilon, "filter": filter}
    if _NOISE_LED.keys() & _FIELDS[filter]:  # the noise level behind the defaults
        config["sigma_n"] = sigma_n
    filtered = lambda: call(work, built, threads)
    if plan is not None:
        config["threads"] = plan(threads, work.height, work.width, built)[1]
    config.update(asdict(built))
    if domain == "linear":
        return filtered, config
    return (lambda: exp_expand(filtered(), epsilon)), config


def denoise(img: GrayImage, filter: str = "robust-nlm", **options) -> tuple[GrayImage, dict]:
    """Run one of `FILTERS` over ``img`` as ``despeckle denoise`` does;
    return the output, in ``img``'s domain, and the filter's fields of the
    ``resolved-config:`` line, ``threads`` being the workers it starts:
    ``denoise(img, **config)`` repeats the run.

    ``domain`` "log" filters ln(v + ``epsilon``) (default 1.0) and expands
    back; the default is log for robust-nlm, else "linear". ``threads``
    caps the workers of the non-local filters and SRAD (0, the default:
    one per CPU). The other keywords are the fields of the filter's
    parameter class (`PARAM_NAMES`); its default fills one not given or
    None, and another filter's are ignored. The noise level ``sigma_n``,
    estimated on the filtering-domain image when absent and needed, sets
    ``h`` = max(9 sigma_n, `H1_FLOOR`), ``h2`` = 148 / sigma_n (`H2_CAP`
    above it or for sigma_n < 1e-6) and Lee's ``noise_sigma`` = sigma_n /
    mean, each the nearest value its field accepts (`errors.nearest_real`:
    h = 9e100 becomes 1e100, noise_sigma = 1e-102 becomes 0). An unknown
    filter, domain or keyword, or a bad value, is a ParameterError.
    """
    run, config = _prepare(img, filter, **options)
    return run(), config


def _options(args: argparse.Namespace) -> dict:
    """`_prepare`'s keywords from the filter flags that were given; it
    and the parameter classes fill and check the rest. Lee and Frost
    read no thread setting."""
    options = {name: value for name in ("filter", "domain", "epsilon", "sigma_n", *PARAM_NAMES)
               if (value := getattr(args, name)) is not None}
    if args.filter not in ("lee", "frost"):
        options["threads"] = _resolve_threads(args.threads)
    return options


def _maxval(args: argparse.Namespace, img: GrayImage) -> int:
    """--maxval, else 255 if every sample of the input is at most 255, else 65535."""
    return args.maxval or (255 if img.pixels.max() <= 255 else 65535)


def run_synth(args: argparse.Namespace) -> int:
    img = load_pgm(args.input)
    params = SpeckleParams(model=MODEL_CHOICES[args.model], sigma=args.sigma,
                           seed=args.seed)
    maxval = _maxval(args, img)
    _echo({"command": "synth", "input": args.input, "output": args.output,
           "model": args.model, "sigma": params.sigma, "seed": params.seed,
           "maxval": maxval})
    noisy = add_multiplicative_speckle(img, params)
    save_pgm(noisy, args.output, maxval=maxval)
    Path(str(args.output) + ".noise.txt").write_text(
        f"model={args.model}\nsigma={params.sigma:g}\nseed={params.seed}\n", encoding="ascii")
    return 0


def run_denoise(args: argparse.Namespace) -> int:
    img = load_pgm(args.input)
    maxval = _maxval(args, img)  # every filter keeps its output within the input's range
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
    if args.json:  # the file holds a JSON list of records, one per run; checked before the runs
        import json  # here: `denoise` and the library need not load it
        path = Path(args.json)
        try:
            records = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
        except ValueError:
            records = None
        if not isinstance(records, list):
            raise ParameterError(f"--json {args.json} does not hold a JSON list")
        if not path.parent.is_dir():
            raise FileNotFoundError(f"--json {args.json}: no directory {path.parent}")
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
    best, pixels = min(times), out.pixels.size
    record = {"filter": config["filter"], "pixels": pixels, "threads": config.get("threads", 1),
              "repeats": repeats, "min_s": best, "median_s": statistics.median(times),
              "checksum": digests[0], "config": config}
    print(f"bench: filter={record['filter']} repeats={repeats} threads={record['threads']} "
          f"pixels={pixels} min_s={best:.6f} median_s={record['median_s']:.6f} "
          f"pixels_per_second={pixels / best if best > 0 else math.inf:.0f} checksum={digests[0]}")
    if args.json:
        path.write_text(json.dumps(records + [record], indent=1) + "\n", encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="despeckle",
        description="Speckle denoising pipeline: synthesize noise, filter, score, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    output_args = argparse.ArgumentParser(add_help=False)
    output_args.add_argument("--maxval", type=int, choices=(255, 65535),
                             help="output maxval, above which samples are clipped; default 255 "
                                  "if every input sample is at most 255, else 65535")

    filter_args = argparse.ArgumentParser(add_help=False)
    filter_args.add_argument("--filter", choices=tuple(FILTERS))
    filter_args.add_argument("--domain", choices=DOMAIN_CHOICES,
                             help="filtering domain; default log for robust-nlm, linear otherwise")
    filter_args.add_argument("--epsilon", type=float, help="offset used by the log transform")
    filter_args.add_argument("--sigma-n", type=float,
                             help="noise level override; skips blind estimation")
    for name in PARAM_NAMES:
        filter_args.add_argument("--" + name.replace("_", "-"), **_flag(name))
    filter_args.add_argument("--threads", type=int,
                             help=f"worker cap for nlm filters and srad, at most the CPU count; "
                                  f"0 = one per CPU; default from {THREADS_ENV_VAR}")

    synth = sub.add_parser("synth", parents=[output_args],
                           help="corrupt a clean PGM with synthetic speckle")
    synth.add_argument("input")
    synth.add_argument("output")
    synth.add_argument("--model", choices=tuple(MODEL_CHOICES), default="mult-gauss")
    synth.add_argument("--sigma", type=float, default=0.2)
    synth.add_argument("--seed", type=int, default=0)

    denoise = sub.add_parser("denoise", parents=[filter_args, output_args],
                             help="run one filter over a PGM")
    denoise.add_argument("input")
    denoise.add_argument("output")

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
    bench.add_argument("--json", help="append this run's record to the JSON list in this file")

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
