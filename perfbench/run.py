"""Closed-loop benchmark of the despeckle package.

    python3 perfbench/run.py --workload cli-denoise-512 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
its `src/`. One client in this process runs one op at a time, the next
starting when the last returns. Every op's output is checked (see
`Checker`). With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 ops alternate, by blocks of the workload's
inputs, between untraced and traced, and it carries the per-layer
metrics. A full report (and the spans of a traced run) is written to
perfbench/out/. Exit code 1 means a check failed, 2 a usage error or no
program to measure.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Output, Workload  # noqa: E402

SETUP_REPEATS = 3
# op_tail_s needs at least TAIL_BEYOND samples above it, so the loop runs
# on past --seconds until it has one more than that. Every workload has
# fewer inputs than that, so a traced run always traces at least one block.
TAIL_BEYOND = 10
MIN_SAMPLES = TAIL_BEYOND + 1

END_TO_END_UNITS = {
    "setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "px_per_s": "1/s",
    "error_rate": "ratio", "peak_rss_mib": "MiB", "psnr_db": "dB", "epi": "1",
}
# error_rate is 0 on a healthy run; it reaches the result line through
# `attempted`/`failed` and is printed with the others in the report.
RESULT_METRICS = tuple(m for m in END_TO_END_UNITS if m != "error_rate")


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest nearest-rank percentile with TAIL_BEYOND samples above
    it, as (value, percentile); None with too few samples."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND
    return xs[rank - 1], 100.0 * rank / n


def layer_unit(name: str) -> str:
    units = {"nlm.px_per_s": "1/s", "nlm.ops_computed": "op", "nlm.bytes_computed": "B",
             "nlm.ops_per_byte": "op/B", "pgm.bytes_in": "B", "pgm.bytes_out": "B"}
    return units.get(name, "s" if name.endswith("_s") else "count")


class Checker:
    """Runs ops and checks each output.

    An op fails if it raises, if the CLI exits nonzero, if the
    workload's own check finds a problem, if an input's output checksum
    differs from the first one seen for it (repeats and the other thread
    count alike), or if its quality leaves the band in tolerances.json.
    """

    def __init__(self, workload: Workload, tolerances: dict):
        self.workload = workload
        self.tolerances = tolerances
        self.checksums: dict[int, str] = {}
        self.quality: dict[int, tuple[float, float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, key: int, threads: int | None, trace=contextlib.nullcontext()) -> float:
        """Run op `key` inside `trace` and check it; returns the op's wall seconds."""
        self.attempted += 1
        problem = None
        with trace:
            start = time.perf_counter()
            try:
                raw = self.workload.op(key, threads)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                problem = f"raised {exc!r}"
            seconds = time.perf_counter() - start
        if problem is None:
            try:
                problem = self.verify(key, self.workload.check(key, raw))
            except Exception as exc:
                problem = f"output check raised {exc!r}"
        if problem:
            self.failed += 1
            self.problems.append(f"input {key} threads {threads}: {problem}")
        return seconds

    def verify(self, key: int, out: Output) -> str | None:
        if out.problem:
            return out.problem
        first = self.checksums.setdefault(key, out.checksum)
        if out.checksum != first:
            return f"checksum {out.checksum[:16]} differs from {first[:16]}"
        band = self.tolerances[out.band]
        for name, value in (("psnr_db", out.psnr_db), ("epi", out.epi)):
            lo, hi = band[name]
            if not lo <= value <= hi:
                return f"{name} {value:.4f} outside [{lo}, {hi}] ({out.band})"
        self.quality.setdefault(key, (out.psnr_db, out.epi))
        return None


def machine(nproc: int) -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {"nproc": nproc, "caches": caches, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "platform": platform.platform()}


def to_bytes(size: str) -> int | None:
    units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    try:
        return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    except (ValueError, IndexError):
        return None


def measure(workload: Workload, checker: Checker, seconds: float, trace: bool, tracer):
    """The timed closed loop. Returns (untraced op seconds, traced op seconds)."""
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline or len(untraced) + len(traced) < MIN_SAMPLES:
        key = k % workload.inputs
        if trace and (k // workload.inputs) % 2 == 1:
            traced.append(checker.run(key, workload.op_threads, tracer.installed(k)))
        else:
            untraced.append(checker.run(key, workload.op_threads))
        k += 1
    return untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "despeckle" / "__init__.py").is_file():
        print(f"error: no despeckle sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import despeckle
    if Path(despeckle.__file__).resolve().parent != (src / "despeckle").resolve():
        print(f"error: imported despeckle from {despeckle.__file__}, not {src}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - PROCESS_START

    from tracing import Tracer, layer_metrics

    nproc = len(os.sched_getaffinity(0))
    tolerances = json.loads((HERE / "tolerances.json").read_text())[args.workload]
    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, nproc)
        checker = Checker(workload, tolerances)
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.prepare()
            checker.run(0, workload.op_threads)
            setups.append(time.perf_counter() - start)
        tracer = Tracer()
        untraced, traced = measure(workload, checker, args.seconds, bool(args.trace), tracer)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if workload.check_threads is not None:
            checker.run(0, workload.check_threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    engine = workload.engine()
    machine_info = machine(nproc)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info,
        "setup_repeats_s": setups, "import_s": import_s,
        "attempted": checker.attempted, "failed": checker.failed, "problems": checker.problems,
        "op_threads": workload.op_threads, "check_threads": workload.check_threads,
        "checksums": {str(k): v for k, v in sorted(checker.checksums.items())},
        "engine": None if engine is None else {
            **asdict(engine), "working_set_bytes_per_worker": engine.working_set_bytes(),
            "l2_bytes_per_core": to_bytes(machine_info["caches"].get("L2", ""))},
        "untraced_op_s": untraced, "traced_op_s": traced,
    }
    if args.trace:
        values = layer_metrics(tracer, traced, untraced)
        units = {name: layer_unit(name) for name in values}
        notes = {}
    else:
        tail_value, tail_pct = tail(untraced)
        quality = list(checker.quality.values()) or [(0.0, 0.0)]
        values = {
            "setup_s": import_s + statistics.median(setups),
            "op_p50_s": statistics.median(untraced),
            "op_tail_s": tail_value,
            "px_per_s": workload.pixels_per_op * len(untraced) / sum(untraced),
            "error_rate": checker.failed / checker.attempted,
            "peak_rss_mib": peak_rss_mib,
            "psnr_db": statistics.fmean(q[0] for q in quality),
            "epi": statistics.fmean(q[1] for q in quality),
        }
        units = END_TO_END_UNITS
        notes = {"op_p50_s": f" samples={len(untraced)}",
                 "op_tail_s": f" percentile=p{tail_pct:.1f} samples={len(untraced)}",
                 "error_rate": f" failed={checker.failed} attempted={checker.attempted}"}
        report["op_tail_percentile"] = tail_pct
    report["metrics"] = {name: {"value": v, "unit": units[name]} for name, v in values.items()}

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        with (out_dir / f"{stem}.spans.jsonl").open("w") as spans:
            for s in tracer.spans:
                spans.write(json.dumps(asdict(s)) + "\n")

    for name, entry in report["metrics"].items():
        print(f"{args.workload} {name} {entry['value']:.6g} {entry['unit']}{notes.get(name, '')}")
    for problem in checker.problems:
        print(f"{args.workload} FAILED {problem}")
    print(json.dumps({"machine": machine_info, "engine": report["engine"],
                      "checksums": report["checksums"]}))
    metrics = report["metrics"]
    if not args.trace:
        metrics = {name: metrics[name] for name in RESULT_METRICS}
    correct = checker.failed == 0
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
