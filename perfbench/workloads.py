"""The benchmark's workloads and the checks on their outputs.

Each workload makes its own inputs from the workload seed (the program
only ever sees the generated files or arrays), runs one operation per
call of `op`, and turns the raw result into an `Output` in `check`.
The split keeps hashing and scoring out of the timed region.

Quality is scored with the benchmark's own PSNR and EPI below, not
with `despeckle.metrics`, so a broken metric in the program cannot
vouch for a broken filter.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPECKLE_SIGMA = 0.2
SPECKLE_MODELS = ("multiplicative_gaussian", "rayleigh")


def phantom(side: int) -> np.ndarray:
    """Piecewise-constant phantom: flat background, a rectangle, a disk
    and two blocks, scaled from a 256-pixel layout. Strictly positive."""
    img = np.full((side, side), 60.0)
    s = side / 256.0

    def span(a, b):
        return slice(round(a * s), round(b * s))

    img[span(40, 120), span(48, 160)] = 180.0
    img[span(24, 56), span(192, 236)] = 220.0
    img[span(150, 230), span(168, 240)] = 90.0
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
    img[(yy - 176.0 * s) ** 2 + (xx - 88.0 * s) ** 2 <= (40.0 * s) ** 2] = 120.0
    return img


def derive_seed(seed: int, label: str) -> int:
    """A 63-bit seed fixed by the workload seed and a label."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def speckle(clean: np.ndarray, seed: int) -> np.ndarray:
    """Multiplicative Gaussian speckle v = u (1 + sigma xi), sigma 0.2."""
    xi = np.random.Generator(np.random.Philox(seed)).standard_normal(clean.shape)
    return clean * (1.0 + SPECKLE_SIGMA * xi)


def write_p5(path: Path, arr: np.ndarray) -> None:
    samples = np.clip(np.rint(arr), 0, 255).astype(np.uint8)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    path.write_bytes(header + samples.tobytes())


def write_p2(path: Path, arr: np.ndarray) -> None:
    samples = np.clip(np.rint(arr), 0, 255).astype(np.int64)
    rows = (" ".join(str(v) for v in row) for row in samples)
    path.write_text(f"P2\n{arr.shape[1]} {arr.shape[0]}\n255\n" + "\n".join(rows) + "\n",
                    encoding="ascii")


def read_p5(data: bytes) -> np.ndarray:
    """Parse the 8-bit P5 files the program writes (no header comments)."""
    magic, dims, maxval, raster = data.split(b"\n", 3)
    if magic != b"P5" or maxval != b"255":
        raise ValueError(f"unexpected PGM header {magic!r} {maxval!r}")
    width, height = (int(x) for x in dims.split())
    return np.frombuffer(raster, dtype=np.uint8, count=width * height).reshape(height, width)


def sha256(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def psnr_db(reference: np.ndarray, test: np.ndarray) -> float:
    mse = float(np.mean((reference - np.asarray(test, dtype=np.float64)) ** 2))
    return math.inf if mse == 0.0 else 10.0 * math.log10(255.0 ** 2 / mse)


def epi(reference: np.ndarray, test: np.ndarray) -> float:
    """Correlation of the interior 4-neighbour Laplacians."""
    def lap(a):
        a = np.asarray(a, dtype=np.float64)
        resp = a[:-2, 1:-1] + a[2:, 1:-1] + a[1:-1, :-2] + a[1:-1, 2:] - 4.0 * a[1:-1, 1:-1]
        return resp - resp.mean()
    x, y = lap(reference), lap(test)
    den = math.sqrt(float(np.sum(x * x)) * float(np.sum(y * y)))
    return 0.0 if den == 0.0 else float(np.sum(x * y)) / den


@dataclass(frozen=True)
class Output:
    """What the checks need from one op: a digest of every output
    array, its quality against the clean phantom, and the band the
    quality must fall in (keyed in the tolerances by `band`)."""

    checksum: str
    psnr_db: float
    epi: float
    band: str
    problem: str | None = None


@dataclass(frozen=True)
class EngineShape:
    """What the per-worker working set of the NLM engine depends on."""

    height: int
    width: int
    workers: int
    search_radius: int = 10
    patch_radius: int = 3
    robust: bool = True

    def working_set_bytes(self) -> int:
        """Computed float64 bytes one worker touches per search offset.

        Counts the padded band, the squared-difference array, the two
        correlation outputs and their per-tap temporaries, the weighted
        values temporary, the two accumulators and, for the robust
        filter, the padded penalty band. Cache misses are ignored.
        """
        rows = -(-self.height // self.workers)
        big_r, r, w = self.search_radius, self.patch_radius, self.width
        pad = big_r + r
        elems = ((rows + 2 * pad) * (w + 2 * pad)
                 + (rows + 2 * r) * (w + 2 * r)
                 + 2 * rows * (w + 2 * r)
                 + 5 * rows * w)
        if self.robust:
            elems += (rows + 2 * big_r) * (w + 2 * big_r)
        return 8 * elems


class Workload:
    """One closed-loop workload: op k runs input k % inputs."""

    name = ""
    inputs = 1
    pixels_per_op = 0
    # threads the timed ops run with, and the other count the cross-check
    # uses; None where no operation of the workload takes a thread count
    op_threads: int | None = None
    check_threads: int | None = None

    def __init__(self, seed: int, workdir: Path, nproc: int):
        self.seed = seed
        self.workdir = workdir
        self.nproc = nproc

    def prepare(self) -> None:
        raise NotImplementedError

    def op(self, key: int, threads: int | None):
        raise NotImplementedError

    def check(self, key: int, raw) -> Output:
        raise NotImplementedError

    def engine(self) -> EngineShape | None:
        return None


class CliDenoise(Workload):
    """`despeckle denoise in.pgm out.pgm --threads 1` at shipped defaults."""

    name = "cli-denoise-512"

    def __init__(self, seed, workdir, nproc, side: int = 512):
        super().__init__(seed, workdir, nproc)
        self.side = side
        self.pixels_per_op = side * side
        self.op_threads = 1
        self.check_threads = nproc
        self.in_path = workdir / "in.pgm"
        self.out_path = workdir / "out.pgm"

    def prepare(self) -> None:
        self.clean = phantom(self.side)
        write_p5(self.in_path, speckle(self.clean, derive_seed(self.seed, "cli")))

    def op(self, key, threads):
        from despeckle import cli
        argv = ["denoise", str(self.in_path), str(self.out_path), "--threads", str(threads)]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        return code, err.getvalue()

    def check(self, key, raw) -> Output:
        code, err = raw
        if code != 0:
            return Output("", 0.0, 0.0, "denoise", f"exit code {code}: {err.strip()}")
        out = read_p5(self.out_path.read_bytes())
        return Output(sha256(out), psnr_db(self.clean, out), epi(self.clean, out), "denoise")

    def engine(self):
        return EngineShape(self.side, self.side, self.op_threads)


class BatchNlm(Workload):
    """Library path: blind noise estimate, then classic NLM on all cores."""

    name = "batch-nlm-256"
    inputs = 8

    def __init__(self, seed, workdir, nproc, side: int = 256):
        super().__init__(seed, workdir, nproc)
        self.side = side
        self.pixels_per_op = side * side
        self.op_threads = 0
        self.check_threads = 1

    def prepare(self) -> None:
        from despeckle.image import GrayImage
        self.clean = phantom(self.side)
        self.images = [GrayImage(speckle(self.clean, derive_seed(self.seed, f"batch/{k}")))
                       for k in range(self.inputs)]

    def op(self, key, threads):
        from despeckle import nlm, noise
        img = self.images[key]
        sigma_n = noise.estimate_noise_sigma(img).sigma_n
        return nlm.nlm_denoise(img, nlm.NlmParams(h=9.0 * sigma_n), threads=threads)

    def check(self, key, raw) -> Output:
        out = raw.pixels
        return Output(sha256(out), psnr_db(self.clean, out), epi(self.clean, out), "nlm")

    def engine(self):
        return EngineShape(self.side, self.side, self.nproc, robust=False)


class SpeckleLab(Workload):
    """P2 load, synthetic speckle, Lee/Frost/SRAD, scoring, P5 saves."""

    name = "speckle-lab-256"
    inputs = 4
    filters = ("lee", "frost", "srad")

    def __init__(self, seed, workdir, nproc, side: int = 256):
        super().__init__(seed, workdir, nproc)
        self.side = side
        self.pixels_per_op = side * side
        self.clean_path = workdir / "clean.pgm"

    def prepare(self) -> None:
        self.clean = np.clip(np.rint(phantom(self.side)), 0, 255)
        write_p2(self.clean_path, self.clean)

    def variant(self, key: int) -> tuple[str, int]:
        return SPECKLE_MODELS[key % 2], derive_seed(self.seed, f"lab/{key}")

    def op(self, key, threads):
        from despeckle import baselines, metrics, noise, pgm
        from despeckle.image import GrayImage
        model, seed = self.variant(key)
        clean = pgm.load_pgm(self.clean_path)
        noisy = noise.add_multiplicative_speckle(
            clean, noise.SpeckleParams(model=model, sigma=SPECKLE_SIGMA, seed=seed))
        # SRAD needs strictly positive pixels; shift as the CLI does.
        lo = float(noisy.pixels.min())
        shift = (1e-6 - lo) if lo <= 0.0 else 0.0
        lifted = GrayImage(noisy.pixels + shift) if shift else noisy
        outs = {
            "lee": baselines.lee_filter(noisy, baselines.LeeParams()),
            "frost": baselines.frost_filter(noisy, baselines.FrostParams()),
            "srad": baselines.srad(lifted, baselines.SradParams()),
        }
        if shift:
            outs["srad"] = GrayImage(outs["srad"].pixels - shift)
        result = {}
        for name, out in outs.items():
            report = metrics.evaluate(clean, out)
            pgm.save_pgm(out, self.workdir / f"{name}.pgm")
            result[name] = (out.pixels, report.psnr_db, report.epi)
        return result

    def check(self, key, raw) -> Output:
        scores = []
        for name in self.filters:
            out, their_psnr, their_epi = raw[name]
            ours = (psnr_db(self.clean, out), epi(self.clean, out))
            if not (math.isclose(ours[0], their_psnr, rel_tol=1e-9)
                    and math.isclose(ours[1], their_epi, rel_tol=1e-9, abs_tol=1e-12)):
                return Output("", 0.0, 0.0, "", f"{name}: evaluate() gave "
                              f"({their_psnr}, {their_epi}), benchmark computed {ours}")
            saved = read_p5((self.workdir / f"{name}.pgm").read_bytes())
            if not np.array_equal(saved, np.clip(np.floor(out + 0.5), 0, 255)):
                return Output("", 0.0, 0.0, "", f"{name}.pgm does not hold the rounded output")
            scores.append(ours)
        digest = sha256(*(raw[name][0] for name in self.filters))
        return Output(digest, float(np.mean([s[0] for s in scores])),
                      float(np.mean([s[1] for s in scores])), self.variant(key)[0])


WORKLOADS = {cls.name: cls for cls in (CliDenoise, BatchNlm, SpeckleLab)}
