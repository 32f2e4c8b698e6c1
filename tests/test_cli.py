import json
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
import typing
from pathlib import Path

import numpy as np
import pytest

from conftest import as_img, child_env, make_phantom, rand_image
from despeckle import (
    FrostParams,
    GrayImage,
    LeeParams,
    NlmParams,
    RobustNlmParams,
    SradParams,
    add_gaussian_noise,
    load_pgm,
    nlm_denoise,
    save_pgm,
    srad,
    ssim,
)
from despeckle import workers
from despeckle.baselines import srad_plan
from despeckle.cli import FILTERS, PARAM_NAMES, build_parser, denoise, main
from despeckle.errors import REAL_RANGE
from despeckle.nlm import engine_plan

FAST = ["--search-radius", "3", "--patch-radius", "1"]
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def write_pgm(path, arr, maxval=255):
    save_pgm(GrayImage(np.asarray(arr, dtype=float)), path, maxval=maxval)


def parse_echo(err):
    lines = [l for l in err.splitlines() if l.startswith("resolved-config: ")]
    assert len(lines) == 1, err
    pairs = {}
    for token in lines[0][len("resolved-config: ") :].split():
        key, _, value = token.partition("=")
        pairs[key] = value
    return pairs


class TestSynth:
    def test_writes_output_and_sidecar(self, tmp_path, capsys):
        clean = tmp_path / "clean.pgm"
        noisy = tmp_path / "noisy.pgm"
        write_pgm(clean, np.full((24, 24), 100.0))
        rc = main(["synth", str(clean), str(noisy), "--model", "mult-gauss",
                   "--sigma", "0.2", "--seed", "7"])
        assert rc == 0
        echo = parse_echo(capsys.readouterr().err)
        assert echo["model"] == "mult-gauss"
        assert echo["seed"] == "7"
        out = load_pgm(noisy)
        assert out.pixels.shape == (24, 24)
        assert float(out.pixels.std()) > 5.0
        sidecar = noisy.with_name("noisy.pgm.noise.txt")
        assert sidecar.read_text() == "model=mult-gauss\nsigma=0.2\nseed=7\n"

    def test_deterministic_across_runs(self, tmp_path):
        clean = tmp_path / "clean.pgm"
        write_pgm(clean, rand_image(70, 16, 16, lo=10, hi=240))
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        assert main(["synth", str(clean), str(a), "--seed", "3"]) == 0
        assert main(["synth", str(clean), str(b), "--seed", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        clean = tmp_path / "clean.pgm"
        write_pgm(clean, rand_image(71, 16, 16, lo=10, hi=240))
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        main(["synth", str(clean), str(a), "--seed", "3"])
        main(["synth", str(clean), str(b), "--seed", "4"])
        assert a.read_bytes() != b.read_bytes()

    def test_missing_input_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.pgm"
        rc = main(["synth", str(missing), str(tmp_path / "out.pgm")])
        assert rc == 2
        assert f"missing input file: {missing}" in capsys.readouterr().err

    def test_missing_output_directory_exits_1(self, tmp_path, capsys):
        clean, out = tmp_path / "clean.pgm", tmp_path / "gone" / "out.pgm"
        write_pgm(clean, np.full((8, 8), 100.0))
        assert main(["synth", str(clean), str(out)]) == 1
        err = capsys.readouterr().err
        assert str(out) in err and "missing input" not in err

    def test_16bit_input_keeps_its_range_by_default(self, tmp_path, capsys):
        clean, noisy = tmp_path / "c16.pgm", tmp_path / "n16.pgm"
        write_pgm(clean, np.full((16, 16), 40000.0), maxval=65535)
        assert main(["synth", str(clean), str(noisy)]) == 0
        assert parse_echo(capsys.readouterr().err)["maxval"] == "65535"
        assert noisy.read_bytes().startswith(b"P5\n16 16\n65535\n")
        samples = load_pgm(noisy).pixels
        assert samples.min() > 255 and len(np.unique(samples)) > 100
        assert main(["synth", str(clean), str(noisy), "--maxval", "255"]) == 0
        assert parse_echo(capsys.readouterr().err)["maxval"] == "255"
        assert noisy.read_bytes() == b"P5\n16 16\n255\n" + b"\xff" * 256
        write_pgm(clean, np.full((16, 16), 255.0))
        assert main(["synth", str(clean), str(noisy)]) == 0
        assert parse_echo(capsys.readouterr().err)["maxval"] == "255"
        assert noisy.read_bytes().startswith(b"P5\n16 16\n255\n")

    @pytest.mark.parametrize("model", ["mult-gauss", "rayleigh"])
    def test_overflowing_sigma_ends_in_one_error_line(self, tmp_path, capsys, model):
        # a sigma whose draw overflows on a PGM is past the parameter range
        clean = tmp_path / "clean.pgm"
        write_pgm(clean, rand_image(72, 12, 12, lo=10, hi=240))
        argv = ["synth", str(clean), str(tmp_path / "noisy.pgm"), "--model", model]
        assert main([*argv, "--sigma", "1.7e308"]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if not line.startswith("resolved-config:")]
        assert errors == ["error: sigma must be a non-negative finite real, got 1.7e+308 "
                          "(finite values lie in [1e-100, 1e+100])"]

    def test_rayleigh_model(self, tmp_path):
        clean = tmp_path / "clean.pgm"
        out = tmp_path / "noisy.pgm"
        write_pgm(clean, np.full((16, 16), 120.0))
        assert main(["synth", str(clean), str(out), "--model", "rayleigh", "--seed", "1"]) == 0
        assert out.with_name("noisy.pgm.noise.txt").read_text().startswith("model=rayleigh\n")


class TestDenoise:
    def test_nlm_constant_roundtrips_exactly(self, tmp_path):
        src = tmp_path / "flat.pgm"
        dst = tmp_path / "out.pgm"
        write_pgm(src, np.full((16, 16), 128.0))
        rc = main(["denoise", str(src), str(dst), "--filter", "nlm", "--h", "10", *FAST])
        assert rc == 0
        assert dst.read_bytes() == src.read_bytes()

    def test_default_windows_echoed(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        dst = tmp_path / "out.pgm"
        write_pgm(src, rand_image(72, 16, 16, lo=60, hi=200))
        rc = main(["denoise", str(src), str(dst), "--filter", "nlm", "--h", "30"])
        assert rc == 0
        echo = parse_echo(capsys.readouterr().err)
        assert echo["search_radius"] == "10"
        assert echo["patch_radius"] == "3"
        assert echo["sigma_s"] == "1.5"
        assert echo["self_weight"] == "natural"
        assert echo["domain"] == "linear"
        assert echo["h"] == "30"

    def test_robust_defaults_to_log_domain(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        dst = tmp_path / "out.pgm"
        write_pgm(src, rand_image(73, 16, 16, lo=60, hi=200))
        rc = main(["denoise", str(src), str(dst), *FAST])
        assert rc == 0
        echo = parse_echo(capsys.readouterr().err)
        assert echo["filter"] == "robust-nlm"
        assert echo["domain"] == "log"
        assert "h" in echo and "h2" in echo and echo["prefilter_sigma"] == "1.5"

    def test_domain_override(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        dst = tmp_path / "out.pgm"
        write_pgm(src, rand_image(74, 16, 16, lo=60, hi=200))
        rc = main(["denoise", str(src), str(dst), "--domain", "linear", *FAST])
        assert rc == 0
        assert parse_echo(capsys.readouterr().err)["domain"] == "linear"

    def test_sigma_n_zero_caps_h2(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        dst = tmp_path / "out.pgm"
        write_pgm(src, rand_image(75, 16, 16, lo=60, hi=200))
        rc = main(["denoise", str(src), str(dst), "--sigma-n", "0", *FAST])
        assert rc == 0
        echo = parse_echo(capsys.readouterr().err)
        assert float(echo["h2"]) == 1e12
        # the h floor keeps the decay usable when the estimate is zero
        assert float(echo["h"]) == pytest.approx(1e-6)

    @pytest.mark.filterwarnings("error")
    def test_srad_at_an_overflowing_q0_exits_0(self, tmp_path, capsys):
        # q0(t)^2 (1 + q0(t)^2) overflows: c is its limit 1 at the top of
        # the range, as at q0 = 1e80
        src = tmp_path / "in.pgm"
        write_pgm(src, rand_image(89, 16, 16, lo=60, hi=200))
        outputs = []
        for q0 in ("1e100", "1e80"):
            dst = tmp_path / f"out{q0}.pgm"
            assert main(["denoise", str(src), str(dst), "--filter", "srad", "--q0", q0]) == 0
            assert float(parse_echo(capsys.readouterr().err)["q0"]) == float(q0)
            outputs.append(dst.read_bytes())
        assert outputs[0] == outputs[1]

    def test_srad_zero_iterations_is_identity(self, tmp_path):
        src = tmp_path / "in.pgm"
        dst = tmp_path / "out.pgm"
        write_pgm(src, rand_image(76, 12, 12, lo=5, hi=250))
        rc = main(["denoise", str(src), str(dst), "--filter", "srad", "--iterations", "0"])
        assert rc == 0
        assert load_pgm(dst).pixels.tolist() == load_pgm(src).pixels.tolist()

    def test_srad_shifts_away_from_zero(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        dst = tmp_path / "out.pgm"
        arr = rand_image(77, 12, 12, lo=0, hi=200)
        arr[0, 0] = 0.0
        write_pgm(src, arr)
        rc = main(["denoise", str(src), str(dst), "--filter", "srad", "--iterations", "3"])
        assert rc == 0
        assert "positivity_shift" not in parse_echo(capsys.readouterr().err)
        # srad lifts the zero itself: the CLI's output is the library's
        mine = tmp_path / "lib.pgm"
        save_pgm(srad(load_pgm(src), SradParams(iterations=3)), mine)
        assert dst.read_bytes() == mine.read_bytes()

    def test_lee_and_frost_run(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        write_pgm(src, rand_image(78, 16, 16, lo=50, hi=220))
        for name in ("lee", "frost"):
            dst = tmp_path / f"{name}.pgm"
            rc = main(["denoise", str(src), str(dst), "--filter", name])
            assert rc == 0
            echo = parse_echo(capsys.readouterr().err)
            assert echo["window_radius"] == "2"
            assert dst.exists()

    def test_huge_lee_noise_sigma_gives_the_window_mean(self, tmp_path, capsys):
        # at the top of the range the gain is already 0 without overflow;
        # at inf, sigma^2 and m^2 sigma^2 overflow and give that limit too
        src = tmp_path / "in.pgm"
        write_pgm(src, rand_image(88, 16, 16, lo=50, hi=220))
        outputs = []
        for value in ("1e100", "inf"):
            dst = tmp_path / f"{value}.pgm"
            assert main(["denoise", str(src), str(dst), "--filter", "lee",
                         "--noise-sigma", value]) == 0
            assert "error" not in capsys.readouterr().err
            outputs.append(dst.read_bytes())
        assert outputs[1:] == outputs[:1]

    def test_16bit_output(self, tmp_path):
        src = tmp_path / "in.pgm"
        dst = tmp_path / "out.pgm"
        write_pgm(src, rand_image(79, 12, 12, lo=10, hi=250))
        rc = main(["denoise", str(src), str(dst), "--filter", "lee", "--maxval", "65535"])
        assert rc == 0
        assert dst.read_bytes().startswith(b"P5\n12 12\n65535\n")

    def test_16bit_input_keeps_its_range_by_default(self, tmp_path, capsys):
        src, dst = tmp_path / "in.pgm", tmp_path / "out.pgm"
        write_pgm(src, np.floor(rand_image(87, 32, 32, lo=1000, hi=1311)), maxval=65535)
        assert main(["denoise", str(src), str(dst), "--filter", "lee"]) == 0
        assert parse_echo(capsys.readouterr().err)["maxval"] == "65535"
        assert dst.read_bytes().startswith(b"P5\n32 32\n65535\n")
        want, _ = denoise(load_pgm(src), "lee")
        assert np.array_equal(load_pgm(dst).pixels, np.floor(want.pixels + 0.5))

    def test_8bit_input_and_a_given_maxval_keep_theirs(self, tmp_path, capsys):
        src, dst = tmp_path / "in.pgm", tmp_path / "out.pgm"
        write_pgm(src, np.full((8, 8), 255.0))
        assert main(["denoise", str(src), str(dst), "--filter", "lee"]) == 0
        assert parse_echo(capsys.readouterr().err)["maxval"] == "255"
        assert dst.read_bytes().startswith(b"P5\n8 8\n255\n")
        write_pgm(src, np.full((8, 8), 300.0), maxval=65535)
        assert main(["denoise", str(src), str(dst), "--filter", "lee", "--maxval", "255"]) == 0
        assert parse_echo(capsys.readouterr().err)["maxval"] == "255"
        assert dst.read_bytes() == b"P5\n8 8\n255\n" + b"\xff" * 64

    def test_missing_output_directory_exits_1(self, tmp_path, capsys):
        src, out = tmp_path / "in.pgm", tmp_path / "gone" / "out.pgm"
        write_pgm(src, np.full((8, 8), 100.0))
        assert main(["denoise", str(src), str(out), "--filter", "lee"]) == 1
        err = capsys.readouterr().err
        assert str(out) in err and "missing input" not in err

    def test_malformed_pgm_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n4 4\n255\n\x00\x01")  # truncated raster
        rc = main(["denoise", str(bad), str(tmp_path / "out.pgm"), "--filter", "lee"])
        assert rc == 1
        assert "truncated" in capsys.readouterr().err

    def test_overlong_header_integer_exits_1(self, tmp_path, capsys):
        # more digits than Python converts to an int: a parse error, not a traceback
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5 " + b"9" * 5000 + b" 1 255\n\x00")
        rc = main(["denoise", str(bad), str(tmp_path / "out.pgm"), "--filter", "lee"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "width" in err and "byte offset 3" in err

    @pytest.mark.parametrize("message", ["", "Unable to allocate 477. GiB for an array"])
    def test_out_of_memory_exits_1(self, tmp_path, capsys, monkeypatch, message):
        def load_pgm(path):
            raise MemoryError(message) if message else MemoryError

        monkeypatch.setattr("despeckle.cli.load_pgm", load_pgm)
        assert main(["denoise", str(tmp_path / "in.pgm"), str(tmp_path / "out.pgm")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message or 'out of memory'}\n"

    @pytest.mark.parametrize("flags", [
        pytest.param(["--search-radius"], id="--search-radius"),
        pytest.param(["--patch-radius"], id="--patch-radius"),
        pytest.param(["--filter", "lee", "--window-radius"], id="lee--window-radius"),
        pytest.param(["--filter", "frost", "--window-radius"], id="frost--window-radius"),
    ])
    def test_oversized_radius_exits_2_fast(self, tmp_path, capsys, flags):
        src = tmp_path / "in.pgm"
        write_pgm(src, rand_image(83, 8, 8, lo=60, hi=200))
        argv = ["denoise", str(src), str(tmp_path / "out.pgm"), *flags, str(10**6)]
        main(argv)  # lazy imports on first use are not the rejection's cost
        capsys.readouterr()
        tracemalloc.start()
        start = time.perf_counter()
        try:
            rc = main(argv)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        name = flags[-1][2:].replace("-", "_")
        assert f"error: {name} for a 8x8 image" in capsys.readouterr().err
        assert elapsed < 0.5
        assert peak < 2**20

    @pytest.mark.parametrize("flags", [
        pytest.param(["--sigma-s", "1e200"], id="--sigma-s-1e200"),
        pytest.param(["--filter", "nlm", "--sigma-s", "65"], id="nlm--sigma-s-65"),
        pytest.param(["--prefilter-sigma", "1e200"], id="--prefilter-sigma-1e200"),
        pytest.param(["--prefilter-sigma", "300"], id="--prefilter-sigma-300"),
    ])
    def test_oversized_sigma_exits_2_fast(self, tmp_path, capsys, flags):
        # on 32x32 sigma_s may be at most 64 and prefilter_sigma 64 / 3,
        # where the blur radius ceil(3 sigma) reaches 64
        src = tmp_path / "in.pgm"
        write_pgm(src, rand_image(88, 32, 32, lo=60, hi=200))
        argv = ["denoise", str(src), str(tmp_path / "out.pgm"), *flags]
        main(argv)  # lazy imports on first use are not the rejection's cost
        capsys.readouterr()
        tracemalloc.start()
        try:
            rc = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if not line.startswith("resolved-config:")]
        name, value = flags[-2][2:].replace("-", "_"), float(flags[-1])
        bound = 64 if name == "sigma_s" else 64 / 3
        if value > REAL_RANGE[1]:  # past the range of every parameter, before the image's bound
            assert errors == [f"error: {name} must be a positive finite real, got {value!r} "
                              f"(finite values lie in [1e-100, 1e+100])"]
        else:
            assert errors == [f"error: {name} for a 32x32 image must be a positive finite real "
                              f"<= {bound:g}, got {value!r}"]
        assert peak < 2**20

    @pytest.mark.parametrize("name", ["nlm", "robust-nlm"])
    def test_patch_radius_past_any_array_exits_2(self, tmp_path, capsys, name):
        src = tmp_path / "in.pgm"
        write_pgm(src, rand_image(83, 8, 8, lo=60, hi=200))
        argv = ["denoise", str(src), str(tmp_path / "out.pgm"), "--filter", name]
        assert main([*argv, "--patch-radius", str(10**400)]) == 2
        assert "error: patch_radius must be an integer" in capsys.readouterr().err

    def test_sigmas_at_the_bound_run(self, tmp_path):
        src = tmp_path / "in.pgm"
        write_pgm(src, rand_image(89, 32, 32, lo=60, hi=200))
        for flags in (["--sigma-s", "64"], ["--prefilter-sigma", str(64 / 3)]):
            assert main(["denoise", str(src), str(tmp_path / "out.pgm"), *FAST, *flags]) == 0

    def test_tiny_sigmas_run_as_the_unit_impulse(self, tmp_path, capsys):
        # Gaussian taps at sigma 1e-100 are those at 0.01, with no warning
        src = tmp_path / "in.pgm"
        write_pgm(src, rand_image(87, 16, 16, lo=60, hi=200))
        outputs = []
        for flags in (["--sigma-s", "1e-100"], ["--sigma-s", "0.01"],
                      ["--prefilter-sigma", "1e-100"]):
            dst = tmp_path / "out.pgm"
            assert main(["denoise", str(src), str(dst), *FAST, *flags]) == 0
            outputs.append(dst.read_bytes())
        assert outputs[0] == outputs[1]
        assert "error" not in capsys.readouterr().err

    def test_threads_env_var(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "in.pgm"
        dst = tmp_path / "out.pgm"
        write_pgm(src, rand_image(80, 12, 12, lo=60, hi=200))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(workers, "_MIN_PASSES", 1)  # a 12x12 input splits too
        for env in ("1", "2"):
            monkeypatch.setenv("DESPECKLE_THREADS", env)
            rc = main(["denoise", str(src), str(dst), "--filter", "nlm", "--h", "20", *FAST])
            assert rc == 0
            assert parse_echo(capsys.readouterr().err)["threads"] == env

    @pytest.mark.parametrize("side, threads", [(64, 0), (64, 64), (1, 64)])
    def test_threads_echo_the_engine_worker_count(self, tmp_path, capsys, monkeypatch, side,
                                                  threads):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        src = tmp_path / "in.pgm"
        write_pgm(src, rand_image(86, side, side, lo=60, hi=200))
        flags = ["--filter", "nlm", "--h", "20", "--threads", str(threads), *FAST]
        base = NlmParams(h=20.0, search_radius=3, patch_radius=1)  # FAST
        # the work floor keeps a 64x64 input on one worker; without it, it splits
        for floor, want in ((workers._MIN_PASSES, 1), (1, min(2, side))):
            monkeypatch.setattr(workers, "_MIN_PASSES", floor)
            count = engine_plan(threads, side, side, base)[1]
            assert count == want
            assert main(["denoise", str(src), str(tmp_path / "out.pgm"), *flags]) == 0
            assert parse_echo(capsys.readouterr().err)["threads"] == str(count)
            assert main(["bench", str(src), "--repeats", "1", *flags]) == 0
            captured = capsys.readouterr()
            assert parse_echo(captured.err)["threads"] == str(count)
            assert f" threads={count} " in captured.out

    def test_baseline_bench_reports_one_thread(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        write_pgm(src, rand_image(87, 64, 64, lo=60, hi=200))
        for name in ("lee", "frost", "srad"):
            argv = ["bench", str(src), "--filter", name, "--repeats", "1", "--threads", "0"]
            assert main([*argv, "--iterations", "1"]) == 0
            assert f"bench: filter={name} repeats=1 threads=1 " in capsys.readouterr().out

    def test_explicit_decays_need_no_noise_estimate(self, tmp_path, capsys):
        # the blind estimate needs a 3x3 image; a 2x2 one filters when
        # --h (and for robust-nlm --h2) leave it unused
        src, dst, want = tmp_path / "in.pgm", tmp_path / "out.pgm", tmp_path / "want.pgm"
        write_pgm(src, [[10, 200], [90, 40]])
        assert main(["denoise", str(src), str(dst), "--filter", "nlm", "--h", "10"]) == 0
        assert parse_echo(capsys.readouterr().err)["sigma_n"] == "-"
        save_pgm(nlm_denoise(load_pgm(src), NlmParams(h=10.0)), want)
        assert dst.read_bytes() == want.read_bytes()
        assert main(["denoise", str(src), str(dst), "--h", "10", "--h2", "5"]) == 0
        assert parse_echo(capsys.readouterr().err)["sigma_n"] == "-"
        assert main(["denoise", str(src), str(dst), "--h", "10"]) == 2
        assert "noise estimation needs at least a 3x3 image, got 2x2" in capsys.readouterr().err

    def test_bad_threads_env_exits_2(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "in.pgm"
        write_pgm(src, rand_image(81, 12, 12))
        monkeypatch.setenv("DESPECKLE_THREADS", "abc")
        # no --filter runs robust-nlm, which reads the setting too
        for argv in (["--filter", "nlm", "--h", "20"], []):
            rc = main(["denoise", str(src), str(tmp_path / "o.pgm"), *argv, *FAST])
            assert rc == 2
            assert "DESPECKLE_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["lee", "frost"])
    def test_baselines_ignore_the_thread_settings(self, tmp_path, capsys, monkeypatch, name):
        # lee and frost start no worker, so a bad DESPECKLE_THREADS is
        # never read for them
        src = tmp_path / "in.pgm"
        write_pgm(src, rand_image(88, 8, 8, lo=60, hi=200))
        outputs = []
        for env in ("", "abc"):
            monkeypatch.setenv("DESPECKLE_THREADS", env)
            dst = tmp_path / f"out{env}.pgm"
            argv = ["--filter", name, "--iterations", "2"]
            assert main(["denoise", str(src), str(dst), *argv]) == 0
            assert main(["bench", str(src), "--repeats", "1", *argv]) == 0
            assert f"bench: filter={name} repeats=1 threads=1 " in capsys.readouterr().out
            outputs.append(dst.read_bytes())
        assert outputs[0] == outputs[1]

    def test_srad_reads_a_bad_threads_env(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "in.pgm"
        write_pgm(src, rand_image(88, 8, 8, lo=60, hi=200))
        monkeypatch.setenv("DESPECKLE_THREADS", "abc")
        for command in (["denoise", str(src), str(tmp_path / "out.pgm")], ["bench", str(src)]):
            assert main([*command, "--filter", "srad", "--iterations", "2"]) == 2
            assert "DESPECKLE_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("side, threads", [(64, 0), (256, 0), (256, 1), (256, 64)])
    def test_srad_threads_echo_the_planned_worker_count(self, tmp_path, capsys, monkeypatch,
                                                        side, threads):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        src = tmp_path / "in.pgm"
        write_pgm(src, rand_image(89, side, side, lo=60, hi=200))
        # 20 iterations are past the work floor of a second worker at 256x256
        count = srad_plan(threads, side, side, SradParams(iterations=20))[1]
        assert count == (2 if side == 256 and threads != 1 else 1)
        flags = ["--filter", "srad", "--iterations", "20", "--threads", str(threads)]
        dst = tmp_path / "out.pgm"
        assert main(["denoise", str(src), str(dst), *flags]) == 0
        assert parse_echo(capsys.readouterr().err)["threads"] == str(count)
        want = tmp_path / "want.pgm"
        assert main(["denoise", str(src), str(want), *flags[:-1], "1"]) == 0
        assert dst.read_bytes() == want.read_bytes()
        capsys.readouterr()
        assert main(["bench", str(src), "--repeats", "1", *flags]) == 0
        captured = capsys.readouterr()
        assert parse_echo(captured.err)["threads"] == str(count)
        assert f" threads={count} " in captured.out

    @pytest.mark.parametrize("source", ["--threads", "DESPECKLE_THREADS"])
    def test_negative_threads_exits_2(self, tmp_path, capsys, monkeypatch, source):
        src = tmp_path / "in.pgm"
        dst = tmp_path / "out.pgm"
        write_pgm(src, rand_image(84, 12, 12, lo=60, hi=200))
        argv = ["denoise", str(src), str(dst), "--filter", "nlm", "--h", "20", *FAST]
        if source == "--threads":
            argv += ["--threads", "-1"]
        else:
            monkeypatch.setenv("DESPECKLE_THREADS", "-1")
        assert main(argv) == 2
        err = capsys.readouterr().err
        named = "threads (0 = auto)" if source == "--threads" else source
        assert err.startswith(f"error: {named}") and "-1" in err
        assert ("DESPECKLE_THREADS" in err) == (source == "DESPECKLE_THREADS")
        assert not dst.exists()

    def test_threads_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "in.pgm"
        dst = tmp_path / "out.pgm"
        write_pgm(src, rand_image(82, 12, 12, lo=60, hi=200))
        monkeypatch.setenv("DESPECKLE_THREADS", "abc")  # never consulted
        rc = main(["denoise", str(src), str(dst), "--filter", "nlm", "--h", "20",
                   "--threads", "1", *FAST])
        assert rc == 0
        assert parse_echo(capsys.readouterr().err)["threads"] == "1"


class TestEval:
    def _pair(self, tmp_path):
        ref = tmp_path / "ref.pgm"
        test = tmp_path / "denoised.pgm"
        write_pgm(ref, make_phantom(side=32))
        write_pgm(test, make_phantom(side=32))
        return ref, test

    def test_identical_pair_row(self, tmp_path, capsys):
        ref, test = self._pair(tmp_path)
        rc = main(["eval", str(ref), str(test)])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out == "denoised,-,inf,1.000000,1.000000"

    def test_id_and_name_flags(self, tmp_path, capsys):
        ref, test = self._pair(tmp_path)
        rc = main(["eval", str(ref), str(test), "--image-id", "ph32",
                   "--filter-name", "robust-nlm"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("ph32,robust-nlm,")

    def test_report_header_written_once(self, tmp_path, capsys):
        ref, test = self._pair(tmp_path)
        report = tmp_path / "scores.csv"
        main(["eval", str(ref), str(test), "--report", str(report)])
        main(["eval", str(ref), str(test), "--report", str(report), "--image-id", "second"])
        lines = report.read_text().splitlines()
        assert lines[0] == "image_id,filter_name,psnr_db,ssim,epi"
        assert len(lines) == 3
        assert lines[2].startswith("second,")

    def test_peak_sets_ssim_range(self, tmp_path, capsys):
        ref, test = tmp_path / "ref16.pgm", tmp_path / "test16.pgm"
        clean = GrayImage(make_phantom(side=32) * 257.0)
        write_pgm(ref, clean.pixels, maxval=65535)
        write_pgm(test, add_gaussian_noise(clean, sigma=2000.0, seed=85).pixels, maxval=65535)
        assert main(["eval", str(ref), str(test), "--peak", "65535"]) == 0
        score = capsys.readouterr().out.strip().split(",")[3]
        pair = load_pgm(ref), load_pgm(test)
        assert score == f"{ssim(*pair, peak=65535.0):.6f}"
        assert score != f"{ssim(*pair):.6f}"

    @pytest.mark.parametrize("peak", ["5e-324", "1e-300", "1e300", "1.7e308"])
    def test_peak_past_its_range_exits_2(self, tmp_path, capsys, peak):
        ref, test = tmp_path / "ref.pgm", tmp_path / "test.pgm"
        write_pgm(ref, rand_image(89, 16, 16))
        write_pgm(test, rand_image(90, 16, 16))
        assert main(["eval", str(ref), str(test), "--peak", peak]) == 2
        assert capsys.readouterr().err.endswith(
            f"error: peak must be a positive finite real, got {float(peak)!r} "
            f"(finite values lie in [1e-100, 1e+100])\n")

    def test_missing_report_directory_exits_1(self, tmp_path, capsys):
        ref, test = self._pair(tmp_path)
        report = tmp_path / "gone" / "scores.csv"
        assert main(["eval", str(ref), str(test), "--report", str(report)]) == 1
        err = capsys.readouterr().err
        assert str(report) in err and "missing input" not in err

    def test_missing_test_image_exits_2(self, tmp_path, capsys):
        ref, test = self._pair(tmp_path)
        test.unlink()
        assert main(["eval", str(ref), str(test)]) == 2
        assert f"missing input file: {test}" in capsys.readouterr().err

    def test_shape_mismatch_exits_2(self, tmp_path, capsys):
        ref = tmp_path / "ref.pgm"
        test = tmp_path / "test.pgm"
        write_pgm(ref, np.zeros((16, 16)))
        write_pgm(test, np.zeros((16, 17)))
        assert main(["eval", str(ref), str(test)]) == 2


class TestBench:
    def test_reports_timing_and_checksum(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        write_pgm(src, rand_image(83, 16, 16, lo=60, hi=200))
        rc = main(["bench", str(src), "--filter", "nlm", "--h", "25",
                   "--repeats", "2", "--threads", "1", *FAST])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("bench: filter=nlm repeats=2 threads=1 pixels=256 ")
        assert "min_s=" in out and "median_s=" in out
        assert "checksum=" in out
        checksum = out.rsplit("checksum=", 1)[1].strip()
        assert len(checksum) == 64

    def test_bad_repeats_exits_2(self, tmp_path):
        src = tmp_path / "in.pgm"
        write_pgm(src, rand_image(84, 8, 8))
        assert main(["bench", str(src), "--filter", "lee", "--repeats", "0"]) == 2

    def test_json_appends_one_record_per_run(self, tmp_path, capsys):
        src, path = tmp_path / "in.pgm", tmp_path / "bench.json"
        write_pgm(src, rand_image(85, 16, 16, lo=60, hi=200))
        lines = []
        for name in ("nlm", "lee"):
            argv = ["bench", str(src), "--filter", name, "--repeats", "2", "--threads", "1",
                    "--json", str(path), *FAST]
            assert main(argv) == 0
            lines.append(capsys.readouterr())
        records = json.loads(path.read_text(encoding="utf-8"))
        assert [record["filter"] for record in records] == ["nlm", "lee"]
        for record, captured in zip(records, lines):
            assert set(record) == {"filter", "pixels", "threads", "repeats", "min_s", "median_s",
                                   "checksum", "config"}
            assert (record["pixels"], record["threads"], record["repeats"]) == (256, 1, 2)
            assert 0.0 < record["min_s"] <= record["median_s"]
            assert captured.out.rstrip().endswith(f"checksum={record['checksum']}")
            # the config is the resolved-config line's, less the command, input and repeats
            echoed = dict(pair.split("=", 1)
                          for pair in captured.err.split("resolved-config: ", 1)[1].split())
            assert record["config"]["filter"] == echoed["filter"] == record["filter"]
            assert set(echoed) - set(record["config"]) == {"command", "input", "repeats"}
        assert records[0]["config"]["search_radius"] == 3

    @pytest.mark.parametrize("content", ["{}", "[1, 2", "1.5"])
    def test_json_file_without_a_list_exits_2(self, tmp_path, capsys, content):
        src, path = tmp_path / "in.pgm", tmp_path / "bench.json"
        write_pgm(src, rand_image(86, 8, 8))
        path.write_text(content, encoding="utf-8")
        assert main(["bench", str(src), "--filter", "lee", "--repeats", "1",
                     "--json", str(path)]) == 2
        assert capsys.readouterr().err.endswith("does not hold a JSON list\n")
        assert path.read_text(encoding="utf-8") == content

    @pytest.mark.parametrize("content, code", [("{}", 2), (None, 1)], ids=["not-a-list", "no-directory"])
    def test_a_bad_json_file_is_refused_before_the_runs(self, tmp_path, capsys, content, code):
        src, path = tmp_path / "in.pgm", tmp_path / "bench.json"
        write_pgm(src, rand_image(87, 8, 8))
        if content is None:
            path = tmp_path / "missing" / "bench.json"
        else:
            path.write_text(content, encoding="utf-8")
        assert main(["bench", str(src), "--filter", "lee", "--json", str(path)]) == code
        captured = capsys.readouterr()
        assert "bench:" not in captured.out
        assert captured.err.startswith("error: --json ")


@pytest.mark.parametrize("command", ["denoise", "bench"])
@pytest.mark.parametrize("epsilon", ["0", "nan"])
def test_bad_epsilon_exits_2(tmp_path, capsys, command, epsilon):
    # the same check on both commands, also where the domain is linear
    src = tmp_path / "in.pgm"
    write_pgm(src, rand_image(85, 8, 8))
    outputs = [str(tmp_path / "out.pgm")] if command == "denoise" else []
    rc = main([command, str(src), *outputs, "--filter", "nlm", "--epsilon", epsilon])
    assert rc == 2
    assert "error: epsilon must be" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["denoise", "bench"])
@pytest.mark.parametrize("name", list(FILTERS))
@pytest.mark.parametrize("sigma_n", ["-1", "nan", "inf"])
def test_bad_sigma_n_exits_2(tmp_path, capsys, command, name, sigma_n):
    # a given noise level is checked for every filter, also one that has no use for it
    src = tmp_path / "in.pgm"
    write_pgm(src, rand_image(85, 8, 8))
    outputs = [str(tmp_path / "out.pgm")] if command == "denoise" else []
    rc = main([command, str(src), *outputs, "--filter", name, "--sigma-n", sigma_n])
    assert rc == 2
    assert "error: sigma_n must be a non-negative finite real" in capsys.readouterr().err


_FLOATS = ("0", "5e-324", "1e-300", "1e-6", "1", "1e6", "1e150", "1e300", "1.7e308",
           "inf", "-inf", "nan", "-1")
_INTS = ("-1", "0", "1", str(10**6), str(2**63), str(10**400))
# small radii and few iterations keep each run short; the sweep replaces one at a time
_QUICK = {"search_radius": "1", "patch_radius": "1", "window_radius": "1", "iterations": "3"}


def _extreme_runs(clean, noisy, out):
    """The argv of each run of the extreme-value sweep: every numeric flag
    at the values above, for each command, model and filter that takes
    it, in both domains; --iterations and --repeats at small values."""
    for value in _FLOATS:
        for model in ("mult-gauss", "rayleigh"):
            yield ["synth", clean, out, f"--model={model}", f"--sigma={value}"]
        for test in (clean, noisy):
            yield ["eval", clean, test, f"--peak={value}"]
    for value in _INTS:
        yield ["synth", clean, out, f"--seed={value}"]
    for value in ("-1", "0", "1", "2"):
        yield ["bench", noisy, "--filter=lee", f"--repeats={value}"]
        yield ["denoise", noisy, out, "--filter=srad", f"--iterations={value}"]
    for name, (cls, *_) in FILTERS.items():
        hints = typing.get_type_hints(cls)
        swept = {"epsilon": _FLOATS, "sigma_n": _FLOATS, "threads": _INTS}
        swept.update({field: _FLOATS if float in (typing.get_args(hint) or (hint,)) else _INTS
                      for field, hint in hints.items() if field not in ("iterations", "self_weight")})
        for domain in ("linear", "log"):
            for flag, values in swept.items():
                for value in values:
                    options = {**{k: v for k, v in _QUICK.items() if k in hints},
                               "threads": "1", flag: value}
                    yield ["denoise", noisy, out, f"--filter={name}", f"--domain={domain}",
                           *(f"--{k.replace('_', '-')}={v}" for k, v in options.items())]


def test_every_numeric_flag_ends_in_an_exit_code(tmp_path, capsys):
    # no exception or warning (an error in this suite) may leave main
    clean, noisy, out = (str(tmp_path / name) for name in ("clean.pgm", "noisy.pgm", "out.pgm"))
    write_pgm(clean, rand_image(87, 12, 12, lo=20, hi=230))
    speckled = rand_image(88, 12, 12, lo=90, hi=110)
    speckled[4, 7] = 250.0  # an outlier, so that the robust penalty acts
    write_pgm(noisy, speckled)
    escapes = []
    for argv in _extreme_runs(clean, noisy, out):
        shown = " ".join(arg for arg in argv if not arg.startswith(str(tmp_path)))
        try:
            rc = main(argv)
        except Exception as exc:
            escapes.append(f"{shown}: {type(exc).__name__}: {exc}")
        else:
            if rc not in (0, 1, 2):
                escapes.append(f"{shown}: exit {rc}")
    capsys.readouterr()
    assert not escapes, "\n".join(escapes)


def _real_flag_runs(clean, noisy, out):
    """(argv, flag) of each run that sets one real flag of synth, eval and
    denoise: every filter that takes the flag, in both domains."""
    for model in ("mult-gauss", "rayleigh"):
        yield ["synth", clean, out, f"--model={model}"], "sigma"
    yield ["eval", clean, noisy], "peak"
    for name, (cls, *_) in FILTERS.items():
        hints = typing.get_type_hints(cls)
        quick = [f"--{k.replace('_', '-')}={v}" for k, v in _QUICK.items() if k in hints]
        reals = [field for field, hint in hints.items() if float in (typing.get_args(hint) or (hint,))]
        for domain in ("linear", "log"):
            for flag in ("epsilon", "sigma_n", *reals):
                argv = ["denoise", noisy, out, f"--filter={name}", f"--domain={domain}", *quick]
                yield argv, flag


# The traced peak of `denoise --threads 1` on a 256x256 P5, in image sizes
# (H x W float64 values): the level each filter runs at, and a small margin.
_PEAK_IMAGES = {"robust-nlm": 7.55, "lee": 5.4, "frost": 7.4, "nlm": 6.3, "srad": 5.2}


@pytest.mark.parametrize("name", list(_PEAK_IMAGES))
def test_each_filter_stays_under_its_traced_peak(tmp_path, capsys, name):
    src, dst = tmp_path / "in.pgm", tmp_path / "out.pgm"
    speckle = np.random.Generator(np.random.Philox(89)).standard_normal((256, 256))
    write_pgm(src, make_phantom(256) * (1.0 + 0.2 * speckle))
    argv = ["denoise", str(src), str(dst), "--filter", name, "--threads", "1"]
    assert main(argv) == 0  # lazy imports on first use are not the filter's memory
    tracemalloc.start()
    try:
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    images = peak / (256 * 256 * 8)
    assert images < _PEAK_IMAGES[name], f"{name}: {images:.2f} image sizes"


def test_the_real_range_bounds_every_real_flag(tmp_path, capsys):
    # The ends of REAL_RANGE pass the range: they run (exit 0 or 1), unless
    # the flag's own bound is lower (dt <= 0.25, a sigma's reach on 12x12).
    # A noise-led default that sigma_n sets past the range (h = 9e100, Lee's
    # noise_sigma = 1e-100 / mean) takes the nearest value its field
    # accepts, so it runs too. Just past the ends a run exits 2 with one
    # error line that names the flag.
    clean, noisy, out = (str(tmp_path / name) for name in ("clean.pgm", "noisy.pgm", "out.pgm"))
    write_pgm(clean, rand_image(87, 12, 12, lo=20, hi=230))
    write_pgm(noisy, rand_image(88, 12, 12, lo=90, hi=110))
    wrong = []
    for argv, flag in _real_flag_runs(clean, noisy, out):
        for value in ("1e-100", "1e100", "9.9e-101", "1.01e100"):
            rc = main([*argv, f"--{flag.replace('_', '-')}={value}"])
            errors = [line for line in capsys.readouterr().err.splitlines()
                      if not line.startswith("resolved-config:")]
            named = len(errors) == 1 and re.match(r"error: (\w+)", errors[0])[1]
            if value in ("1e-100", "1e100"):
                ok = rc in (0, 1) or rc == 2 and named == flag and "<= " in errors[0]
            else:
                ok = rc == 2 and named == flag
            if not ok:
                wrong.append(f"{' '.join(argv[3:])} --{flag}={value}: exit {rc} {errors}")
    assert not wrong, "\n".join(wrong)


class TestParsing:
    def test_unknown_command_exits_2(self, capsys):
        assert main(["warp"]) == 2

    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_filter_defaults_come_from_the_parameter_classes(self, tmp_path, capsys):
        args = build_parser().parse_args(["denoise", "in.pgm", "out.pgm"])
        for name in ("filter", "domain", "epsilon", "sigma_n", "threads", *PARAM_NAMES):
            assert getattr(args, name) is None, name
        src = tmp_path / "in.pgm"
        write_pgm(src, rand_image(86, 12, 12, lo=60, hi=200))
        shown = {NlmParams: {name: str(getattr(NlmParams, name))
                             for name in ("search_radius", "patch_radius", "self_weight")},
                 RobustNlmParams: {"prefilter_sigma": f"{RobustNlmParams.prefilter_sigma:g}"},
                 LeeParams: {"window_radius": str(LeeParams.window_radius)},
                 FrostParams: {"window_radius": str(FrostParams.window_radius),
                               "damping": f"{FrostParams.damping:g}"},
                 SradParams: {name: f"{getattr(SradParams, name):g}"
                              for name in ("iterations", "dt", "q0", "rho")}}
        classes = {"nlm": (NlmParams,), "robust-nlm": (NlmParams, RobustNlmParams),
                   "lee": (LeeParams,), "frost": (FrostParams,), "srad": (SradParams,)}
        for name, sources in classes.items():
            assert main(["bench", str(src), "--repeats", "1", "--filter", name]) == 0
            echo = parse_echo(capsys.readouterr().err)
            for cls in sources:
                for key, value in shown[cls].items():
                    assert echo[key] == value, (name, key)

    def test_each_field_is_a_flag_of_its_type_naming_its_filters(self):
        parser = build_parser()
        helps = {action.dest: action.help
                 for action in parser._subparsers._group_actions[0].choices["denoise"]._actions}
        kinds, takers = {}, {}
        for filter, (cls, *_) in FILTERS.items():
            for name, hint in typing.get_type_hints(cls).items():
                kinds[name] = (typing.get_args(hint) or (hint,))[0]  # float | None: float
                takers.setdefault(name, []).append(filter)
        given = {int: "3", float: "0.5", str: "max-neighbor"}
        for name in PARAM_NAMES:
            flag = "--" + name.replace("_", "-")
            value = getattr(parser.parse_args(["denoise", "in", "out", flag, given[kinds[name]]]),
                            name)
            assert type(value) is kinds[name], name
            assert helps[name] == "for " + ", ".join(takers[name])
            assert not re.search(r"[0-9=*/]|default", helps[name]), helps[name]

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for name in ("synth", "denoise", "eval", "bench"):
            assert name in out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "despeckle", "--help"],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
        assert proc.returncode == 0
        assert "despeckle" in proc.stdout

    def test_console_script_help(self):
        # run the declared [project.scripts] target the way the generated
        # wrapper does, so the check needs no install
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["despeckle"]
        module, _, attr = target.partition(":")
        code = (f"import sys; from {module} import {attr}; "
                f"sys.argv[0] = 'despeckle'; sys.exit({attr}())")
        proc = subprocess.run(
            [sys.executable, "-c", code, "denoise", "--help"],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "--h2" in proc.stdout

    @pytest.mark.skipif(shutil.which("despeckle") is None,
                        reason="no installed despeckle script on PATH")
    def test_installed_console_script_help(self):
        proc = subprocess.run(
            ["despeckle", "denoise", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "--h2" in proc.stdout
