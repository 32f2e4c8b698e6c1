"""The one denoise pipeline (`despeckle.cli.denoise`) shared by library
callers and the CLI's `denoise` and `bench` commands."""

import hashlib
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_img, child_env, make_phantom, rand_image
from despeckle import (ParameterError, SpeckleParams, add_multiplicative_speckle, estimate_noise_sigma,
                       load_pgm, save_pgm)
from despeckle import cli, workers
from despeckle.cli import denoise, main

SMALL = {"search_radius": 3, "patch_radius": 1}
FILTERS = {
    "nlm": ({**SMALL, "h": 20.0}, ["--search-radius", "3", "--patch-radius", "1", "--h", "20"]),
    "robust-nlm": (SMALL, ["--search-radius", "3", "--patch-radius", "1"]),
    "lee": ({"window_radius": 1}, ["--window-radius", "1"]),
    "frost": ({"damping": 2.0}, ["--damping", "2"]),
    "srad": ({"iterations": 5}, ["--iterations", "5"]),
}
COMMAND_FIELDS = ("command", "input", "output", "maxval", "repeats")
NOT_SIGMA_N = "sigma_n must be a non-negative finite real, got "


def speckled(side=24, seed=7):
    clean = as_img(make_phantom(side=side))
    return add_multiplicative_speckle(clean, SpeckleParams("multiplicative_gaussian", 0.2, seed))


@pytest.fixture
def src(tmp_path):
    path = tmp_path / "in.pgm"
    pixels = speckled().pixels.copy()
    pixels[:2, :2] = 0.0  # SRAD's lift is then at work
    save_pgm(as_img(pixels), path)
    return path


def echo_of(err):
    lines = [line for line in err.splitlines() if line.startswith("resolved-config: ")]
    assert len(lines) == 1, err
    return dict(token.partition("=")[::2] for token in lines[0].split()[1:])


def shown(config):
    """The config's values as the resolved-config line prints them."""
    return {key: "-" if value is None else f"{value:g}" if isinstance(value, float) else str(value)
            for key, value in config.items()}


@pytest.mark.parametrize("name", list(FILTERS))
def test_library_output_and_config_are_the_clis(tmp_path, capsys, src, name):
    params, flags = FILTERS[name]
    dst, mine = tmp_path / "cli.pgm", tmp_path / "lib.pgm"
    assert main(["denoise", str(src), str(dst), "--filter", name, "--threads", "1", *flags]) == 0
    echo = echo_of(capsys.readouterr().err)
    out, config = denoise(load_pgm(src), name, threads=1, **params)
    save_pgm(out, mine)
    assert mine.read_bytes() == dst.read_bytes()
    assert shown(config) == {key: value for key, value in echo.items()
                             if key not in COMMAND_FIELDS}
    assert list(config)[:3] == ["domain", "epsilon", "filter"]


@pytest.mark.parametrize("name", list(FILTERS))
def test_the_config_repeats_the_run(name):
    # every key is a denoise() keyword
    img = speckled()
    out, config = denoise(img, name, **FILTERS[name][0])
    again, same = denoise(img, **config)
    assert np.array_equal(again.pixels, out.pixels)
    assert same == config


def test_bench_times_and_hashes_the_output_in_the_input_domain(capsys, src):
    # at the defaults robust-nlm filters in the log domain: the checksum
    # is that of the expanded output, the bytes `denoise` would quantize
    assert main(["bench", str(src), "--repeats", "1", *FILTERS["robust-nlm"][1]]) == 0
    checksum = capsys.readouterr().out.rsplit("checksum=", 1)[1].strip()
    out, config = denoise(load_pgm(src), **FILTERS["robust-nlm"][0])
    assert config["domain"] == "log"
    assert checksum == hashlib.sha256(out.pixels.tobytes()).hexdigest()


def test_defaults_come_from_the_parameter_classes_and_the_noise_level():
    img = speckled()
    _, config = denoise(img, **SMALL)
    assert (config["domain"], config["prefilter_sigma"]) == ("log", 1.5)
    sigma_n = config["sigma_n"]
    assert config["h"] == 9.0 * sigma_n and config["h2"] == 148.0 / sigma_n
    _, config = denoise(img, "nlm", h=5.0, h2=3.0, iterations=2)  # another filter's: ignored
    assert config["h"] == 5.0 and config["sigma_n"] is None and "h2" not in config
    _, config = denoise(img, "lee", sigma_n=4.0)
    assert config["noise_sigma"] == 4.0 / float(img.pixels.mean())


@pytest.mark.parametrize("call, message", [
    (lambda img: denoise(img, "nlm", h=10.0, radius=3), "no filter takes ['radius']"),
    (lambda img: denoise(img, "median"), "filter must be one of"),
    (lambda img: denoise(img, "lee", domain="sqrt"), "domain must be one of"),
    (lambda img: denoise(img, "lee", epsilon=0.0), "epsilon must be"),
    (lambda img: denoise(img, "nlm", sigma_n=-1.0), "sigma_n must be"),
    # a given sigma_n is checked for every filter, also where nothing reads it
    (lambda img: denoise(img, "robust-nlm", sigma_n=math.nan), f"{NOT_SIGMA_N}nan"),
    (lambda img: denoise(img, "lee", sigma_n=math.inf), f"{NOT_SIGMA_N}inf"),
    (lambda img: denoise(img, "frost", sigma_n=-1.0), f"{NOT_SIGMA_N}-1.0"),
    (lambda img: denoise(img, "srad", sigma_n=-2.0), f"{NOT_SIGMA_N}-2.0"),
    (lambda img: denoise(img, "nlm", h=10.0, sigma_n=-3.0), f"{NOT_SIGMA_N}-3.0"),
    (lambda img: denoise(img, "frost", window_radius=0), "window_radius must be"),
    (lambda img: denoise(img, "lee", threads=-1), "threads (0 = auto) must be an integer >= 0"),
    (lambda img: denoise(img, "frost", threads="x"), "threads (0 = auto) must be an integer >= 0"),
])
def test_bad_arguments_raise_parameter_error(call, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        call(speckled())


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the workers are forked")
@pytest.mark.parametrize("name", ["nlm", "robust-nlm", "srad"])
def test_worker_counts_keep_the_bits(monkeypatch, name):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(workers, "_MIN_PASSES", 1)  # a 24x24 input splits too
    img, params = speckled(), FILTERS[name][0]
    one, config = denoise(img, name, threads=1, **params)
    two, split = denoise(img, name, threads=2, **params)
    assert (config["threads"], split["threads"]) == (1, 2)
    assert np.array_equal(one.pixels, two.pixels)


def test_sigma_n_sets_lees_noise_sigma(tmp_path, capsys, src):
    mean = float(load_pgm(src).pixels.mean())
    dst = tmp_path / "out.pgm"
    outputs = []
    for flags, want in (([], None), (["--sigma-n", "50"], 50.0 / mean)):
        assert main(["denoise", str(src), str(dst), "--filter", "lee", *flags]) == 0
        noise_sigma = echo_of(capsys.readouterr().err)["noise_sigma"]
        if want is not None:
            assert noise_sigma == f"{want:g}"
        outputs.append((noise_sigma, dst.read_bytes()))
    assert outputs[0][0] != outputs[1][0] and outputs[0][1] != outputs[1][1]


def test_lee_echoes_the_noise_level_behind_its_noise_sigma(tmp_path, capsys, src):
    dst = tmp_path / "out.pgm"
    _, estimated = denoise(load_pgm(src), "lee")
    for flags, want in (([], f"{estimated['sigma_n']:g}"), (["--sigma-n", "3"], "3"),
                        (["--noise-sigma", "0.3"], "-")):
        assert main(["denoise", str(src), str(dst), "--filter", "lee", *flags]) == 0
        echo = echo_of(capsys.readouterr().err)
        assert list(echo)[4:9] == ["domain", "epsilon", "filter", "sigma_n", "window_radius"]
        assert echo["sigma_n"] == want


def test_an_overflowing_lee_noise_sigma_gives_the_window_mean():
    # sigma_n / mean is inf here, the limit that LeeParams accepts
    tiny = 2.0 ** -830  # ~1.4e-250, a power of two, so the window mean is exact
    out, config = denoise(as_img(np.full((8, 8), tiny)), "lee", sigma_n=1e100)
    assert config["noise_sigma"] == math.inf
    assert np.array_equal(out.pixels, np.full((8, 8), tiny))


def test_a_noise_led_default_past_the_range_takes_the_nearest_value(tmp_path, capsys, src):
    # the estimate on a bright image is a measurement, outside the range;
    # the h it sets, 9 sigma_n, is a parameter, and takes the range's end
    arr = rand_image(43, 16, 16, lo=60, hi=200) * 1e120
    out, config = denoise(as_img(arr), "nlm", domain="linear", search_radius=2)
    assert config["h"] == 1e100 and np.isfinite(out.pixels).all()
    # on a faint image the defaults stay in the range, and the filter runs
    out, config = denoise(as_img(arr * 1e-240), "nlm", domain="linear", search_radius=2)
    assert config["h"] == 1e-6 and np.isfinite(out.pixels).all()
    # a given sigma_n at the ends of the range: h = 9e100 and noise_sigma =
    # 1e-100 / mean become 1e100 and 0, the runs of those values as given
    dst, want = tmp_path / "out.pgm", tmp_path / "want.pgm"
    for flags, field, value, given in ((["--filter", "nlm", "--sigma-n", "1e100"], "h", "1e+100",
                                        ["--filter", "nlm", "--h", "1e100"]),
                                       (["--filter", "lee", "--sigma-n", "1e-100"], "noise_sigma",
                                        "0", ["--filter", "lee", "--noise-sigma", "0"])):
        assert main(["denoise", str(src), str(dst), *flags]) == 0
        assert echo_of(capsys.readouterr().err)[field] == value
        assert main(["denoise", str(src), str(want), *given]) == 0
        capsys.readouterr()
        assert dst.read_bytes() == want.read_bytes()


def test_self_weight_takes_both_spellings(tmp_path, capsys, src):
    want = tmp_path / "lib.pgm"
    save_pgm(denoise(load_pgm(src), "nlm", threads=1, self_weight="max_neighbor", **SMALL)[0], want)
    for spelling in ("max_neighbor", "max-neighbor"):
        dst = tmp_path / f"{spelling}.pgm"
        assert main(["denoise", str(src), str(dst), "--filter", "nlm", "--threads", "1",
                     "--self-weight", spelling, "--search-radius", "3", "--patch-radius", "1"]) == 0
        assert echo_of(capsys.readouterr().err)["self_weight"] == "max_neighbor"
        assert dst.read_bytes() == want.read_bytes()
    assert main(["denoise", str(src), str(dst), "--filter", "nlm", "--self-weight", "max"]) == 2
    assert "invalid choice: 'max'" in capsys.readouterr().err


# robust-nlm is left out: its h2 = 148 / sigma_n does not scale with the
# image, so its outputs are not equivariant. ROADMAP item 1C, which gives
# the decays their noise-level formulas, must extend the property to it.
@pytest.mark.parametrize("name", ["nlm", "lee", "frost", "srad"])
@settings(max_examples=5, deadline=None)
@given(k=st.integers(-2, 2), seed=st.integers(0, 2**32 - 1))
def test_power_of_two_scaling_commutes_with_the_filters(name, k, seed):
    # Rayleigh speckle keeps the phantom strictly positive: SRAD's shift
    # is 0, and sigma_n stays far above H1_FLOOR, so every default scales
    # exactly with the image.
    img = add_multiplicative_speckle(as_img(make_phantom(side=48)),
                                     SpeckleParams("rayleigh", 0.2, seed))
    options = {"domain": "linear", "threads": 1, "search_radius": 2, "patch_radius": 1,
               "window_radius": 1, "iterations": 5}
    out, _ = denoise(img, name, **options)
    scaled, _ = denoise(as_img(2.0**k * img.pixels), name, **options)
    assert np.array_equal(scaled.pixels, 2.0**k * out.pixels)


STAGES = ("log_compress", "estimate_noise_sigma", "robust_nlm_denoise", "exp_expand")


def test_the_stages_run_through_the_clis_names(tmp_path, monkeypatch, src):
    # the benchmark's tracer times these stages by wrapping these names
    # in despeckle.cli (perfbench/tracing.py, TRACED)
    calls = dict.fromkeys(STAGES, 0)

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    for name in STAGES:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    assert main(["denoise", str(src), str(tmp_path / "out.pgm")]) == 0
    assert calls == dict.fromkeys(STAGES, 1)
    denoise(load_pgm(src))
    assert calls == dict.fromkeys(STAGES, 2)


def test_importing_the_package_leaves_the_cli_out():
    code = "import sys, despeckle; print('despeckle.cli' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
