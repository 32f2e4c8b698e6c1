"""Brute-force reference implementations the production code is tested against.

Everything here is written the slow, obvious way and shares no code
with the package: reflection folds iteratively instead of using modular
arithmetic, kernels are built as full 2-D grids, filters loop over
pixels and window offsets directly, and the P2 raster is read one
token at a time. Keep it that way; these are the oracles.
"""

import math
import re
import sys

import numpy as np


def reflect(i, n):
    """Half-sample mirror fold by repeated reflection at both edges."""
    if n == 1:
        return 0
    while i < 0 or i >= n:
        if i < 0:
            i = -1 - i
        if i >= n:
            i = 2 * n - 1 - i
    return i


def sample(arr, row, col):
    return float(arr[reflect(row, arr.shape[0]), reflect(col, arr.shape[1])])


def naive_kernel(radius, sigma_s):
    """Full 2-D Gaussian patch kernel, normalized over its square support."""
    side = 2 * radius + 1
    k = np.empty((side, side))
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            k[dy + radius, dx + radius] = math.exp(-(dx * dx + dy * dy) / (2.0 * sigma_s**2))
    return k / k.sum()


def conv2_full_mirror(arr, kernel):
    """Direct 2-D correlation with mirrored reads, same size as input."""
    h, w = arr.shape
    kh, kw = kernel.shape
    ry, rx = kh // 2, kw // 2
    # mirrored source rows and columns, folded once per axis
    rows = [[float(v) for v in arr[reflect(y, h)]] for y in range(-ry, h + ry)]
    cols = [reflect(x, w) for x in range(-rx, w + rx)]
    k = kernel.tolist()
    out = np.empty_like(arr)
    for y in range(h):
        for x in range(w):
            total = 0.0
            for dy in range(-ry, ry + 1):
                row = rows[y + dy + ry]
                for dx in range(-rx, rx + 1):
                    total += k[dy + ry][dx + rx] * row[cols[x + dx + rx]]
            out[y, x] = total
    return out


def naive_blur(arr, sigma):
    radius = math.ceil(3.0 * sigma)
    side = 2 * radius + 1
    k = np.empty((side, side))
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            k[dy + radius, dx + radius] = math.exp(-(dx * dx + dy * dy) / (2.0 * sigma**2))
    return conv2_full_mirror(arr, k / k.sum())


def naive_ssim(x, y, peak):
    """Mean SSIM of Wang, Bovik, Sheikh & Simoncelli (2004): local
    statistics over the 11x11 Gaussian window of sigma 1.5 with mirrored
    reads, stabilizers C1 = (0.01 peak)^2 and C2 = (0.03 peak)^2."""
    k = naive_kernel(5, 1.5)
    mu_x = conv2_full_mirror(x, k)
    mu_y = conv2_full_mirror(y, k)
    xx = conv2_full_mirror(x * x, k)
    yy = conv2_full_mirror(y * y, k)
    xy = conv2_full_mirror(x * y, k)
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    scores = []
    for r in range(x.shape[0]):
        for c in range(x.shape[1]):
            mx, my = float(mu_x[r, c]), float(mu_y[r, c])
            var_x = float(xx[r, c]) - mx * mx
            var_y = float(yy[r, c]) - my * my
            cov = float(xy[r, c]) - mx * my
            scores.append((2.0 * mx * my + c1) * (2.0 * cov + c2)
                          / ((mx * mx + my * my + c1) * (var_x + var_y + c2)))
    return math.fsum(scores) / len(scores)


def _padded(arr, pad):
    h, w = arr.shape
    rows = [reflect(i - pad, h) for i in range(h + 2 * pad)]
    cols = [reflect(j - pad, w) for j in range(w + 2 * pad)]
    return arr[np.ix_(rows, cols)]


def naive_patch_distance(arr, i, j, radius, sigma_s):
    """Kernel-weighted squared patch distance with mirrored reads."""
    k = naive_kernel(radius, sigma_s)
    total = 0.0
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            a = sample(arr, i[0] + dy, i[1] + dx)
            b = sample(arr, j[0] + dy, j[1] + dx)
            total += k[dy + radius, dx + radius] * (a - b) ** 2
    return total


def naive_nlm(arr, h, search_radius, patch_radius, sigma_s, self_weight="natural"):
    """Triple-loop classic non-local means on the mirror-extended surface."""
    return _naive_nlm_engine(arr, h, None, search_radius, patch_radius,
                             sigma_s, self_weight)


def naive_robust_nlm(arr, h1, h2, prefilter_sigma, search_radius, patch_radius,
                     sigma_s, self_weight="natural"):
    """Triple-loop robust non-local means; corruption factor from a
    brute-force Gaussian prefilter.

    A pixel counts as corrupted only by what its deviation |v - vhat|
    exceeds three local sigmas, the local sigma being the blurred mean
    absolute deviation times sqrt(pi / 2)."""
    hgt, wid = arr.shape
    vhat = naive_blur(arr, prefilter_sigma)
    dev = np.empty_like(arr)
    for y in range(hgt):
        for x in range(wid):
            dev[y, x] = abs(float(arr[y, x]) - float(vhat[y, x]))
    local_mad = naive_blur(dev, prefilter_sigma)
    corr = np.empty_like(arr)
    for y in range(hgt):
        for x in range(wid):
            tau = 3.0 * math.sqrt(math.pi / 2.0) * float(local_mad[y, x])
            corr[y, x] = math.exp(-max(0.0, float(dev[y, x]) - tau) / h2)
    return _naive_nlm_engine(arr, h1, corr, search_radius, patch_radius,
                             sigma_s, self_weight)


def _naive_nlm_engine(arr, h, corr, search_radius, patch_radius, sigma_s, self_weight):
    hgt, wid = arr.shape
    pad = search_radius + patch_radius
    # plain Python floats: per-pixel numpy calls on 3x3 patches would
    # spend nearly all their time in call overhead
    p = _padded(arr, pad).tolist()
    corr_p = _padded(corr, search_radius).tolist() if corr is not None else None
    kernel = naive_kernel(patch_radius, sigma_s).tolist()
    r = patch_radius
    out = np.empty_like(arr)
    for y in range(hgt):
        for x in range(wid):
            py, px = y + pad, x + pad
            weights = []
            values = []
            self_k = None
            for dy in range(-search_radius, search_radius + 1):
                for dx in range(-search_radius, search_radius + 1):
                    qy, qx = py + dy, px + dx
                    dist = 0.0
                    for ky in range(-r, r + 1):
                        row_i, row_j, k_row = p[py + ky], p[qy + ky], kernel[ky + r]
                        for kx in range(-r, r + 1):
                            d = row_i[px + kx] - row_j[qx + kx]
                            dist += k_row[kx + r] * d * d
                    w = math.exp(-dist / (h * h))
                    if corr_p is not None:
                        w *= corr_p[y + search_radius + dy][x + search_radius + dx]
                    if dy == 0 and dx == 0:
                        self_k = len(weights)
                    weights.append(w)
                    values.append(p[qy][qx])
            if self_weight == "max_neighbor":
                others = weights[:self_k] + weights[self_k + 1 :]
                weights[self_k] = max(others) if others else 0.0
                values[self_k] = float(arr[y, x])
            norm = math.fsum(weights)
            if norm == 0.0:
                out[y, x] = arr[y, x]
            else:
                out[y, x] = math.fsum(w * v for w, v in zip(weights, values)) / norm
    return out


def naive_lee(arr, radius, noise_sigma):
    """Per-pixel window statistics, direct formula."""
    h, w = arr.shape
    out = np.empty_like(arr)
    sig2 = noise_sigma**2
    for y in range(h):
        for x in range(w):
            vals = [sample(arr, y + dy, x + dx)
                    for dy in range(-radius, radius + 1)
                    for dx in range(-radius, radius + 1)]
            m = math.fsum(vals) / len(vals)
            s2 = math.fsum((v - m) ** 2 for v in vals) / len(vals)
            if s2 > 0:
                gain = (s2 - m * m * sig2) / (s2 * (1.0 + sig2))
                gain = min(1.0, max(0.0, gain))
            else:
                gain = 0.0
            out[y, x] = m + gain * (arr[y, x] - m)
    return out


def naive_frost(arr, radius, damping):
    h, w = arr.shape
    out = np.empty_like(arr)
    for y in range(h):
        for x in range(w):
            vals = [sample(arr, y + dy, x + dx)
                    for dy in range(-radius, radius + 1)
                    for dx in range(-radius, radius + 1)]
            m = math.fsum(vals) / len(vals)
            s2 = math.fsum((v - m) ** 2 for v in vals) / len(vals)
            cv2 = s2 / (m * m) if m != 0.0 else 0.0
            num = 0.0
            den = 0.0
            k = 0
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    wgt = math.exp(-damping * cv2 * math.hypot(dy, dx))
                    num += wgt * vals[k]
                    den += wgt
                    k += 1
            out[y, x] = num / den
    return out


def srad_reference(arr, iterations, dt, q0, rho):
    """Straight-line scalar-loop version of the diffusion scheme."""
    v = arr.astype(np.float64).copy()
    h, w = v.shape
    for t in range(1, iterations + 1):
        q0_t = q0 * math.exp(-rho * t * dt)
        q0_sq = q0_t * q0_t
        d_n = np.empty_like(v)
        d_s = np.empty_like(v)
        d_w = np.empty_like(v)
        d_e = np.empty_like(v)
        c = np.empty_like(v)
        for y in range(h):
            for x in range(w):
                center = v[y, x]
                d_n[y, x] = sample(v, y - 1, x) - center
                d_s[y, x] = sample(v, y + 1, x) - center
                d_w[y, x] = sample(v, y, x - 1) - center
                d_e[y, x] = sample(v, y, x + 1) - center
        for y in range(h):
            for x in range(w):
                center = v[y, x]
                grad2 = (d_n[y, x] ** 2 + d_s[y, x] ** 2 + d_w[y, x] ** 2 + d_e[y, x] ** 2) / (center * center)
                lap = (d_n[y, x] + d_s[y, x] + d_w[y, x] + d_e[y, x]) / center
                q2 = (0.5 * grad2 - (1.0 / 16.0) * lap * lap) / (1.0 + 0.25 * lap) ** 2
                cval = 1.0 / (1.0 + (q2 - q0_sq) / (q0_sq * (1.0 + q0_sq)))
                c[y, x] = min(1.0, max(0.0, cval))
        nxt = np.empty_like(v)
        for y in range(h):
            for x in range(w):
                div = (c[y, x] * d_n[y, x]
                       + sample(c, y + 1, x) * d_s[y, x]
                       + c[y, x] * d_w[y, x]
                       + sample(c, y, x + 1) * d_e[y, x])
                nxt[y, x] = v[y, x] + (dt / 4.0) * div
        v = nxt
    return v


# whitespace and "#" comments, then the digits of one sample
_P2_TOKEN = re.compile(rb"(?:[ \t\r\n\x0b\x0c]|#[^\r\n]*)*([0-9]*)")


def naive_p2_samples(data, pos, count, maxval):
    """The ``count`` samples of the P2 raster at ``data[pos:]``, read one
    token at a time, or the (message, byte offset) of the first error."""
    if 2 * count - 1 > len(data) - pos:  # each sample but the last needs a digit and a separator
        return (f"truncated raster: {count} samples cannot fit in the "
                f"{len(data) - pos} bytes after offset {pos}", len(data))
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    samples = []
    for k in range(count):
        match = _P2_TOKEN.match(data, pos)
        digits, start, pos = match[1], match.start(1), match.end(1)
        if start == len(data):
            return f"truncated raster: expected {count} samples, got {k}", len(data)
        if not digits:
            return f"malformed header: expected integer sample {k}", start
        if limit and len(digits) > limit:
            return f"integer sample {k} has too many digits ({len(digits)})", start
        if int(digits) > maxval:
            return f"sample {k} exceeds maxval {maxval}", start
        samples.append(int(digits))
    return samples
