"""Independent reference implementations used as test oracles.

These deliberately favor obviousness over speed: plain loops, one definition
per operation, no shared code with the package's vectorized kernels.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from morpheusnet.tensor import finite_difference_gradient


def naive_conv1d(x, w, b, stride=1, pad_left=0, pad_right=0):
    """Triple-loop cross-correlation over a single ``[C, L]`` input."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c_out, c_in, k = w.shape
    xp = np.concatenate(
        [np.zeros((c_in, pad_left)), x, np.zeros((c_in, pad_right))], axis=1
    )
    l_out = (xp.shape[1] - k) // stride + 1
    y = np.zeros((c_out, l_out))
    for o in range(c_out):
        for pos in range(l_out):
            acc = b[o]
            for c in range(c_in):
                for kk in range(k):
                    acc += w[o, c, kk] * xp[c, pos * stride + kk]
            y[o, pos] = acc
    return y


def naive_separable_conv1d(x, dw, pw, b):
    """Per-channel depthwise loop with same-length padding, then a matmul."""
    x = np.asarray(x, dtype=np.float64)
    dw = np.asarray(dw, dtype=np.float64)
    pw = np.asarray(pw, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c_in, k = dw.shape
    length = x.shape[1]
    left = (k - 1) // 2
    xp = np.concatenate(
        [np.zeros((c_in, left)), x, np.zeros((c_in, k - 1 - left))], axis=1
    )
    mid = np.zeros((c_in, length))
    for c in range(c_in):
        for pos in range(length):
            for kk in range(k):
                mid[c, pos] += dw[c, kk] * xp[c, pos + kk]
    return pw @ mid + b[:, None]


def separable_param_count(c_in: int, k: int, c_out: int) -> int:
    """Closed-form parameter count: depthwise + pointwise + bias."""
    return c_in * k + c_in * c_out + c_out


def check_gradient(f, x, analytic, eps=1e-4, tol=1e-4):
    """Assert the analytic gradient of a scalar function matches central differences.

    Per-element relative error with an absolute floor of 1.0 in the
    denominator, evaluated in double precision.
    """
    numeric = finite_difference_gradient(f, np.asarray(x, dtype=np.float64), eps)
    analytic = np.asarray(analytic, dtype=np.float64)
    denom = np.maximum(1.0, np.abs(numeric))
    err = np.max(np.abs(analytic - numeric) / denom)
    assert err <= tol, f"gradient mismatch: max relative error {err:.3e} > {tol}"
    return err


def naive_resample(x, src_hz, dst_hz, taps=64, beta=8.6, exact=False):
    """Per-output windowed-sinc resampling at positions ``k * src / dst``.

    The direct formula: every output evaluates its own ``taps`` Kaiser-windowed
    sinc weights around ``floor(pos)``, drops the taps outside the recording
    and renormalises the rest to unit sum. The position is the float product
    ``k * (src / dst)``, or with ``exact`` the exact rational number.
    """
    x = np.asarray(x, dtype=np.float64)
    n_out = int(np.floor(x.size * dst_hz / src_hz + 0.5))
    ratio = Fraction(float(src_hz)) / Fraction(float(dst_hz)) if exact else src_hz / dst_hz
    fc = min(1.0, dst_hz / src_hz)
    half = taps // 2
    out = np.zeros(n_out)
    for k in range(n_out):
        pos = k * ratio
        base = math.floor(pos)
        tap = np.arange(max(0, base - half + 1), min(x.size, base + half + 1))
        dist = np.asarray(pos - tap, dtype=np.float64)
        window = np.i0(beta * np.sqrt(np.maximum(0.0, 1.0 - (dist / half) ** 2))) / np.i0(beta)
        weight = fc * np.sinc(fc * dist) * window
        norm = weight.sum()
        out[k] = weight @ x[tap] / (norm if norm != 0 else 1.0)
    return out
