"""Truncated Fourier series on the unit circle.

Everything downstream (stationary discs, factorization, metrics) works with
the same representation: a band of Fourier coefficients a_k, k_min <= k <= N,
of a map from the circle into C, C^m, or C^{p x p}.  Holomorphic-type objects
have k_min = 0 and may be evaluated on the closed disc; genuine boundary
fields live on |zeta| = 1 only.

Conventions:
    values[j] = u(exp(2*pi*i*j/M)) = sum_k a_k exp(2*pi*i*j*k/M)
so numpy's fft of a value grid divided by M recovers a_k at index k mod M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import AmbiguousWinding, DomainViolation, NotReal, ZeroOnCircle

# Tolerance for "is this point on the unit circle":
CIRCLE_TOL = 1e-9
# Reality / symmetry tolerance for coefficient checks:
REALITY_TOL = 1e-10
# Smallest modulus a curve may reach on the circle and still get a winding number:
MIN_MODULUS = 1e-8


@dataclass
class FourierDisc:
    """A truncated Fourier series sum_{k=k_min}^{k_max} a_k zeta^k.

    coeffs has shape (K, *target_shape) with K = k_max - k_min + 1.
    target_shape is () for scalar fields, (m,) for maps into C^m and
    (p, p) for matrix fields.
    """

    coeffs: np.ndarray
    k_min: int

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape[0] < 1:
            raise ValueError("empty coefficient band")

    # -- basic shape info -------------------------------------------------

    @property
    def k_max(self) -> int:
        return self.k_min + self.coeffs.shape[0] - 1

    @property
    def target_shape(self) -> tuple:
        return self.coeffs.shape[1:]

    @property
    def ks(self) -> np.ndarray:
        return np.arange(self.k_min, self.k_max + 1)

    def is_holomorphic_type(self) -> bool:
        return self.k_min >= 0

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(k_min: int, k_max: int, target_shape: tuple = ()) -> "FourierDisc":
        return FourierDisc(
            np.zeros((k_max - k_min + 1, *target_shape), dtype=complex), k_min
        )

    @staticmethod
    def constant(value, N: int = 0) -> "FourierDisc":
        v = np.asarray(value, dtype=complex)
        c = np.zeros((N + 1, *v.shape), dtype=complex)
        c[0] = v
        return FourierDisc(c, 0)

    @staticmethod
    def from_boundary_values(
        values: np.ndarray, k_min: int, k_max: int
    ) -> "FourierDisc":
        """Least-squares fit on a uniform grid: FFT and keep the band.

        values has shape (M, *target_shape) with M > k_max - k_min
        (aliasing is the caller's responsibility; use a generous grid).
        """
        values = np.asarray(values, dtype=complex)
        M = values.shape[0]
        if M < k_max - k_min + 1:
            raise ValueError("grid too small for the requested band")
        spec = np.fft.fft(values, axis=0) / M
        ks = np.arange(k_min, k_max + 1)
        return FourierDisc(spec[ks % M], k_min)

    # -- evaluation --------------------------------------------------------

    def __call__(self, zeta) -> np.ndarray:
        return evaluate(self, zeta)

    def boundary_values(self, M: int) -> np.ndarray:
        """Values on the uniform M-point grid exp(2*pi*i*j/M)."""
        if M < self.coeffs.shape[0]:
            raise ValueError("grid too small for the coefficient band")
        spec = np.zeros((M, *self.target_shape), dtype=complex)
        np.add.at(spec, self.ks % M, self.coeffs)
        return np.fft.ifft(spec, axis=0) * M

    # -- band surgery -------------------------------------------------------

    def band(self, k_min: int, k_max: int) -> "FourierDisc":
        """Restrict/extend to [k_min, k_max], zero-filling outside."""
        out = np.zeros((k_max - k_min + 1, *self.target_shape), dtype=complex)
        lo = max(k_min, self.k_min)
        hi = min(k_max, self.k_max)
        if lo <= hi:
            out[lo - k_min : hi - k_min + 1] = self.coeffs[
                lo - self.k_min : hi - self.k_min + 1
            ]
        return FourierDisc(out, k_min)

    def coefficient(self, k: int) -> np.ndarray:
        if self.k_min <= k <= self.k_max:
            return self.coeffs[k - self.k_min]
        return np.zeros(self.target_shape, dtype=complex)

    # -- arithmetic that stays in one band ----------------------------------

    def __add__(self, other: "FourierDisc") -> "FourierDisc":
        k_min = min(self.k_min, other.k_min)
        k_max = max(self.k_max, other.k_max)
        a = self.band(k_min, k_max)
        b = other.band(k_min, k_max)
        return FourierDisc(a.coeffs + b.coeffs, k_min)

    def __sub__(self, other: "FourierDisc") -> "FourierDisc":
        return self + (other * (-1.0))

    def __mul__(self, scalar) -> "FourierDisc":
        return FourierDisc(self.coeffs * scalar, self.k_min)

    __rmul__ = __mul__

    # -- serialization -------------------------------------------------------

    def to_entries(self) -> list:
        """Coefficient dump: one {k, re, im} object per frequency."""
        flat = self.coeffs.reshape(self.coeffs.shape[0], -1)
        return [
            {
                "k": int(k),
                "re": [float(x) for x in row.real],
                "im": [float(x) for x in row.imag],
            }
            for k, row in zip(self.ks, flat)
        ]

    @staticmethod
    def from_entries(entries: Iterable[dict], target_shape: tuple = None) -> "FourierDisc":
        """Inverse of to_entries.  Frequencies missing between the smallest
        and the largest k read as zero; a duplicate or non-integer k, a
        re/im length that differs from the first entry's and a non-finite
        coefficient raise ValueError."""
        entries = list(entries)
        if not entries:
            raise ValueError("empty coefficient dump")
        m = len(entries[0]["re"])
        rows = {}
        for e in entries:
            k = e["k"]
            if isinstance(k, bool) or not isinstance(k, int):
                raise ValueError(f"frequency k = {k!r} is not an integer")
            if k in rows:
                raise ValueError(f"frequency k = {k} is listed twice")
            if len(e["re"]) != m or len(e["im"]) != m:
                raise ValueError(
                    f"coefficient at k = {k} has {len(e['re'])} real and "
                    f"{len(e['im'])} imaginary parts, expected {m}"
                )
            rows[k] = np.asarray(e["re"]) + 1j * np.asarray(e["im"])
        k_min, k_max = min(rows), max(rows)
        if target_shape is None:
            target_shape = () if m == 1 else (m,)
        coeffs = np.zeros((k_max - k_min + 1, m), dtype=complex)
        for k, row in rows.items():
            coeffs[k - k_min] = row
        bad = np.flatnonzero(~np.all(np.isfinite(coeffs), axis=1))
        if bad.size:
            raise ValueError(f"non-finite coefficient at k = {k_min + int(bad[0])}")
        return FourierDisc(coeffs.reshape(-1, *target_shape), k_min)


def unit_grid(M: int) -> np.ndarray:
    """The M points exp(2*pi*i*j/M), j = 0..M-1."""
    return np.exp(2j * np.pi * np.arange(M) / M)


def _next_pow2(x: int) -> int:
    """The smallest power of two >= x, and at least 2: the size of every
    sampling grid."""
    return 1 << max(int(math.ceil(math.log2(max(x, 2)))), 1)


def evaluate(u: FourierDisc, zeta) -> np.ndarray:
    """Evaluate u at zeta (scalar or array).

    Holomorphic-type discs (k_min >= 0) accept the closed unit disc;
    boundary fields only the circle itself.  Anything else raises
    DomainViolation.
    """
    z = np.asarray(zeta, dtype=complex)
    mod = np.abs(z)
    if u.is_holomorphic_type():
        if np.any(mod > 1.0 + CIRCLE_TOL):
            raise DomainViolation("holomorphic-type disc evaluated outside |zeta| <= 1")
    else:
        if np.any(np.abs(mod - 1.0) > CIRCLE_TOL):
            raise DomainViolation("boundary field evaluated off the unit circle")
    # cumulative products instead of z**k per frequency: complex pow is an
    # order of magnitude slower than multiply for wide bands
    K = u.coeffs.shape[0]
    pows = np.empty(z.shape + (K,), dtype=complex)
    pows[..., 0] = z**u.k_min if u.k_min != 0 else 1.0
    for i in range(1, K):
        pows[..., i] = pows[..., i - 1] * z
    return np.tensordot(pows, u.coeffs, axes=([-1], [0]))


def differentiate(u: FourierDisc) -> FourierDisc:
    """d/dzeta: sum k a_k zeta^{k-1}."""
    coeffs = u.ks.reshape(-1, *([1] * len(u.target_shape))) * u.coeffs
    return FourierDisc(coeffs, u.k_min - 1)


# entries of the product stack _convolve_bands reduces at once
_CONV_STACK = 1 << 16


def _convolve_bands(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution along axis 0 of coefficient stacks.

    out[k] = sum_i a[i] * b[k - i], added in increasing i onto zero as in
    the loop `out[i : i + Kb] += a[i] * b`, so the bits are the loop's.
    A chunk of rows of a multiplies shifted windows of the zero-padded b;
    the chunk's stack, headed by the running sum, is reduced along axis 0,
    which numpy adds row by row.  The chunk keeps the stack near
    _CONV_STACK entries whatever the band.
    """
    Ka, Kb = a.shape[0], b.shape[0]
    out_shape = np.broadcast_shapes(a.shape[1:], b.shape[1:])
    rows = min(Ka, max(1, _CONV_STACK // ((Ka + Kb) * math.prod(out_shape))))
    width = rows + Kb - 1
    # the last chunk may run past the band into zeros that are cut off
    out = np.zeros((Ka + Kb - 1 + rows - 1, *out_shape), dtype=complex)
    pad = np.zeros((rows - 1, *b.shape[1:]), dtype=b.dtype)
    # row j of shifted is b moved j places along a zero row of length width
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([pad, b, pad]), width, axis=0
    )
    shifted = np.moveaxis(windows[::-1], -1, 1)
    stack = np.empty((rows + 1, width, *out_shape), dtype=complex)
    for i0 in range(0, Ka, rows):
        c = min(rows, Ka - i0)
        acc = out[i0 : i0 + width]
        stack[0] = acc
        np.multiply(a[i0 : i0 + c, None], shifted[:c], out=stack[1 : c + 1])
        np.add.reduce(stack[: c + 1], axis=0, out=acc)
    return out[: Ka + Kb - 1]


def dot_product(u: FourierDisc, v: FourierDisc) -> FourierDisc:
    """Bilinear dot z . w = sum_j z_j w_j (no conjugation), as a scalar disc
    carrying the whole convolution band (exact).

    Example: (zeta, i) . (1, zeta) = zeta + i*zeta = (1+i) zeta.
    """
    if u.target_shape != v.target_shape or len(u.target_shape) != 1:
        raise ValueError("dot_product expects two vector discs of equal length")
    m = u.target_shape[0]
    conv = sum(
        _convolve_bands(u.coeffs[:, j], v.coeffs[:, j]) for j in range(m)
    )
    return FourierDisc(conv, u.k_min + v.k_min)


def check_real(u: FourierDisc) -> float:
    """Max asymmetry |a_{-k} - conj(a_k)| (and |Im a_0|); raises NotReal."""
    asym = 0.0
    for k in range(0, max(abs(u.k_min), u.k_max) + 1):
        if k == 0:
            asym = max(asym, float(np.max(np.abs(np.imag(u.coefficient(0))), initial=0.0)))
        else:
            d = u.coefficient(-k) - np.conj(u.coefficient(k))
            asym = max(asym, float(np.max(np.abs(d), initial=0.0)))
    if asym > REALITY_TOL:
        raise NotReal(f"field asymmetry {asym:.3e} exceeds {REALITY_TOL:.0e}")
    return asym


def real_field(values: np.ndarray, N: int) -> FourierDisc:
    """Real boundary field from real grid values, band [-N, N]."""
    u = FourierDisc.from_boundary_values(np.asarray(values, dtype=complex), -N, N)
    # enforce exact conjugate symmetry (kills fft roundoff drift)
    c = u.coeffs
    sym = 0.5 * (c + np.conj(c[::-1]))
    return FourierDisc(sym, -N)


def analytic_completion(eta: FourierDisc) -> FourierDisc:
    """The holomorphic-type G with Re G = eta on the circle and G(0) real.

    G = a_0 + 2 sum_{k>=1} a_k zeta^k.  Requires eta real
    (coefficient symmetry within 1e-10), else NotReal.  cos t -> zeta,
    sin t -> -i zeta, constants stay put.
    """
    check_real(eta)
    k_hi = max(eta.k_max, 0)
    coeffs = np.zeros((k_hi + 1, *eta.target_shape), dtype=complex)
    coeffs[0] = np.real(eta.coefficient(0))
    for k in range(1, k_hi + 1):
        coeffs[k] = 2.0 * eta.coefficient(k)
    return FourierDisc(coeffs, 0)


def winding_values(vals: np.ndarray) -> int:
    """Winding number of a sampled closed curve via phase increments.

    Summing the principal arguments of consecutive ratios is exact as long
    as no single step turns by more than pi/2; a larger step raises
    AmbiguousWinding.
    """
    vals = np.asarray(vals, dtype=complex).ravel()
    mods = np.abs(vals)
    if float(np.min(mods)) < MIN_MODULUS:
        raise ZeroOnCircle(f"curve modulus dips to {np.min(mods):.3e}")
    steps = np.angle(np.roll(vals, -1) / vals)
    if float(np.max(np.abs(steps))) > 0.5 * np.pi:
        raise AmbiguousWinding("curve is undersampled: a step turns by > pi/2")
    w = float(np.sum(steps) / (2.0 * np.pi))
    k = int(np.round(w))
    if abs(w - k) >= 0.25:
        raise AmbiguousWinding(f"phase total {w:.6f} does not round decisively")
    return k


def winding(u: FourierDisc) -> int:
    """Winding number of a scalar field around 0, by winding_values on
    max(8 * span, 512) samples, span = |k_min| + |k_max| + 1.  Raises
    ZeroOnCircle if |u| dips below MIN_MODULUS on the sample grid and
    AmbiguousWinding if the grid is too coarse for the phase or the phase
    total is further than 0.25 from an integer.
    """
    if u.target_shape != ():
        raise ValueError("winding is defined for scalar fields")
    span = abs(u.k_min) + abs(u.k_max) + 1
    return winding_values(u.boundary_values(max(8 * span, 512)))
