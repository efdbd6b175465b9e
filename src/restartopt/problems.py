"""Built-in test problems with known regularity, plus dataset ingestion.

Synthetic instances declare exact regularity parameters so that every
convergence envelope can be checked against runs. Classification-style
losses (least squares, logistic, LASSO, box-constrained dual SVM) accept
either loaded datasets or the synthetic design generators, which stand
in for the UCI Sonar/Madelon shapes at desk scale.

Losses are written summed over samples (not averaged), matching the
declared smoothness constants L = lambda_max(A^T A) and, for logistic,
L = lambda_max(A^T A)/4.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterator, Optional, TextIO

import numpy as np

from .core import DivergenceError, ProximalOracle, QuadraticForm, RegularityParams, Vector


class DatasetFormatError(ValueError):
    """A dataset file failed to parse; the message pinpoints the line."""


@dataclass(frozen=True)
class ProblemInstance:
    """A problem oracle bundled with everything its guarantees need.

    ``regularity`` is present exactly for the synthetic instances whose
    constants are known in closed form; ``x_star_distance`` gives the
    distance to the minimizer set when it has a usable form. The
    ``validation_radius`` bounds the region on which the declared
    regularity was verified (and should be sampled).
    """

    name: str
    oracle: ProximalOracle
    x0: Vector
    regularity: Optional[RegularityParams] = None
    f_star: Optional[float] = None
    x_star_distance: Optional[Callable[[Vector], float]] = None
    validation_radius: float = 1.0
    notes: tuple[str, ...] = ()

    @property
    def dimension(self) -> int:
        return self.oracle.dimension

    def gap0(self) -> Optional[float]:
        if self.f_star is None:
            return None
        return float(self.oracle.value(self.x0)) - self.f_star


def sample_validation_points(
    instance: ProblemInstance, count: int, seed: int = 0
) -> list[Vector]:
    """Points drawn uniformly from the ball where regularity was declared."""
    rng = np.random.default_rng(seed)
    n = instance.dimension
    points = []
    for _ in range(count):
        direction = rng.standard_normal(n)
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            direction[0] = 1.0
            norm = 1.0
        radius = instance.validation_radius * rng.uniform() ** (1.0 / n)
        points.append(direction / norm * radius)
    return points


def _unit_vector(rng: np.random.Generator, n: int) -> Vector:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def make_quadratic(n: int, kappa_target: float, seed: int = 0) -> ProblemInstance:
    """Strongly convex quadratic f(x) = x^T A x / 2 with controlled spectrum.

    The spectrum of A is log-spaced in [1, kappa_target], so the spectral
    condition number equals ``kappa_target``. The declared sharpness
    constant is lambda_min / 2, the largest mu with
    mu ||x||^2 <= f(x) - f* everywhere.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if kappa_target < 1:
        raise ValueError(f"kappa_target must be >= 1, got {kappa_target}")
    rng = np.random.default_rng(seed)
    eigenvalues = np.geomspace(1.0, kappa_target, n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    # A = q diag(eigenvalues) q^T; numpy computes q @ q.T as a symmetric
    # product, so A is exactly symmetric without a second pass
    q *= np.sqrt(eigenvalues)
    A = q @ q.T
    x0 = _unit_vector(rng, n)
    reg = RegularityParams(
        s=2.0, L=float(eigenvalues[-1]), r=2.0, mu=float(eigenvalues[0]) / 2.0,
        f_star=0.0,
    )
    return ProblemInstance(
        name=f"quadratic(n={n},kappa={kappa_target:g},seed={seed})",
        oracle=ProximalOracle.from_quadratic(QuadraticForm(A, np.zeros(n))),
        x0=x0,
        regularity=reg,
        f_star=0.0,
        x_star_distance=lambda x: float(np.linalg.norm(x)),
        validation_radius=1.0,
    )


def _power(base: float, exponent: float) -> float:
    """``base ** exponent``, but inf where the float power overflows.

    Python's float power raises OverflowError there, which would keep a
    line search from doubling its estimate away from a far candidate.
    """
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def make_norm_power(n: int, r: float, radius: float = 1.0, seed: int = 0) -> ProblemInstance:
    """f(x) = ||x||^r, sharp with (r, mu = 1) and smooth on the given ball.

    For r > 2 smoothness is local: L = r (r - 1) radius^(r - 2) on the
    ball of the given radius, and tau = 1 - 2/r > 0.
    """
    if r < 2:
        raise ValueError(f"exponent must be >= 2, got {r}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    rng = np.random.default_rng(seed)

    def value(x: Vector) -> float:
        return _power(float(np.linalg.norm(x)), r)

    def grad(x: Vector) -> Vector:
        nrm = float(np.linalg.norm(x))
        if nrm == 0.0:
            return np.zeros_like(x)
        scale = r * _power(nrm, r - 2.0)
        if not math.isfinite(scale):
            return np.full_like(x, math.inf)
        with np.errstate(over="ignore"):  # an entry past the float range is inf
            return scale * x

    L = r * (r - 1.0) * _power(radius, r - 2.0)
    if not math.isfinite(L):
        raise ValueError(f"smoothness constant r (r - 1) radius^(r - 2) overflows "
                         f"at r={r:g}, radius={radius:g}")
    x0 = _unit_vector(rng, n) * radius
    reg = RegularityParams(s=2.0, L=L, r=r, mu=1.0, f_star=0.0)
    return ProblemInstance(
        name=f"norm_power(n={n},r={r:g},radius={radius:g},seed={seed})",
        oracle=ProximalOracle(dimension=n, value=value, smooth_gradient=grad),
        x0=x0,
        regularity=reg,
        f_star=0.0,
        x_star_distance=lambda x: float(np.linalg.norm(x)),
        validation_radius=radius,
    )


def make_sharp_norm(n: int, seed: int = 0) -> ProblemInstance:
    """f(x) = ||x||: the prototypical nonsmooth sharp instance.

    Subgradients have norm at most 1 (s = 1, L = 1) and the sharpness
    bound holds with equality (r = 1, mu = 1). The zero subgradient is
    returned at the kink.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    rng = np.random.default_rng(seed)

    def value(x: Vector) -> float:
        return float(np.linalg.norm(x))

    def grad(x: Vector) -> Vector:
        nrm = float(np.linalg.norm(x))
        if nrm == 0.0:
            return np.zeros_like(x)
        return x / nrm

    x0 = _unit_vector(rng, n)
    reg = RegularityParams(s=1.0, L=1.0, r=1.0, mu=1.0, f_star=0.0)
    return ProblemInstance(
        name=f"sharp_norm(n={n},seed={seed})",
        oracle=ProximalOracle(dimension=n, value=value, smooth_gradient=grad),
        x0=x0,
        regularity=reg,
        f_star=0.0,
        x_star_distance=lambda x: float(np.linalg.norm(x)),
        validation_radius=1.0,
    )


_RANK_TOL = 1e-10


def _aligned(M: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of M whose data starts on a 64-byte boundary.

    numpy aligns its arrays to 16 bytes only (a large one starts 16 bytes
    past a page boundary), and BLAS multiplies a matrix at such an offset
    more slowly than an aligned one, to the same bits: with OpenBLAS's
    Haswell kernels and one thread, a 300x300 matrix-vector product takes
    about 15.5 us at offset 16 and 11.5 us aligned.
    """
    raw = np.empty(M.size + 8)
    start = -raw.ctypes.data % 64 // 8
    out = raw[start:start + M.size].reshape(M.shape)
    out[...] = M
    return out


def _least_squares_form(A: np.ndarray, b: np.ndarray) -> QuadraticForm:
    """||A x - b||^2 / 2 in Gram form: G = A^T A, h = A^T b, c = ||b||^2 / 2."""
    return QuadraticForm(_aligned(A.T @ A), A.T @ b, 0.5 * float(b @ b))


def _require_columns(A: np.ndarray) -> None:
    """Raise ValueError for a design with no columns: there is nothing to fit."""
    m, n = A.shape
    if n < 1:
        raise ValueError(f"empty design: the {m}x{n} matrix has no columns (dimension must be >= 1)")


def make_least_squares(A: np.ndarray, b: np.ndarray) -> ProblemInstance:
    """f(x) = ||A x - b||^2 / 2 with spectral regularity when A^T A is full rank."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    _require_columns(A)
    m, n = A.shape
    if b.shape != (m,):
        raise ValueError(f"target shape {b.shape} does not match design {A.shape}")
    form = _least_squares_form(A, b)
    eigenvalues = np.linalg.eigvalsh(form.Q)
    lam_max = float(eigenvalues[-1])
    lam_min = float(eigenvalues[0])
    oracle = ProximalOracle.from_quadratic(form)
    if lam_min > _RANK_TOL * max(lam_max, 1.0):
        x_star = np.linalg.solve(form.Q, form.h)
        f_star = oracle.value(x_star)
        reg = RegularityParams(s=2.0, L=lam_max, r=2.0, mu=lam_min / 2.0, f_star=f_star)
        dist = lambda x: float(np.linalg.norm(x - x_star))
    else:
        x_star, *_ = np.linalg.lstsq(A, b, rcond=None)
        f_star = oracle.value(x_star)
        reg = None
        dist = None
    return ProblemInstance(
        name=f"least_squares(m={m},n={n})",
        oracle=oracle,
        x0=np.zeros(n),
        regularity=reg,
        f_star=f_star,
        x_star_distance=dist,
        validation_radius=max(1.0, 2.0 * float(np.linalg.norm(x_star))),
    )


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _at_most_two(y: np.ndarray) -> Optional[np.ndarray]:
    """``np.unique(y)`` where ``y`` takes at most two distinct values, else ``None``.

    Finite labels are checked with their min, max and one comparison pass,
    because ``np.unique`` imports all of ``numpy.ma`` (numpy 2.x), which
    no run otherwise needs. Empty or non-finite labels go to ``np.unique``
    itself, so NaN and inf behave as it has them. Where the labels hold
    both +0.0 and -0.0, the zero returned may have either sign.
    """
    if y.size:
        lo, hi = y.min(), y.max()
        if math.isfinite(lo) and math.isfinite(hi):
            if lo == hi:
                return np.array([lo])
            return np.array([lo, hi]) if ((y == lo) | (y == hi)).all() else None
    values = np.unique(y)
    return values if values.size <= 2 else None


def _map_labels(y: np.ndarray) -> np.ndarray:
    """Map a two-valued label vector onto {-1, +1} (low -> -1, high -> +1)."""
    values = _at_most_two(y)
    if values is not None and set(values.tolist()) <= {-1.0, 1.0}:
        return y.astype(float)
    if values is None or values.size != 2:
        raise ValueError(
            f"classification labels must take exactly two values, got {np.unique(y)}"
        )
    return np.where(y == values[0], -1.0, 1.0)


def _is_separable(A: np.ndarray, y: np.ndarray, max_passes: int = 2000) -> bool:
    """Certain detection of linear separability via the perceptron.

    Returns True only when a separating direction was actually found;
    False means "not detected", which is inconclusive for hard margins.
    """
    Ay = A * y[:, None]
    w = np.zeros(A.shape[1] + 1)
    X = np.hstack([Ay, y[:, None]])  # homogeneous coordinate for the bias
    for _ in range(max_passes):
        margins = X @ w
        bad = margins <= 0
        if not bad.any():
            return True
        w = w + X[bad].sum(axis=0)
    return False


def make_logistic(A: np.ndarray, y: np.ndarray) -> ProblemInstance:
    """Summed logistic loss over +-1 labels; L = lambda_max(A^T A)/4.

    The optimum is not known in closed form; tests obtain it from a long
    reference run. Perfectly separable data admits no finite minimizer;
    when the (cheap, certain-only) separability probe detects this, the
    instance carries a note.
    """
    A = np.asarray(A, dtype=float)
    _require_columns(A)
    y = _map_labels(np.asarray(y, dtype=float))
    m, n = A.shape

    def value(x: Vector) -> float:
        margins = y * (A @ x)
        return float(np.logaddexp(0.0, -margins).sum())

    def grad(x: Vector) -> Vector:
        margins = y * (A @ x)
        return -(A.T @ (y * _sigmoid(-margins)))

    def value_and_grad(x: Vector) -> tuple[float, Vector]:
        margins = y * (A @ x)
        return (
            float(np.logaddexp(0.0, -margins).sum()),
            -(A.T @ (y * _sigmoid(-margins))),
        )

    lam_max = float(np.linalg.eigvalsh(A.T @ A)[-1])
    notes = ()
    if lam_max > 0 and _is_separable(A, y):
        notes = ("separable data: the infimum is approached but not attained",)
    return ProblemInstance(
        name=f"logistic(m={m},n={n})",
        oracle=ProximalOracle(
            dimension=n, value=value, smooth_gradient=grad,
            smooth_value_and_gradient=value_and_grad,
        ),
        x0=np.zeros(n),
        regularity=None,
        f_star=None,
        notes=notes,
    )


def soft_threshold(v: Vector, threshold: float) -> Vector:
    """Proximal operator of threshold * ||.||_1.

    v minus v clamped to [-threshold, threshold], in three array passes.
    It equals sign(v) max(|v| - threshold, 0) but for the sign of a zero
    entry.
    """
    return v - np.minimum(np.maximum(v, -threshold), threshold)


def make_lasso(A: np.ndarray, b: np.ndarray, lam: float = 1.0) -> ProblemInstance:
    """Composite LASSO: ||A x - b||^2 / 2 + lam ||x||_1 with soft-threshold prox."""
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape

    def nonsmooth(x: Vector) -> float:
        return lam * float(np.abs(x).sum())

    def prox(v: Vector, t: float) -> Vector:
        return soft_threshold(v, lam * t)

    return ProblemInstance(
        name=f"lasso(m={m},n={n},lam={lam:g})",
        oracle=ProximalOracle.from_quadratic(_least_squares_form(A, b), prox, nonsmooth),
        x0=np.zeros(n),
    )


def make_dual_svm(A: np.ndarray, y: np.ndarray, regularization: float = 1.0) -> ProblemInstance:
    """Dual of the squared-norm-regularized hinge loss: a box-constrained QP.

    minimize alpha^T K alpha / 2 - sum(alpha) over the box [0, 1]^m with
    K_ij = y_i y_j <a_i, a_j> / regularization; the prox is the clamp
    onto the box.
    """
    if regularization <= 0:
        raise ValueError(f"regularization must be positive, got {regularization}")
    A = np.asarray(A, dtype=float)
    y = _map_labels(np.asarray(y, dtype=float))
    m, n = A.shape
    K = np.outer(y, y) * (A @ A.T) / regularization
    K = _aligned(0.5 * (K + K.T))

    def prox(v: Vector, t: float) -> Vector:
        # np.clip(v, 0, 1) up to the sign of zero, at about half its cost
        return np.minimum(np.maximum(v, 0.0), 1.0)

    def nonsmooth(alpha: Vector) -> float:
        inside = np.all(alpha >= -1e-9) and np.all(alpha <= 1.0 + 1e-9)
        return 0.0 if inside else math.inf

    return ProblemInstance(
        name=f"dual_svm(m={m},n={n},reg={regularization:g})",
        oracle=ProximalOracle.from_quadratic(QuadraticForm(K, np.ones(m)), prox, nonsmooth),
        x0=np.zeros(m),
    )


def synthetic_regression(
    m: int, n: int, cond: float = 100.0, seed: int = 0, noise: float = 0.1
) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix with controlled conditioning plus noisy linear targets.

    The singular values of A are log-spaced so that the condition number
    of A^T A equals ``cond``. Stands in for the benchmark datasets at
    matched shapes. Needs rows m >= cols n >= 1 and cond >= 1.
    """
    if not m >= n >= 1:
        raise ValueError(f"synthetic design needs rows >= cols >= 1, got rows={m}, cols={n}")
    if not cond >= 1.0:
        raise ValueError(f"synthetic design needs cond >= 1, got cond={cond}")
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    singulars = np.geomspace(1.0, math.sqrt(cond), n)
    A = (u * singulars) @ v.T
    x_true = rng.standard_normal(n) / math.sqrt(n)
    b = A @ x_true + noise * rng.standard_normal(m)
    return A, b


def synthetic_classification(
    m: int, n: int, cond: float = 100.0, seed: int = 0, flip: float = 0.1
) -> tuple[np.ndarray, np.ndarray]:
    """Controlled-conditioning design with planted, partially flipped labels.

    Each label is flipped with probability ``flip``, which must lie in [0, 1].
    """
    if not 0.0 <= flip <= 1.0:
        raise ValueError(f"synthetic labels need flip in [0, 1], got flip={flip}")
    rng = np.random.default_rng(seed)
    A, _ = synthetic_regression(m, n, cond=cond, seed=seed, noise=0.0)
    w = rng.standard_normal(n)
    y = np.where(A @ w >= 0.0, 1.0, -1.0)
    flips = rng.uniform(size=m) < flip
    y[flips] = -y[flips]
    return A, y


def load_dataset(
    path: str, fmt: str = "csv", dimension: Optional[int] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Read a dense design matrix and target vector from disk.

    ``csv``: comma-separated rows of at least two numbers each, all of one
    width, the last column the target, no header. Each field is a number
    as Python's ``float`` reads it (surrounding whitespace allowed), and
    blank lines are skipped. numpy's C reader parses the file when it
    can; the line parser takes the files it rejects and gives the same
    array bit for bit. ``libsvm``: "label idx:val ..." lines with 1-based,
    strictly increasing indices; the dimension is the largest index seen
    unless given. Files are read as UTF-8 with universal newlines. In
    either format a malformed line, a byte that is not UTF-8 or a
    non-finite value (nan, inf, or a number that overflows) raises
    ``DatasetFormatError`` naming ``path:line``. Two-valued targets are
    mapped onto {-1, +1} (low -> -1); targets already in {-1, +1}, or with
    more than two values, pass through unchanged.

    A parsed array is kept in the ``datacache`` store, keyed by the
    file's size and the sha256 of its bytes with the format and
    ``dimension``. A later load of the same bytes, under any name or
    modification time, takes the stored array after checking its dtype,
    shape and finiteness, and returns the same arrays bit for bit. A miss
    parses the file as it streams by, hashing the bytes it reads, and
    stores the array under the key of those bytes; a file of a size that
    no entry has is read once, by the parse. No load holds a copy of a
    regular file; a pipe or another file that cannot be rewound is read
    into memory once. A file that fails to parse stores nothing, and a
    store that cannot be read or written leaves the load to the parser,
    without a warning.
    """
    if fmt not in ("csv", "libsvm"):
        raise ValueError(f"unknown dataset format {fmt!r}")
    from . import datacache  # generated problems never import hashlib

    with open(path, "rb") as fh:
        source = fh if fh.seekable() else io.BytesIO(fh.read())
        data = datacache.lookup(fmt, dimension, source)
        if data is None or not _is_parsed(data, fmt):
            source = datacache.Reader(fmt, dimension, source)
            if fmt == "csv":
                data = _load_csv(path, source)
            else:
                data = _load_libsvm(path, source, dimension)
            datacache.store(source.key(), data)
    return data[:, :-1], _dataset_targets(data[:, -1])


def _dataset_targets(y: np.ndarray) -> np.ndarray:
    """Two-valued targets mapped onto {-1, +1} (low -> -1); others, ``y`` itself."""
    values = _at_most_two(y)
    if values is not None and values.size == 2 and not set(values.tolist()) <= {-1.0, 1.0}:
        return np.where(y == values[0], -1.0, 1.0)
    return y


def _is_parsed(data: np.ndarray, fmt: str) -> bool:
    """Whether a stored array could be a parse of ``fmt``: rows, columns, finite values."""
    rows, cols = data.shape
    return rows >= 1 and cols >= (2 if fmt == "csv" else 1) and bool(np.isfinite(data).all())


def _load_csv(path: str, source: BinaryIO) -> np.ndarray:
    """A CSV dataset's rows as one array, the target in the last column."""
    data = _read_csv_fast(path, source)
    return _parse_csv_lines(path, source) if data is None else data


def _read_csv_fast(path: str, source: BinaryIO) -> Optional[np.ndarray]:
    """Parse a CSV dataset with numpy's C reader, or return ``None``.

    ``None`` hands the file to ``_parse_csv_lines``, the reference parser
    and the only one that names the offending line: on input numpy
    rejects (whitespace-only lines, ``1_000``, non-ASCII digits, bytes
    that are not UTF-8, bad or ragged rows), on fewer than one row or two
    columns, and on non-finite values. Where both parsers accept a file
    their arrays are bitwise equal. A file with no data line never reaches
    numpy, which would warn that it is empty.
    """
    with _dataset_text(source) as fh:
        for first in fh:
            if not first.isspace():
                break
        else:
            return None
        try:
            data = np.loadtxt(
                itertools.chain([first], fh), delimiter=",", comments=None, ndmin=2,
                dtype=float,
            )
        except ValueError:
            return None
    if data.shape[0] < 1 or data.shape[1] < 2 or not np.isfinite(data).all():
        return None
    return data


def _parse_csv_lines(path: str, source: BinaryIO) -> np.ndarray:
    """Parse a CSV dataset line by line; every error names ``path:line``."""
    rows: list[list[float]] = []
    width = None
    with _dataset_text(source) as fh:
        for lineno, line in enumerate(fh, start=1):
            _check_utf8(path, lineno, line)
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                row = [float(p) for p in parts]
            except ValueError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: {exc}") from None
            if len(row) < 2:
                raise DatasetFormatError(
                    f"{path}:{lineno}: need at least one feature and a target"
                )
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DatasetFormatError(
                    f"{path}:{lineno}: expected {width} columns, got {len(row)}"
                )
            if not all(map(math.isfinite, row)):
                column = next(i for i, v in enumerate(row, start=1) if not math.isfinite(v))
                raise _non_finite(path, lineno, row[column - 1], f"column {column}")
            rows.append(row)
    if not rows:
        raise DatasetFormatError(f"{path}: empty dataset")
    return np.asarray(rows, dtype=float)


@contextlib.contextmanager
def _dataset_text(source: BinaryIO) -> Iterator[TextIO]:
    """``source`` from its start as text, as ``open`` reads a file in UTF-8 with surrogateescape.

    Lines end at universal newlines, and each byte that is not UTF-8 reads
    as a surrogate (U+DC80..U+DCFF): the surrogates make numpy's reader
    reject the file, and ``_check_utf8`` names the line that holds one.
    ``source`` stays open, so that another parser can read it again.
    """
    source.seek(0)
    text = io.TextIOWrapper(source, encoding="utf-8", errors="surrogateescape")
    try:
        yield text
    finally:
        text.detach()


def _check_utf8(
    path: str, lineno: int, line: str, error: type[ValueError] = DatasetFormatError
) -> None:
    """Raise ``error`` if a line read as by ``_dataset_text`` holds a non-UTF-8 byte."""
    if line.isascii():
        return
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        byte = ord(line[exc.start]) - 0xDC00
        raise error(f"{path}:{lineno}: byte 0x{byte:02x} is not UTF-8") from None


def _non_finite(path: str, lineno: int, value: float, where: str) -> DatasetFormatError:
    return DatasetFormatError(f"{path}:{lineno}: non-finite value {value!r} in {where}")


def _load_libsvm(path: str, source: BinaryIO, dimension: Optional[int]) -> np.ndarray:
    """A LibSVM dataset as one dense array, the label in the last column."""
    labels: list[float] = []
    rows: list[dict[int, float]] = []
    max_index = 0
    with _dataset_text(source) as fh:
        for lineno, line in enumerate(fh, start=1):
            _check_utf8(path, lineno, line)
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: bad label: {exc}") from None
            if not math.isfinite(label):
                raise _non_finite(path, lineno, label, "the label")
            entries: dict[int, float] = {}
            previous = 0
            for token in parts[1:]:
                if ":" not in token:
                    raise DatasetFormatError(
                        f"{path}:{lineno}: expected idx:val, got {token!r}"
                    )
                idx_text, val_text = token.split(":", 1)
                try:
                    idx = int(idx_text)
                    val = float(val_text)
                except ValueError as exc:
                    raise DatasetFormatError(f"{path}:{lineno}: {exc}") from None
                if idx < 1:
                    raise DatasetFormatError(
                        f"{path}:{lineno}: indices are 1-based, got {idx}"
                    )
                if idx <= previous:
                    raise DatasetFormatError(
                        f"{path}:{lineno}: indices must be strictly increasing"
                    )
                if not math.isfinite(val):
                    raise _non_finite(path, lineno, val, f"feature {idx}")
                previous = idx
                entries[idx] = val
                max_index = max(max_index, idx)
            labels.append(label)
            rows.append(entries)
    if not rows:
        raise DatasetFormatError(f"{path}: empty dataset")
    d = dimension if dimension is not None else max_index
    if max_index > d:
        raise DatasetFormatError(
            f"{path}: feature index {max_index} exceeds dimension {d}"
        )
    data = np.zeros((len(rows), d + 1))
    for i, entries in enumerate(rows):
        for idx, val in entries.items():
            data[i, idx - 1] = val
    data[:, -1] = labels
    return data


def reference_solve(
    oracle: ProximalOracle,
    x0: Vector,
    L0: float = 1.0,
    max_iters: int = 10**6,
    grad_map_tol: float = 1e-12,
) -> tuple[Vector, float, int]:
    """High-accuracy proximal-gradient run used to pin reference optima.

    Plain backtracking proximal gradient, stopped when the gradient
    mapping norm L_hat ||x - prox_step(x)|| drops below ``grad_map_tol``
    or after ``max_iters`` accepted steps. Returns (point, objective,
    iterations used). Raises ``DivergenceError`` on a non-finite value at
    the start point, a non-finite gradient, or a line search that ends on
    a non-finite value.
    """
    x = np.array(x0, dtype=float)
    L_hat = float(L0)
    f0_x = oracle.smooth_value(x)
    if not math.isfinite(f0_x):
        raise DivergenceError("reference solve: non-finite objective at the start point")
    for it in range(1, max_iters + 1):
        g = np.asarray(oracle.smooth_gradient(x), dtype=float)
        if not np.isfinite(g).all():
            raise DivergenceError(f"reference solve: non-finite gradient (step {it})")
        while True:
            if oracle.prox is not None:
                cand = np.asarray(oracle.prox(x - g / L_hat, 1.0 / L_hat), dtype=float)
            else:
                cand = x - g / L_hat
            d = cand - x
            f0_cand = oracle.smooth_value(cand)
            if f0_cand <= f0_x + float(np.dot(g, d)) + 0.5 * L_hat * float(np.dot(d, d)):
                break
            L_hat *= 2.0
            if L_hat > 1e300:
                if not math.isfinite(f0_cand):
                    raise DivergenceError(
                        f"reference solve: objective stayed non-finite (step {it})"
                    )
                break
        grad_map = L_hat * float(np.linalg.norm(cand - x))
        x = cand
        f0_x = f0_cand
        L_hat = max(L_hat / 2.0, 1e-280)
        if grad_map <= grad_map_tol:
            return x, f0_x + oracle.psi(x), it
    return x, f0_x + oracle.psi(x), max_iters
