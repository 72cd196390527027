"""Empirical-process estimators over restricted function classes.

A restricted class is stored as a matrix of function values: one row
per scalar function (a trained scorer projected onto one class label),
one column per sample point. On top of that matrix this module
provides Monte Carlo Gaussian and Rademacher complexity (the Gaussian
one also sampled in the row space), the Massart finite-class bound,
greedy epsilon-covers under the data-dependent L2 metric
d(f, g) = sqrt(mean_j (f_j - g_j)^2), built for every scale in one
first-fit pass over the rows, and the finite chaining (Dudley) bound.

All logarithms are natural.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import stat
import tempfile
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import EpisodeBatch
from .learners import BaseLearner, FeatureFamily, require_fitted

# The direct Monte Carlo path takes draws 2**23 // n_points at a time: this
# chunk width fixes which normals or signs feed which draw, not memory.
_CHUNK_ELEMENTS = 1 << 23
# Each chunk's noise is filled this many float64 entries (2 MB) at a time.
_NOISE_SLAB = 1 << 18
_SCALE_BLOCK = 64  # greedy covers are built for at most this many scales per pass
# A parsed matrix CSV's sidecar: this line, a JSON header line, the CSV's bytes and, from the
# next multiple of 8 bytes, the values as little-endian float64. Bump it if layout or parse change.
_SIDECAR_MAGIC = b"metamargin parsed csv v2\n"
# A sidecar's copy of the CSV is compared with the CSV this many bytes at a time.
_COMPARE_BLOCK = 1 << 18
# Whatever is wrong with a sidecar (missing, truncated, foreign), the CSV is parsed instead.
_SIDECAR_ERRORS = (OSError, LookupError, TypeError, ValueError)


def _csv_label(label: str) -> str:
    """label as ``csv.writer`` writes the first of several fields: quoted
    if it holds a comma, a quote or a line break, and empty if empty."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow((label, ""))
    return buffer.getvalue()[:-len(",\r\n")]


@dataclass(frozen=True, eq=False)
class FunctionValueMatrix:
    """Restriction of a function class to sample points.

    values[i, j] is the i-th function evaluated at the j-th point;
    every entry is bounded by b in absolute value. labels optionally
    carries one string of row metadata per function.
    """

    values: np.ndarray
    b: float
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] < 1:
            raise ValueError("values must be a nonempty 2-D matrix")
        if not (math.isfinite(self.b) and self.b > 0):
            raise ValueError(f"b must be finite and > 0, got {self.b}")
        # |x| <= t is x <= t and -x <= t; an extreme is NaN if any entry
        # is, so this also rejects NaN, and needs no |values| temporary
        if not (vals.max() <= self.b + 1e-9 and -vals.min() <= self.b + 1e-9):
            raise ValueError(f"entries must be finite and within bound b={self.b}")
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != vals.shape[0]:
                raise ValueError("need one label per row")
            object.__setattr__(self, "labels", labels)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_functions(self) -> int:
        return self.values.shape[0]

    @property
    def n_points(self) -> int:
        return self.values.shape[1]

    def to_csv(self, path: str) -> None:
        """Write as UTF-8 CSV: a ``# b=<float>`` header line, then one row
        per function with its label in the first column. The bytes are those
        of ``csv.writer`` given the label and each value's ``repr``. Rows
        become Python floats one at a time, so only one row's objects are
        held at once."""
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(f"# b={self.b!r}\n")
            labels = self.labels or tuple(f"f{i}" for i in range(self.n_functions))
            for label, row in zip(labels, self.values):
                handle.write(f"{_csv_label(label)},{','.join(map(repr, row.tolist()))}\r\n")

    @classmethod
    def from_csv(cls, path: str) -> "FunctionValueMatrix":
        """Read what ``to_csv`` writes. The file is UTF-8, labels use
        standard CSV quoting, blank lines are skipped, and b and the values
        are parsed by numpy's reader; a malformed header or body raises
        ValueError.

        A pipe, FIFO or other non-regular file is read once. A parsed
        regular file leaves a sidecar ``.<basename>.parsed`` beside it, if
        the directory can be written, holding a copy of its bytes. A later
        read compares the file with that copy one block at a time, through
        one handle: if they are equal, the matrix is loaded from the sidecar
        instead of parsing; otherwise the same handle reads the file again
        from its start, and it is parsed and replaces the sidecar. So a hit
        holds the values and two compare blocks, and a parse the file's bytes.
        """
        head, name = os.path.split(path)
        sidecar = os.path.join(head, f".{name}.parsed")
        with open(path, "rb") as handle:
            info = os.fstat(handle.fileno())
            if stat.S_ISREG(info.st_mode):
                matrix = _read_sidecar(cls, sidecar, handle, info.st_size)
                if matrix is not None:
                    return matrix
                handle.seek(0)
            data = handle.read()
        # the body is read from the stream, never held as a list of lines
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as lines:
            header = lines.readline().strip()
            if not header.startswith("# b="):
                raise ValueError("matrix CSV must start with a '# b=<value>' line")
            text = header[len("# b="):]
            # parsed like the body; np.loadtxt only warns on an empty value, hence the guard
            b = np.loadtxt([text], delimiter=",", quotechar='"', comments=None, ndmin=1) if text else ()
            if len(b) != 1:
                raise ValueError(f"matrix CSV header must hold one number after '# b=', got {text!r}")
            body = lines.tell()
            first = next((record for record in csv.reader(lines) if record), None)
            if first is None:
                raise ValueError("matrix CSV contains no rows")
            lines.seek(body)
            row = np.dtype([("label", object), ("values", np.float64, (len(first) - 1,))])
            table = np.loadtxt(lines, dtype=row, delimiter=",", quotechar='"', comments=None, ndmin=1)
        matrix = cls(values=np.ascontiguousarray(table["values"]), b=float(b[0]), labels=tuple(table["label"]))
        if stat.S_ISREG(info.st_mode):
            _write_sidecar(sidecar, data, matrix, stat.S_IMODE(info.st_mode) & 0o666)
        return matrix


def _read_sidecar(cls: type, sidecar: str, source, size: int) -> Optional[FunctionValueMatrix]:
    """The matrix, of type cls, that sidecar stores for the size bytes the
    binary file source holds from its position to its end, compared one
    block at a time; None if it stores anything else or cannot be read."""
    try:
        with open(sidecar, "rb") as handle:
            magic, meta = handle.readline(), json.loads(handle.readline())
            offset = -(-(handle.tell() + size) // 8) * 8
            if not (magic == _SIDECAR_MAGIC and meta["source"] == size
                    and os.fstat(handle.fileno()).st_size == offset + 8 * math.prod(meta["shape"])):
                return None
            for start in range(0, size, _COMPARE_BLOCK):
                block = min(_COMPARE_BLOCK, size - start)
                if source.read(block) != handle.read(block):
                    return None
            if source.read(1):  # the file grew after its size was taken
                return None
            values = np.empty(meta["shape"], dtype="<f8")  # aligned, and read into without a copy
            if handle.seek(offset) == offset and handle.readinto(values) == values.nbytes:
                return cls(values=values, b=float(meta["b"]), labels=tuple(meta["labels"]))
    except _SIDECAR_ERRORS:
        pass
    return None


def _write_sidecar(sidecar: str, data: bytes, matrix: FunctionValueMatrix, mode: int) -> None:
    """Replace sidecar by the CSV's bytes data and matrix, readable by whoever
    may read the CSV (its read and write bits are mode), or leave it if the
    directory cannot be written. A short write leaves a sidecar that misses."""
    meta = {"source": len(data), "shape": matrix.values.shape, "b": matrix.b, "labels": matrix.labels}
    head = _SIDECAR_MAGIC + json.dumps(meta).encode() + b"\n"  # ASCII, one line
    try:
        fd, temp = tempfile.mkstemp(prefix=os.path.basename(sidecar) + ".", dir=os.path.dirname(sidecar) or ".")
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb"):  # closes fd
            os.fchmod(fd, mode)
            os.writev(fd, (head, data, bytes(-(len(head) + len(data)) % 8), matrix.values.astype("<f8", copy=False)))
        os.replace(temp, sidecar)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(temp)


@dataclass(frozen=True)
class ComplexityEstimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    std_error: float
    draws: int

    def __post_init__(self) -> None:
        if self.draws < 1:
            raise ValueError("draws must be >= 1")
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")


def _restriction_values(batch: EpisodeBatch, family: FeatureFamily, base_learner: BaseLearner,
                        k: int) -> tuple[np.ndarray, list, float, tuple[str, ...]]:
    """Fit every map on the whole batch: values (k*|family|, n, m), the
    scorers, their shared bound b and the row labels."""
    if batch.k != k:
        raise ValueError("episode class count does not match k")
    values = np.empty((k * len(family), batch.n, batch.m))
    scorers, labels = [], []
    b = None
    for i, phi in enumerate(family.maps):
        scorer = base_learner(batch, phi)
        if b is None:
            b = float(scorer.b)
        elif float(scorer.b) != b:
            raise ValueError("all scorers in a restriction must share the bound b")
        values[i * k:(i + 1) * k] = np.moveaxis(scorer.scores_matrix(batch.xs), -1, 0)  # (k, n, m)
        scorers.append(scorer)
        labels.extend(f"y={y}|phi={phi.id}" for y in range(1, k + 1))
    return values, scorers, b, tuple(labels)


def build_pi1f_restriction(
    batch: EpisodeBatch,
    family: FeatureFamily,
    base_learner: BaseLearner,
    k: int,
) -> FunctionValueMatrix:
    """Function values of every (class label, feature map) projection.

    Per feature map one batched fit trains a scorer on each episode;
    the column block for episode l holds that scorer's values on
    episode l's own m points, so the shape is (k * |family|) x (n * m).
    Raises the base-learner's error if it fails on any episode.
    """
    values, scorers, b, labels = _restriction_values(batch, family, base_learner, k)
    for scorer in scorers:
        require_fitted(scorer)
    return FunctionValueMatrix(values=values.reshape(len(labels), -1), b=b, labels=labels)


def episode_restrictions(
    batch: EpisodeBatch,
    family: FeatureFamily,
    base_learner: BaseLearner,
    k: int,
) -> list[Union[FunctionValueMatrix, Exception]]:
    """The restriction of each episode of the batch, as
    ``build_pi1f_restriction`` gives it for that episode as a batch of
    one, from one batched fit per map; for an episode the base-learner
    failed on, the error that call would raise (the first failed map's),
    unraised."""
    values, scorers, b, labels = _restriction_values(batch, family, base_learner, k)
    out = []
    for l in range(batch.n):
        failed = next((scorer for scorer in scorers if scorer.failed[l]), None)
        out.append(failed.fit_error() if failed is not None else
                   FunctionValueMatrix(values=np.ascontiguousarray(values[:, l]), b=b, labels=labels))
    return out


def _sup_linear_forms(vals: np.ndarray, n_points: int, chunk: int, draws: int, seed: int,
                      gaussian: bool) -> ComplexityEstimate:
    """Mean and standard error over draws of max_rows (2/n_points) <row, noise>,
    for the rows of vals and noise i.i.d. N(0, 1) or +-1 per column of vals,
    taken at most chunk draws at a time."""
    if draws < 2:
        raise ValueError("draws must be >= 2")
    n_funcs, n_cols = vals.shape
    rng = np.random.default_rng(seed)
    chunk = min(draws, chunk)
    # a chunk's (n_cols, take) noise holds one row per column of vals, so
    # `rows` of them at a time are the next contiguous run of the stream
    rows = min(n_cols, max(1, _NOISE_SLAB // chunk))
    # every slab and partial sum fills a C-contiguous prefix, as out= needs
    buffer = np.empty(rows * chunk)
    sums = np.empty(n_funcs * chunk)
    parts = np.empty(n_funcs * chunk) if rows < n_cols else None
    sups = np.empty(draws)
    done = 0
    while done < draws:
        take = min(chunk, draws - done)
        acc = sums[:n_funcs * take].reshape(-1, take)
        if not gaussian:  # sign i of a chunk is bit i % 64 of its raw word i // 64 (1 -> +1)
            words = rng.bit_generator.random_raw(-(-n_cols * take // 64)).astype("<u8", copy=False).view(np.uint8)
        for p0 in range(0, n_cols, rows):
            p1 = min(p0 + rows, n_cols)
            slab = buffer[:(p1 - p0) * take]
            if gaussian:
                rng.standard_normal(out=slab)
            else:  # only the slab's own bits, freed before the next slab's are unpacked
                skip = p0 * take % 8
                np.multiply(np.unpackbits(words[p0 * take // 8:], count=skip + slab.size, bitorder="little")[skip:],
                            2.0, out=slab)
                slab -= 1.0
            noise = slab.reshape(p1 - p0, take)
            if p0 == 0:
                np.matmul(vals[:, p0:p1], noise, out=acc)
            else:
                part = parts[:acc.size].reshape(acc.shape)
                acc += np.matmul(vals[:, p0:p1], noise, out=part)
        sups[done:done + take] = acc.max(axis=0)
        done += take
        words = None  # freed before the next chunk's words are drawn
    sups *= 2.0 / n_points
    mean = float(sups.mean())
    se = float(sups.std(ddof=1) / math.sqrt(draws))
    return ComplexityEstimate(mean=mean, std_error=se, draws=draws)


def _direct(A: FunctionValueMatrix, draws: int, seed: int, gaussian: bool) -> ComplexityEstimate:
    """One noise entry per (point, draw)."""
    return _sup_linear_forms(A.values, A.n_points, max(1, _CHUNK_ELEMENTS // A.n_points), draws, seed, gaussian)


def gaussian_complexity_mc(A: FunctionValueMatrix, draws: int = 2000, seed: int = 0) -> ComplexityEstimate:
    """Monte Carlo estimate of E_g max_rows (2/M) <row, g>, g ~ N(0, I)."""
    return _direct(A, draws, seed, gaussian=True)


def gaussian_complexity_rowspace(A: FunctionValueMatrix, draws: int = 2000, seed: int = 0) -> ComplexityEstimate:
    """The Monte Carlo estimate of ``gaussian_complexity_mc``, sampled in the
    row space.

    For g ~ N(0, I_M), A g ~ N(0, A A^T) (Bartlett & Mendelson 2002), so the
    rows of F z, z ~ N(0, I_r), have the same joint law whenever
    F F^T = A A^T. F (N x r) comes from ``eigh`` of the N x N Gram, with
    round-off negative eigenvalues clipped to 0 and their columns dropped, and
    each draw takes r <= N normals in place of M. The estimate has the same
    distribution as ``gaussian_complexity_mc``'s but not its stream. When
    M <= N that path is the cheaper one, and its result is returned unchanged.
    """
    if A.n_points <= A.n_functions:
        return gaussian_complexity_mc(A, draws, seed)
    lam, vecs = np.linalg.eigh(A.values @ A.values.T)  # eigenvalues ascending
    r = max(1, int(np.count_nonzero(lam > 0)))
    factor = vecs[:, -r:] * np.sqrt(np.maximum(lam[-r:], 0.0))
    # a chunk's (r, draws) noise and (N, draws) sums fit one noise slab together
    chunk = max(1, _NOISE_SLAB // (r + A.n_functions))
    return _sup_linear_forms(factor, A.n_points, chunk, draws, seed, gaussian=True)


def rademacher_complexity_mc(A: FunctionValueMatrix, draws: int = 2000, seed: int = 0) -> ComplexityEstimate:
    """Monte Carlo estimate with i.i.d. +-1 signs, one bit of a raw generator word each, in place of Gaussians."""
    return _direct(A, draws, seed, gaussian=False)


def massart_bound(A: FunctionValueMatrix) -> float:
    """Finite-class bound: max_a ||a - abar|| * 2 sqrt(2 ln N) / M."""
    vals = A.values
    n, m = vals.shape
    centered = vals - vals.mean(axis=0, keepdims=True)
    radius = float(np.linalg.norm(centered, axis=1).max())
    return radius * 2.0 * math.sqrt(2.0 * math.log(n)) / m


def _normalized_sq_dists(vals: np.ndarray) -> np.ndarray:
    # Squared data-dependent L2 distances, (N, N); clipped at 0 for round-off.
    sq = np.einsum("ij,ij->i", vals, vals)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (vals @ vals.T)
    return np.maximum(d2, 0.0) / vals.shape[1]


def _greedy_covers(d2: np.ndarray, scales) -> list[list[int]]:
    # One first-fit pass over the rows for every scale: row 0 opens a center, and row i opens one
    # at scale l when near[l, i] = min of d2[i, c] over the centers c < i opened at scale l exceeds
    # scales[l]^2. Scales below every off-diagonal entry open every row and skip the scan.
    sq = np.array([s * s for s in scales], dtype=np.float64)
    cols = np.ascontiguousarray(d2.T)  # cols[c] is the column d2[:, c]
    np.fill_diagonal(cols, np.inf)  # d2[i, i] would enter near[:, i] only after row i is decided
    opened = np.ones((cols.shape[0], sq.size), dtype=bool)
    scanned = np.flatnonzero(~(sq < cols.min()))
    sq, scan = sq[scanned], opened[:, scanned]
    near = np.repeat(cols[None, 0], scanned.size, axis=0)
    for i in range(1, cols.shape[0]):
        np.greater(near[:, i], sq, out=scan[i])
        np.minimum(near, cols[i], out=near, where=scan[i, :, None])
    opened[:, scanned] = scan
    return [np.flatnonzero(column).tolist() for column in opened.T]


def greedy_epsilon_cover(A: FunctionValueMatrix, eps: float) -> tuple[list[int], int]:
    """First-fit cover under the normalized L2 metric.

    Scans rows in index order, opening a center whenever no center lies
    within eps. Every row ends within eps of a center, so the returned
    size upper-bounds the minimal covering number at eps.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    (centers,) = _greedy_covers(_normalized_sq_dists(A.values), [eps])
    return centers, len(centers)


def entropy_integral(A: FunctionValueMatrix, levels: int) -> float:
    """Chaining sum sum_{i=1..J} (alpha_i / 2) sqrt(ln |T_i|), J = levels.

    alpha_i = L * 2^-i with L the largest normalized row norm, and T_i
    a greedy cover at scale alpha_i; covers of size 1 contribute 0. This
    is not an upper bound on the entropy integral from 0 to L of
    sqrt(ln N(tau)) dtau: it prices [alpha_{i+1}, alpha_i] at the larger
    scale, where N is smallest, and leaves out [L/2, L] and [0,
    alpha_{J+1}]. On the rows [1] and [-1] it gives 0.2081, 0.3903 and
    0.4162 at 1, 4 and 12 levels against sqrt(ln 2) = 0.8326: it
    under-counts the integral by about half.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    # 2.0 ** -i rounds to 0.0 for every i >= 1075, so alpha_i = 0.0 there and each later
    # level adds +0.0: levels past 1074 cannot change the sum, and are not computed.
    levels = min(levels, 1074)
    vals = A.values
    L = float(np.sqrt(np.einsum("ij,ij->i", vals, vals) / vals.shape[1]).max())
    d2 = _normalized_sq_dists(vals)
    total = 0.0
    for start in range(1, levels + 1, _SCALE_BLOCK):
        alphas = [L * 2.0 ** (-i) for i in range(start, min(start + _SCALE_BLOCK, levels + 1))]
        for alpha_i, centers in zip(alphas, _greedy_covers(d2, alphas)):
            if len(centers) > 1:
                total += (alpha_i / 2.0) * math.sqrt(math.log(len(centers)))
    return total


def dudley_bound(A: FunctionValueMatrix, levels: int) -> float:
    """Dudley's chaining bound on the Gaussian complexity of the rows:
    (24 / sqrt(M)) times ``entropy_integral``, so it inherits that sum's
    under-count."""
    return 24.0 / math.sqrt(A.n_points) * entropy_integral(A, levels)
