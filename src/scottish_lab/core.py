"""Shared domain types: coefficient sequences, dense matrices, dyadic index
algebra, seeded randomness, and the CSV interchange formats.

All types are immutable after construction and every operation here is a pure
function, so everything is safe to evaluate concurrently.
"""

from __future__ import annotations

import bisect
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    ComplexNotSupported,
    EmptyDimension,
    InvalidInput,
    InvalidParameter,
    TooShort,
)

_MASK64 = (1 << 64) - 1

# Size cap: no operation allocates a sequence or evaluates a circle grid of
# more than 2^SIZE_CAP_LOG2 points (512 MiB as complex128).  That admits the
# largest size in use, the 2^25-point grid of the top profile block that
# `lkk` evaluates on the nmax = 20 witness88 targets (taken 2^16 points at
# a time: 171 MB peak RSS and 10.5 s under a 1 GiB RLIMIT_AS), and makes
# larger requests fail fast instead of exhausting memory.
SIZE_CAP_LOG2 = 25


def check_size(log2_points: int, what: str) -> None:
    """Raise InvalidParameter if 2^log2_points points would pass the size cap."""
    if log2_points > SIZE_CAP_LOG2:
        raise InvalidParameter(f"{what} exceeds the size cap of 2^{SIZE_CAP_LOG2} points")


def _all_finite(arr: np.ndarray) -> bool:
    """True when every entry of arr is finite, with no full-length mask: min
    and max propagate NaN and are infinite only when some entry is.  Complex
    entries are read as their (re, im) pairs."""
    v = arr.view(np.float64) if arr.dtype == np.complex128 else arr
    return math.isfinite(v.min()) and math.isfinite(v.max())


def _binary_rescale(v: np.ndarray) -> tuple[np.ndarray, int]:
    """(v * 2^-e, e), e the binary exponent of the largest |re| or |im| in v
    (0 when every entry is 0): the parts, as a complex modulus may overflow
    though they are finite.  The result's largest part lies in [1/2, 1), and
    powers of two scale exactly while entries stay normal."""
    parts = v.view(np.float64)
    e = math.frexp(float(np.abs(parts).max(initial=0.0)))[1]
    return np.ldexp(parts, -e).view(v.dtype), e


def _freeze(obj, name: str, arr: np.ndarray, what: str) -> None:
    """Check arr's entries, make it read-only in place and set it as obj.name."""
    if not _all_finite(arr):
        raise InvalidInput(f"{what} must be finite")
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


def _adoptable(arr: np.ndarray, dtypes: tuple) -> np.ndarray:
    """arr, if the value types may take it without a copy: C-contiguous, of
    one of dtypes, and writable, so that no other value has frozen it.  The
    caller must hold the only reference and never write to it again."""
    if arr.dtype not in dtypes or not (arr.flags.c_contiguous and arr.flags.writeable):
        raise TypeError(f"only a fresh C-contiguous {' or '.join(map(str, dtypes))} array is adopted")
    return arr


@dataclass(frozen=True, eq=False)
class CoeffSeq:
    """Finite coefficient sequence c_0..c_D of an analytic polynomial.

    Entries are float64 or complex128.  Indexing past the degree yields 0,
    so a CoeffSeq doubles as a finitely supported sequence in c0/c/l-inf.
    The constructor copies its input; the library's own fresh arrays are
    taken without a copy by _adopt.
    """

    coeffs: np.ndarray

    def __init__(self, coeffs):
        arr = np.asarray(coeffs)
        self._check_shape(arr)
        dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
        _freeze(self, "coeffs", np.array(arr, dtype=dtype), "coefficients")

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> CoeffSeq:
        """The CoeffSeq of an array the library has just built: arr itself,
        frozen in place, with the constructor's checks and errors."""
        cls._check_shape(_adoptable(arr, (np.float64, np.complex128)))
        seq = object.__new__(cls)
        _freeze(seq, "coeffs", arr, "coefficients")
        return seq

    @staticmethod
    def _check_shape(arr: np.ndarray) -> None:
        if arr.ndim != 1:
            raise InvalidInput("coefficient data must be one-dimensional")
        if arr.size < 1:
            raise EmptyDimension("a CoeffSeq needs at least one entry")

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.coeffs)

    def __len__(self) -> int:
        return self.coeffs.size

    def __getitem__(self, k: int):
        if k < 0:
            raise IndexError("coefficient indices start at 0")
        if k > self.degree:
            return self.coeffs.dtype.type(0)
        return self.coeffs[k]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoeffSeq):
            return NotImplemented
        return self.coeffs.shape == other.coeffs.shape and bool(
            np.array_equal(self.coeffs, other.coeffs)
        )

    def padded(self, length: int) -> np.ndarray:
        """Dense value array of the given length, zero past the degree."""
        out = np.zeros(length, dtype=self.coeffs.dtype)
        m = min(length, self.coeffs.size)
        out[:m] = self.coeffs[:m]
        return out


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    """Real J-by-K matrix with finite entries.  The constructor copies its
    input; the library's own fresh arrays are taken without a copy by _adopt."""

    entries: np.ndarray

    def __init__(self, entries):
        arr = np.asarray(entries)
        if np.iscomplexobj(arr):
            raise ComplexNotSupported("matrices are real-only")
        self._check_shape(arr)
        _freeze(self, "entries", np.array(arr, dtype=np.float64), "matrix entries")

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> DenseMatrix:
        """The DenseMatrix of a float64 array the library has just built:
        arr itself, frozen in place, with the constructor's checks and errors."""
        cls._check_shape(_adoptable(arr, (np.float64,)))
        mat = object.__new__(cls)
        _freeze(mat, "entries", arr, "matrix entries")
        return mat

    @staticmethod
    def _check_shape(arr: np.ndarray) -> None:
        if arr.ndim != 2:
            raise InvalidInput("matrix data must be two-dimensional")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise EmptyDimension("matrix dimensions must be at least 1x1")

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self.entries.shape == other.entries.shape and bool(
            np.array_equal(self.entries, other.entries)
        )


# ---------------------------------------------------------------------------
# Dyadic index algebra.  Hard block n is the integer interval
# [2^n, 2^(n+1) - 1]; the blocks partition [1, inf).
# ---------------------------------------------------------------------------


def block_of(k: int) -> int:
    """The unique n with 2^n <= k < 2^(n+1); requires k >= 1."""
    if k < 1:
        raise InvalidInput("only indices >= 1 belong to a hard block")
    return k.bit_length() - 1


# ---------------------------------------------------------------------------
# Seeded randomness.  One counter-based generator (Philox) everywhere; seeds
# are explicit 64-bit integers and derived streams are independent, so
# parallel and serial evaluation orders produce identical results.
# ---------------------------------------------------------------------------


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, stream: int) -> int:
    """Deterministically derive an independent 64-bit seed for a substream."""
    return _splitmix64((seed & _MASK64) ^ _splitmix64(stream & _MASK64))


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; same seed gives bit-identical draws."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


# ---------------------------------------------------------------------------
# Operations.
# ---------------------------------------------------------------------------


def hankel_matrix(symbol: CoeffSeq, size: int) -> DenseMatrix:
    """Materialize the size-by-size matrix with entry (j, k) = symbol[j + k].

    Entries beyond the symbol's degree are zero.  Complex symbols are
    rejected: the matrix consumers are real-only.
    """
    if size < 1:
        raise EmptyDimension("matrix size must be at least 1")
    if symbol.is_complex:
        raise ComplexNotSupported("Hankel symbols must be real")
    check_size((size * size - 1).bit_length(), "Hankel matrix entry count")
    g = symbol.padded(2 * size - 1)
    # row j is g[j : j + size]; its last entry, g[j + size - 1], lies within
    # the 2 * size - 1 padded entries for every j < size
    return DenseMatrix._adopt(np.lib.stride_tricks.as_strided(g, (size, size), (g.strides[0],) * 2).copy())


def limit_estimate(z: CoeffSeq):
    """Estimate the limit of a convergent sequence.

    Returns the mean of the last quarter of the entries; needs length >= 4.
    """
    if len(z) < 4:
        raise TooShort("limit estimation needs at least 4 entries")
    tail = z.coeffs[-(len(z) // 4):]
    value = tail.mean()
    return complex(value) if z.is_complex else float(value)


def least_squares_line(x, y) -> tuple[float, float, float]:
    """Slope, intercept, and RMS residual of the least-squares line."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 2:
        raise TooShort("a line fit needs at least two points")
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    if sxx == 0.0:
        raise InvalidInput("line fit needs two distinct abscissae")
    slope = float(((x - xm) * (y - ym)).sum()) / sxx
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    return slope, float(intercept), float(math.sqrt(float((resid**2).mean())))


# ---------------------------------------------------------------------------
# CSV interchange.
#
# CoeffSeq files carry a header "k,re" or "k,re,im" and one row per stored
# coefficient with strictly increasing indices; indices absent from the file
# are zero.  The writer emits the nonzero entries plus the final index (even
# when zero) so that reading recovers the exact length.  Matrix files are
# row-major without a header.  Lines starting with '#' are ignored, which is
# where CLI outputs embed their run configuration.
# ---------------------------------------------------------------------------


# Rows are formatted and written this many at a time, so that a long
# sequence never holds more than one chunk of Python objects or text.
_CHUNK_ROWS = 1 << 14


def _texts(vals: np.ndarray, text=repr) -> np.ndarray:
    """text(v) of each entry v of the 1-D array vals, as an object array;
    text runs once per distinct bit pattern, so -0.0 and 0.0 keep theirs."""
    bits, inv = np.unique(vals.view(f"i{vals.itemsize}"), return_inverse=True)
    return np.array(list(map(text, bits.view(vals.dtype).tolist())), dtype=object)[inv]


def _row_chunks(seq: CoeffSeq, pin_last: bool):
    """The stored rows of seq, _CHUNK_ROWS at a time, as (rows, fields):
    each row's index (an int) and the _texts of its value or its re and im,
    so that (template * rows) % fields formats the chunk in one call.  A row
    is stored when its entry is nonzero; pin_last also stores the last index."""
    c = seq.coeffs
    ks = np.flatnonzero(c)
    if pin_last and (ks.size == 0 or ks[-1] != seq.degree):
        ks = np.append(ks, seq.degree)
    for start in range(0, ks.size, _CHUNK_ROWS):
        idx = ks[start : start + _CHUNK_ROWS]
        texts = _texts(c[idx].view(np.float64)).reshape(idx.size, -1)  # complex as (re, im)
        yield idx.size, tuple(np.column_stack((idx.astype(object), texts)).ravel().tolist())


def write_coeff_csv(path, seq: CoeffSeq, comment: str | None = None) -> None:
    row = "%d,%s,%s\n" if seq.is_complex else "%d,%s\n"
    with open(path, "w", encoding="utf-8") as fh:
        if comment is not None:
            fh.write("# " + comment + "\n")
        fh.write("k,re,im\n" if seq.is_complex else "k,re\n")
        for rows, fields in _row_chunks(seq, pin_last=True):  # the last index pins the length
            fh.write((row * rows) % fields)


def _csv_blocks(path, what: str, first, check=None):
    """np.loadtxt's array of the data rows in each _CHUNK_ROWS lines of the
    CSV file at path that hold any, blank lines and `#` comments left out,
    so that one block's text at a time is held and a reader can refuse a
    file before reading all of it.  first(line) is called on the file's
    first data line, stripped, before anything is parsed, and returns how
    many data lines it takes (1 for a header) and np.loadtxt's keyword
    arguments.  A row numpy refuses raises InvalidInput naming its file
    line, in place of numpy's row number (which counts from the block's
    first row and leaves out comments and blanks) and its advice on
    `usecols`; so does the first row of a block for which check(row), if
    given, returns a reason, before the block is parsed.  A file with no
    data line, or a byte that is not UTF-8, raises InvalidInput."""
    done = start = 0  # data rows parsed, lines of the file before `lines`
    args = None
    with open(path, "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
        try:
            while lines := list(map(str.strip, itertools.islice(fh, _CHUNK_ROWS))):
                text = [ln for ln in lines if ln and ln[0] != "#"]
                skip = 0
                if text and args is None:
                    skip, args = first(text[0])
                    text = text[skip:]
                if text:
                    bad, reason = 0, check and check(text[0])
                    try:
                        rows = None if reason else np.loadtxt(text, delimiter=",", comments=None, **args)
                    except ValueError as exc:
                        # a prefix holding the bad row is refused, a shorter one is not
                        bad = bisect.bisect_left(range(1, len(text)), True,
                                                 key=lambda n: not _parses(text[:n], args))
                        reason = re.sub(r" at row \d+(, column)?|; use `usecols`.*", lambda m: " in column" if m[1] else "", str(exc))
                    if reason:
                        line = [n for n, ln in enumerate(lines, start + 1) if ln and ln[0] != "#"][skip + bad]
                        after = f" after the first {done} data rows" if done else ""
                        raise InvalidInput(f"malformed {what} row{after}: line {line} of {path}: {reason}")
                    done += len(text)
                    yield rows
                start += len(lines)
                del lines, text  # before the next block is read
        except UnicodeDecodeError as exc:
            raise InvalidInput(f"{path} is not UTF-8 text") from exc
    if args is None:
        raise InvalidInput(f"empty {what} file")


def _parses(text: list, loadtxt_args: dict) -> bool:
    try:
        np.loadtxt(text, delimiter=",", comments=None, **loadtxt_args)
    except ValueError:
        return False
    return True


def read_coeff_csv(path) -> CoeffSeq:
    def header(line):
        fields = {"k,re": ("re",), "k,re,im": ("re", "im")}.get("".join(line.split()))
        if fields is None:
            raise InvalidInput(f"unrecognized header {line!r}")
        return 1, {"dtype": [("k", np.int64)] + [(f, np.float64) for f in fields], "ndmin": 1}

    parsed, last = [], -1
    # Indices increase strictly from 0, so a file with more rows than the
    # size cap admits fails the last-index check of the block that passes it.
    for rows in _csv_blocks(path, "coefficient", header):
        ks = rows["k"]
        if ks[0] < 0:
            raise InvalidInput("indices must be nonnegative")
        if ks[0] <= last or np.any(ks[1:] <= ks[:-1]):
            raise InvalidInput("indices must be strictly increasing")
        if not all(_all_finite(rows[f]) for f in rows.dtype.names[1:]):
            raise InvalidInput("NaN/Inf values are rejected")
        last = int(ks[-1])
        check_size(last.bit_length(), f"last index {last}")
        parsed.append(rows)
    if not parsed:
        raise InvalidInput("coefficient file has no data rows")
    is_complex = "im" in rows.dtype.names
    out = np.zeros(last + 1, dtype=np.complex128 if is_complex else np.float64)
    for rows in parsed:
        # Parts are set one at a time: re + 1j*im would turn a -0.0 real part into 0.0.
        out.real[rows["k"]] = rows["re"]
        if is_complex:
            out.imag[rows["k"]] = rows["im"]
    return CoeffSeq._adopt(out)


def write_matrix_csv(path, mat, comment: str | None = None, header: str | None = None) -> None:
    """Write a DenseMatrix, or any rows of values, as comma-separated lines
    after an optional '# ' comment and an optional header; values are
    written by str (a float's shortest round-trip decimal), a matrix row
    from its .tolist()."""
    with open(path, "w", encoding="utf-8") as fh:
        if comment is not None:
            fh.write("# " + comment + "\n")
        if header is not None:
            fh.write(header + "\n")
        for row in (row.tolist() for row in mat.entries) if isinstance(mat, DenseMatrix) else mat:
            fh.write(",".join(map(str, row)) + "\n")


def read_matrix_csv(path) -> DenseMatrix:
    """Numbers parse as read_coeff_csv's values do; DenseMatrix rejects NaN/Inf."""
    width = 0

    def first_row(line):
        nonlocal width
        width = line.count(",") + 1
        check_size((width - 1).bit_length(), "matrix entry count")
        return 0, {"ndmin": 2}

    def same_width(line):
        if (n := line.count(",") + 1) != width:
            return f"rows of {width} and of {n} columns"

    parsed, entries = [], 0
    for rows in _csv_blocks(path, "matrix", first_row, same_width):
        entries += rows.size
        check_size((entries - 1).bit_length(), "matrix entry count")
        parsed.append(rows)
    return DenseMatrix._adopt(parsed[0] if len(parsed) == 1 else np.concatenate(parsed))
