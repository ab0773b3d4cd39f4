import functools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scottish_lab import (
    CoeffSeq,
    DenseMatrix,
    block_of,
    derive_seed,
    dyadic_kernel,
    hankel_matrix,
    least_squares_line,
    limit_estimate,
    make_rng,
    read_coeff_csv,
    read_matrix_csv,
    write_coeff_csv,
    write_matrix_csv,
)
from scottish_lab import core, tensornorm
from scottish_lab.dyadic import dyadic_profile
from scottish_lab.extremal import flat_polynomial, problem88_params, problem88_witness, rudin_shapiro
from scottish_lab.mazur import cesaro_product, problem8_witness, range_diagnostic
from scottish_lab.tensornorm import injective_norm_exact, injective_norm_search
from scottish_lab.errors import (
    ComplexNotSupported,
    DomainError,
    EmptyDimension,
    InvalidInput,
    InvalidParameter,
    TooLargeForExact,
    TooShort,
)


# A small pool of floats for the writer tests: signed zeros, and neighbours
# one ulp apart whose shortest texts differ only in their last digits.
_POOL = [0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), -1.0,
         0.1, np.nextafter(0.1, 1.0), 5e-324, -5e-324, 1e300, 2.0 / 3.0]


def _reference_csv(seq, comment):
    """The row-by-row writer that the chunked one replaced."""
    lines = ["# " + comment, "k,re,im" if seq.is_complex else "k,re"]
    ks = sorted(set(np.nonzero(seq.coeffs)[0].tolist()) | {seq.degree})
    for k in ks:
        v = seq.coeffs[k]
        if seq.is_complex:
            lines.append(f"{k},{repr(float(v.real))},{repr(float(v.imag))}")
        else:
            lines.append(f"{k},{repr(float(v))}")
    return "\n".join(lines) + "\n"


_FILLER = st.sampled_from(["", "   ", "\t", "#", "# c, 1", "  # indented"])
_PAD = st.sampled_from(["", " ", "\t", " \t "])


@st.composite
def _csv_files(draw):
    """(what, lines): the lines, without their ends, of a coefficient or
    matrix file whose data rows are mixed with blank, whitespace-only and
    comment lines, and of which at most one row is spoiled by a value that
    does not parse, a change of width or (coefficients) an index that does
    not increase."""
    what = draw(st.sampled_from(["coefficient", "matrix"]))
    width = draw(st.sampled_from([2, 3]) if what == "coefficient" else st.integers(1, 4))
    n = draw(st.integers(1, 10))
    rows = [[repr(v) for v in draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                            min_size=width, max_size=width))] for _ in range(n)]
    if what == "coefficient":
        ks = np.cumsum(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))) - 1
        for row, k in zip(rows, ks.tolist()):
            row[0] = str(k)
    spoil = draw(st.sampled_from([None, "value", "width"] + ["order"] * (what == "coefficient")))
    # a matrix's first row sets its width, and the first index has none before it
    first = int(spoil == "order" or spoil == "width" and what == "matrix")
    at = draw(st.integers(first, n - 1)) if spoil and first < n else None
    if at is not None:
        if spoil == "value":
            rows[at][draw(st.integers(0, width - 1))] = "x"
        elif spoil == "order":
            rows[at][0] = rows[at - 1][0]
        elif width > 1 and draw(st.booleans()):
            rows[at].pop()
        else:
            rows[at].append("1")
    if what == "coefficient":
        rows.insert(0, ["k", "re", "im"][:width])
    lines = []
    for row in rows:
        lines += draw(st.lists(_FILLER, max_size=2))
        lines.append(",".join(draw(_PAD) + field + draw(_PAD) for field in row))
    return what, lines + draw(st.lists(_FILLER, max_size=2))


def _read_line_by_line(what, lines, chunk, path):
    """What a reader must return for the file of these lines, read one line
    at a time: the array, or the start of the message it must raise."""
    width, rows, last, starts = None, [], -1, []  # starts: file lines of the data rows
    for n, line in enumerate(lines, 1):
        if not line.strip() or line.strip().startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if width is None and what == "coefficient":
            width = len(fields)  # the header
            continue
        width = width or len(fields)
        done = sum(m <= (n - 1) // chunk * chunk for m in starts)  # rows of the blocks before this line's
        after = f" after the first {done} data rows" if done else ""
        starts.append(n)
        try:
            if len(fields) != width:
                raise ValueError
            rows.append([int(fields[0])] + [float(f) for f in fields[1:]] if what == "coefficient"
                        else [float(f) for f in fields])
        except ValueError:
            return f"malformed {what} row{after}: line {n} of {path}: "
        if what == "coefficient":
            if rows[-1][0] <= last:
                return "indices must be strictly increasing"
            last = rows[-1][0]
    if what == "matrix":
        return np.array(rows, dtype=np.float64)
    out = np.zeros(last + 1, dtype=np.complex128 if width == 3 else np.float64)
    for k, *parts in rows:
        out.real[k] = parts[0]
        if width == 3:
            out.imag[k] = parts[1]
    return out


class TestCoeffSeq:
    def test_access_past_degree_is_zero(self):
        s = CoeffSeq([1.0, 2.0])
        assert s[0] == 1.0 and s[1] == 2.0
        assert s[2] == 0.0 and s[100] == 0.0

    def test_negative_index_rejected(self):
        with pytest.raises(IndexError):
            CoeffSeq([1.0])[-1]

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(EmptyDimension):
            CoeffSeq([])
        with pytest.raises(InvalidInput):
            CoeffSeq([1.0, np.nan])
        with pytest.raises(InvalidInput):
            CoeffSeq([np.inf])

    def test_exact_equality(self):
        assert CoeffSeq([1.0, 0.5]) == CoeffSeq([1.0, 0.5])
        assert CoeffSeq([1.0, 0.5]) != CoeffSeq([1.0, 0.5 + 1e-16])
        assert CoeffSeq([1.0]) != CoeffSeq([1.0, 0.0])  # length matters

    def test_immutable(self):
        s = CoeffSeq([1.0, 2.0])
        with pytest.raises(ValueError):
            s.coeffs[0] = 5.0

    def test_complex_supported(self):
        s = CoeffSeq([1 + 2j, 0])
        assert s.is_complex
        assert s[0] == 1 + 2j


def _bits(a):
    return a.view(np.int64).tolist()


_SPOIL = st.tuples(
    st.one_of(st.just(0), st.just(-1), st.integers(0, 39)),  # position; first and last drawn often
    st.sampled_from([np.nan, -np.nan, np.inf, -np.inf]),
    st.sampled_from(["whole", "re", "im"]),
)


class TestFiniteness:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0),
                        min_size=1, max_size=40),
        is_complex=st.booleans(),
        spoils=st.lists(_SPOIL, max_size=3),
    )
    def test_helper_matches_isfinite(self, values, is_complex, spoils):
        re = np.array(values)
        if is_complex:
            arr = np.empty(re.size, dtype=np.complex128)
            arr.real, arr.imag = re, re[::-1]  # part by part, so -0.0 stays
        else:
            arr = re
        for pos, bad, part in spoils:
            i = pos % arr.size
            if part == "whole" or not is_complex:
                arr[i] = bad
            else:
                getattr(arr, "real" if part == "re" else "imag")[i] = bad  # the imaginary part alone
        finite = bool(np.isfinite(arr).all())
        assert core._all_finite(arr) is finite
        if finite:
            # accepted, with every bit kept (-0.0 included), by copy and by adoption
            assert _bits(CoeffSeq(arr).coeffs) == _bits(arr)
            assert _bits(CoeffSeq._adopt(arr.copy()).coeffs) == _bits(arr)
        else:
            with pytest.raises(InvalidInput):
                CoeffSeq(arr)
            with pytest.raises(InvalidInput):
                CoeffSeq._adopt(arr.copy())
        if not is_complex:
            for shape in ((1, arr.size), (arr.size, 1)):
                m = arr.reshape(shape)
                if finite:
                    assert _bits(DenseMatrix(m).entries) == _bits(m)
                    assert _bits(DenseMatrix._adopt(m.copy()).entries) == _bits(m)
                else:
                    with pytest.raises(InvalidInput):
                        DenseMatrix(m)
                    with pytest.raises(InvalidInput):
                        DenseMatrix._adopt(m.copy())

    def test_signed_zeros_survive(self):
        z = np.array([-0.0, 0.0, -0.0])
        assert _bits(CoeffSeq(z).coeffs) == _bits(z)
        c = np.empty(2, dtype=np.complex128)
        c.real, c.imag = [-0.0, 0.0], [0.0, -0.0]
        assert _bits(CoeffSeq(c).coeffs) == _bits(c)


class TestOwnership:
    def test_constructors_copy_what_callers_pass(self):
        arr = np.array([1.0, -0.0, 3.0])
        seq = CoeffSeq(arr)
        assert arr.flags.writeable and not np.shares_memory(arr, seq.coeffs)
        arr[0] = 7.0
        assert seq.coeffs[0] == 1.0
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        mat = DenseMatrix(m)
        assert m.flags.writeable and not np.shares_memory(m, mat.entries)
        m[1, 1] = 9.0
        assert mat.entries[1, 1] == 4.0

    def test_library_built_values_are_read_only(self, tmp_path):
        cpath, mpath = tmp_path / "c.csv", tmp_path / "m.csv"
        write_coeff_csv(cpath, CoeffSeq([0.0, 1.5, 0.0, -2.0]))
        write_matrix_csv(mpath, DenseMatrix([[1.0, 2.0], [3.0, 4.0]]))
        seqs = [dyadic_kernel(0), dyadic_kernel(5), problem88_witness(0.5, 6)[0],
                cesaro_product(CoeffSeq([1.0, 2.0]), CoeffSeq([3.0, -1.0, 0.5])), read_coeff_csv(cpath)]
        mats = [hankel_matrix(CoeffSeq([1.0, 2.0, 3.0]), 2), read_matrix_csv(mpath)]
        for arr in [s.coeffs for s in seqs] + [m.entries for m in mats]:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 5.0

    def test_adopt_takes_the_array_itself(self):
        arr = np.array([1.0, 2.0])
        assert CoeffSeq._adopt(arr).coeffs is arr and not arr.flags.writeable
        m = np.eye(2)
        assert DenseMatrix._adopt(m).entries is m and not m.flags.writeable

    def test_adopt_raises_what_the_constructor_raises(self):
        with pytest.raises(InvalidInput):
            CoeffSeq._adopt(np.zeros((2, 2)))
        with pytest.raises(EmptyDimension):
            CoeffSeq._adopt(np.zeros(0))
        with pytest.raises(InvalidInput):
            DenseMatrix._adopt(np.zeros(3))
        with pytest.raises(EmptyDimension):
            DenseMatrix._adopt(np.zeros((0, 2)))

    def test_adopt_refuses_arrays_it_may_not_take(self):
        frozen = CoeffSeq([1.0, 2.0]).coeffs  # another value's array
        for arr in (np.arange(3), np.zeros(4)[::2], frozen, np.zeros(2, dtype=np.complex64)):
            with pytest.raises(TypeError):
                CoeffSeq._adopt(arr)
        for arr in (np.zeros((2, 2), dtype=np.complex128), np.zeros((3, 3))[:, :2], np.zeros((2, 2), order="F")):
            with pytest.raises(TypeError):
                DenseMatrix._adopt(arr)


class TestHankel:
    def test_unit_symbol(self):
        Q = hankel_matrix(CoeffSeq([1.0]), 2)
        assert np.array_equal(Q.entries, [[1, 0], [0, 0]])

    def test_constant_antidiagonals(self):
        Q = hankel_matrix(CoeffSeq([1.0, 1.0, 1.0]), 2)
        assert np.array_equal(Q.entries, [[1, 1], [1, 1]])

    def test_ramp_symbol(self):
        Q = hankel_matrix(CoeffSeq([0.0, 1.0, 2.0, 3.0]), 3)
        assert np.array_equal(Q.entries, [[0, 1, 2], [1, 2, 3], [2, 3, 0]])

    def test_errors(self):
        with pytest.raises(EmptyDimension):
            hankel_matrix(CoeffSeq([1.0]), 0)
        with pytest.raises(ComplexNotSupported):
            hankel_matrix(CoeffSeq([1.0 + 1j]), 2)

    def test_size_cap(self, monkeypatch):
        # 2^26 entries, past the 2^25-point cap: refused before anything is allocated
        with pytest.raises(InvalidParameter, match="size cap"):
            hankel_matrix(CoeffSeq([1.0]), 1 << 13)
        monkeypatch.setattr(core, "SIZE_CAP_LOG2", 3)
        assert hankel_matrix(CoeffSeq([1.0]), 2).entries.shape == (2, 2)
        with pytest.raises(InvalidParameter, match="size cap"):
            hankel_matrix(CoeffSeq([1.0]), 3)  # 9 entries

    def test_matrix_rejects_complex(self):
        with pytest.raises(ComplexNotSupported):
            DenseMatrix(np.array([[1.0 + 1j]]))

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=12), st.integers(1, 8))
    def test_symmetric(self, sym, n):
        Q = hankel_matrix(CoeffSeq(sym), n)
        assert np.array_equal(Q.entries, Q.entries.T)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=40), st.integers(1, 30))
    def test_entries_are_the_symbol_at_j_plus_k(self, sym, n):
        g = sym + [0.0] * (2 * n)
        want = [[g[j + k] for k in range(n)] for j in range(n)]
        assert hankel_matrix(CoeffSeq(sym), n).entries.tolist() == want

    def test_holds_only_the_matrix(self):
        # an index array of the matrix's shape once doubled the peak
        n = 1000
        sym = CoeffSeq(make_rng(19).standard_normal(2 * n - 1))
        tracemalloc.start()
        try:
            Q = hankel_matrix(sym, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * Q.entries.nbytes, peak


# Every public entry that takes a size, as (name, entry(v) -> a call of it at
# size v, largest v admitted at size cap c and enumeration cap e).  The
# inputs are built before the call, so that a refusal's trace holds only
# what the entry itself allocates.
_TALL_ROWS = 1 << 13  # at 27 columns 1.7 MiB, so that a copy would show in the trace
SIZE_RULE = [
    ("rudin_shapiro", lambda v: lambda: rudin_shapiro(v), lambda c, e: c),
    ("problem8_witness", lambda v: lambda: problem8_witness(v), lambda c, e: c - 3),  # block v's grid
    ("flat_polynomial", lambda v: functools.partial(flat_polynomial, CoeffSeq(np.ones(v))),
     lambda c, e: 1 << (c - 3)),
    ("dyadic_kernel", lambda v: lambda: dyadic_kernel(v), lambda c, e: c - 1),
    ("dyadic_profile", lambda v: lambda: dyadic_profile(CoeffSeq([1.0, 2.0]), 0.0, 1.0, v),
     lambda c, e: c - 4),  # the top block's grid
    ("problem88_params", lambda v: lambda: problem88_params(0.5, v), lambda c, e: c - 1),
    ("range_diagnostic", lambda v: lambda: range_diagnostic(CoeffSeq(np.ones(8)), v), lambda c, e: c - 4),
    ("hankel_matrix", lambda v: lambda: hankel_matrix(CoeffSeq([1.0]), v), lambda c, e: math.isqrt(1 << c)),
    ("injective_norm_exact", lambda v: functools.partial(injective_norm_exact, DenseMatrix(np.ones((_TALL_ROWS, v)))),
     lambda c, e: e),
    ("injective_norm_search", lambda v: functools.partial(injective_norm_search, DenseMatrix(np.ones((3, 3))), v, 0),
     lambda c, e: 1 << c),  # evaluations
]


def _cap_text(name, c, e):
    return f"cap {e}" if name == "injective_norm_exact" else f"size cap of 2^{c} "


@pytest.mark.parametrize("name, entry, largest", SIZE_RULE, ids=[row[0] for row in SIZE_RULE])
def test_size_rule_refuses_one_past_the_cap_before_any_work(name, entry, largest, monkeypatch):
    # at the library's caps: the value one past the largest is refused, naming
    # its cap, before anything of its size is allocated
    c, e = core.SIZE_CAP_LOG2, tensornorm.EXACT_ENUM_CAP
    call = entry(largest(c, e) + 1)
    tracemalloc.start()
    try:
        with pytest.raises((InvalidParameter, TooLargeForExact), match=re.escape(_cap_text(name, c, e))):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    # at caps small enough to run: the largest value is accepted, one past refused
    c, e = 12, 6
    monkeypatch.setattr(core, "SIZE_CAP_LOG2", c)
    monkeypatch.setattr(tensornorm, "EXACT_ENUM_CAP", e)
    entry(largest(c, e))()
    with pytest.raises((InvalidParameter, TooLargeForExact), match=re.escape(_cap_text(name, c, e))):
        entry(largest(c, e) + 1)()


class TestBlocks:
    def test_partition_up_to_2_20(self):
        # every k in [1, 2^20] lands in exactly one hard block
        ks = np.arange(1, (1 << 20) + 1)
        ns = np.floor(np.log2(ks)).astype(int)
        assert np.all(ks >= (1 << ns[0]))
        lows = 1 << ns.astype(np.int64)
        assert np.all((ks >= lows) & (ks < 2 * lows))
        for k in (1, 2, 3, 4, 1023, 1024, (1 << 20)):
            n = block_of(k)
            assert (1 << n) <= k < (1 << (n + 1))
        with pytest.raises(InvalidInput):
            block_of(0)

    def test_support_disjointness(self):
        for n in range(0, 13):
            for m in range(n + 2, 14):
                a = set(np.nonzero(dyadic_kernel(n).coeffs)[0].tolist())
                b = set(np.nonzero(dyadic_kernel(m).coeffs)[0].tolist())
                assert not (a & b)

    def test_adjacent_supports_overlap(self):
        for n in range(1, 13):
            a = set(np.nonzero(dyadic_kernel(n).coeffs)[0].tolist())
            b = set(np.nonzero(dyadic_kernel(n + 1).coeffs)[0].tolist())
            assert a & b


class TestSeeding:
    def test_rng_bit_identical(self):
        a = make_rng(987654321).random(1000)
        b = make_rng(987654321).random(1000)
        assert np.array_equal(a, b)

    def test_derived_streams_differ(self):
        s = {derive_seed(7, i) for i in range(100)}
        assert len(s) == 100
        assert derive_seed(7, 3) == derive_seed(7, 3)


class TestLimitEstimate:
    def test_constant(self):
        assert limit_estimate(CoeffSeq([5.0] * 8)) == 5.0

    def test_harmonic_tail(self):
        z = CoeffSeq(1.0 / (np.arange(4096) + 1))
        got = limit_estimate(z)
        oracle = math.fsum(1.0 / (n + 1) for n in range(3072, 4096)) / 1024
        assert 0 < got < 0.0013
        assert abs(got - oracle) < 1e-15

    def test_geometric_tail(self):
        z = CoeffSeq(3.0 + 2.0 ** (-np.arange(64, dtype=float)))
        assert abs(limit_estimate(z) - 3.0) < 1e-9

    def test_too_short(self):
        with pytest.raises(TooShort):
            limit_estimate(CoeffSeq([1.0, 2.0, 3.0]))


class TestLineFit:
    def test_exact_line(self):
        x = np.arange(10.0)
        slope, intercept, resid = least_squares_line(x, 3.0 * x - 2.0)
        assert abs(slope - 3.0) < 1e-12
        assert abs(intercept + 2.0) < 1e-12
        assert resid < 1e-12

    def test_degenerate_abscissae(self):
        with pytest.raises(TooShort):
            least_squares_line([1.0], [2.0])
        with pytest.raises(InvalidInput):
            least_squares_line([1.0, 1.0], [2.0, 3.0])


class TestCsv:
    def test_coeff_round_trip_real(self, tmp_path):
        rng = make_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 50))
            vals = rng.standard_normal(n)
            vals[rng.random(n) < 0.5] = 0.0
            seq = CoeffSeq(vals)
            path = tmp_path / "s.csv"
            write_coeff_csv(path, seq)
            assert read_coeff_csv(path) == seq

    def test_coeff_round_trip_complex(self, tmp_path):
        rng = make_rng(12)
        vals = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        seq = CoeffSeq(vals)
        path = tmp_path / "c.csv"
        write_coeff_csv(path, seq)
        assert read_coeff_csv(path) == seq

    def test_zero_sequence_keeps_length(self, tmp_path):
        seq = CoeffSeq(np.zeros(7))
        path = tmp_path / "z.csv"
        write_coeff_csv(path, seq)
        assert read_coeff_csv(path) == seq

    def test_rejects_nan_and_bad_headers(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("k,re\n0,nan\n")
        with pytest.raises(InvalidInput):
            read_coeff_csv(p)
        p.write_text("index,value\n0,1\n")
        with pytest.raises(InvalidInput):
            read_coeff_csv(p)
        p.write_text("k,re\n3,1.0\n1,2.0\n")
        with pytest.raises(InvalidInput):
            read_coeff_csv(p)

    def test_missing_indices_are_zero(self, tmp_path):
        p = tmp_path / "sparse.csv"
        p.write_text("k,re\n1,2.0\n4,-1.0\n")
        seq = read_coeff_csv(p)
        assert seq == CoeffSeq([0.0, 2.0, 0.0, 0.0, -1.0])

    @pytest.mark.parametrize("values", [
        [0.0, 1.5, -0.0, 2.0, 0.0, 0.0, 3e-300, 1.0, -2.0, 1 / 3, 5e-324],
        [1 + 2j, -0.0 + 1j, 0j, 3 - 0j, 0j, 0.5j, -1e300 + 0j, 1 + 1j],
        [0.0] * 7,
        [1.0, 0.0, -0.0],
        [0j, 2 - 1j, complex(-0.0, -0.0)],
        [-0.0],
    ])
    def test_writer_bytes_match_row_by_row_reference(self, values, tmp_path, monkeypatch):
        # a chunk of 3 rows puts chunk boundaries inside every case
        monkeypatch.setattr(core, "_CHUNK_ROWS", 3)
        for n in range(1, len(values) + 1):
            seq = CoeffSeq(np.array(values[:n]))
            path = tmp_path / "s.csv"
            write_coeff_csv(path, seq, comment='{"argv": []}')
            assert path.read_text(encoding="utf-8") == _reference_csv(seq, '{"argv": []}'), n

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        re_parts=st.lists(st.sampled_from(_POOL), min_size=1, max_size=30),
        im_parts=st.none() | st.lists(st.sampled_from(_POOL[:4]), min_size=30, max_size=30),
        chunk=st.integers(1, 5),
    )
    def test_writer_bytes_with_repeated_values(self, re_parts, im_parts, chunk, tmp_path_factory):
        # values drawn from a small pool repeat within and across chunks; the
        # pool holds both zeros and neighbours one ulp apart, which must keep
        # their own texts
        arr = np.array(re_parts)
        if im_parts is not None:
            arr = np.empty(len(re_parts), dtype=np.complex128)
            arr.real = re_parts
            arr.imag = im_parts[: len(re_parts)]
        seq = CoeffSeq(arr)
        path = tmp_path_factory.mktemp("rep") / "s.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_CHUNK_ROWS", chunk)
            write_coeff_csv(path, seq, comment="c")
        assert path.read_text(encoding="utf-8") == _reference_csv(seq, "c")

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0]),
                        min_size=1, max_size=40),
        is_complex=st.booleans(),
        chunk=st.integers(1, 5),
    )
    def test_round_trip_is_bit_identical(self, values, is_complex, chunk, tmp_path_factory):
        # every stored entry (nonzero, or the last) reads back with its bits,
        # signed zeros included; entries not stored read back as +0.0
        arr = np.array(values)
        if is_complex:
            arr = np.empty(len(values), dtype=np.complex128)
            arr.real = values
            arr.imag = values[::-1]
        seq = CoeffSeq(arr)
        path = tmp_path_factory.mktemp("rt") / "s.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_CHUNK_ROWS", chunk)
            write_coeff_csv(path, seq, comment="c")
        got = read_coeff_csv(path).coeffs
        want = seq.coeffs.copy()
        stored = want != 0
        stored[-1] = True
        want[~stored] = 0
        assert got.dtype == want.dtype
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_reader_accepts_loose_layout(self, tmp_path):
        p = tmp_path / "loose.csv"
        p.write_bytes(b"# run config\r\n\r\n k , re \r\n 0 , 1.5 \r\n\r\n"
                      b"# between rows\r\n  # indented comment\r\n\t2,\t-0.25\r\n   \r\n4,1e-3")
        assert read_coeff_csv(p) == CoeffSeq([1.5, 0.0, -0.25, 0.0, 1e-3])
        p.write_text("k, re, im\n0, -0.0, 1.0\n\n# c\n2 ,1.0, -0.0\n")
        got = read_coeff_csv(p).coeffs
        assert got.tolist() == [1j, 0j, 1 + 0j]
        assert np.signbit(got.real).tolist() == [True, False, False]
        assert np.signbit(got.imag).tolist() == [False, False, True]

    def test_matrix_reader_size_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "SIZE_CAP_LOG2", 3)
        p = tmp_path / "m.csv"
        p.write_text("1,2,3,4\n5,6,7,8\n")
        assert read_matrix_csv(p).entries.shape == (2, 4)  # 8 entries: at the cap
        p.write_text("# 3 by 3\n1,2,3\n4,5,6\n7,8,9\n")
        with pytest.raises(InvalidParameter, match="size cap"):
            read_matrix_csv(p)

    def test_matrix_round_trip(self, tmp_path):
        rng = make_rng(13)
        mat = DenseMatrix(rng.standard_normal((5, 3)))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, mat)
        assert read_matrix_csv(path) == mat

    def test_matrix_reader_accepts_loose_layout(self, tmp_path):
        p = tmp_path / "loose.csv"
        p.write_bytes(b"# run config\r\n\r\n 1 , 2.5 \r\n   \r\n# between rows\r\n"
                      b"  # indented comment\r\n\t-0.0,\t1e-3\r\n\n")
        got = read_matrix_csv(p).entries
        assert got.tolist() == [[1.0, 2.5], [0.0, 1e-3]]
        assert np.signbit(got).tolist() == [[False, False], [True, False]]

    def test_byte_order_mark_and_crlf_line_ends(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbfk,re\r\n0,1.5\r\n2,-0.25\r\n")
        assert read_coeff_csv(p) == CoeffSeq([1.5, 0.0, -0.25])
        p.write_bytes(b"\xef\xbb\xbf1,2\r\n3,4\r\n")
        assert read_matrix_csv(p).entries.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_matrix_rejects_ragged(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(InvalidInput):
            read_matrix_csv(p)

    def test_readers_reserve_nothing_for_the_size_cap(self, tmp_path):
        # loadtxt(max_rows=2^25 + 1) reserved 512 MiB (coefficients) and
        # 256 MiB (matrices) to read two rows (measured now: under 64 KiB)
        coeffs, mat = tmp_path / "c.csv", tmp_path / "m.csv"
        coeffs.write_text("k,re\n0,1.0\n1,2.0\n")
        mat.write_text("1,2\n3,4\n")
        for read, path in ((read_coeff_csv, coeffs), (read_matrix_csv, mat)):
            tracemalloc.start()
            try:
                read(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (read.__name__, peak)

    def test_blocks_join_into_one_sequence(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "_CHUNK_ROWS", 2)
        p = tmp_path / "s.csv"
        p.write_text("k,re,im\n0,1,2\n# c\n3,4,5\n\n4,-0.0,6\n9,7,-0.0\n11,8,9\n")
        got = read_coeff_csv(p).coeffs
        want = np.zeros(12, dtype=complex)
        want[[0, 3, 4, 9, 11]] = [1 + 2j, 4 + 5j, complex(-0.0, 6), complex(7, -0.0), 8 + 9j]
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        p.write_text("1,2,3\n4,5,6\n7,8,9\n")
        assert read_matrix_csv(p).entries.tolist() == [[1, 2, 3], [4, 5, 6], [7, 8, 9]]

    # Two lines of the file per block: the header and the first row make
    # the first block, and each later pair of rows one more.
    @pytest.mark.parametrize("text, match", [
        ("k,re\n0,1\n0,2\n", "strictly increasing"),  # across the block edge
        ("k,re\n5,1\n4,2\n", "strictly increasing"),
        ("k,re\n0,1\n5,1\n6,1\n7,x\n", "after the first 3 data rows"),
        ("k,re\n0,1\n5,1\n6,inf\n", "NaN/Inf"),
        # refused at the block past the cap, before the malformed rows after it
        (f"k,re\n0,1\n1,1\n{1 << 25},1\nx\n", "last index 33554432 exceeds the size cap"),
    ])
    def test_each_block_is_checked_as_it_is_read(self, text, match, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "_CHUNK_ROWS", 2)
        p = tmp_path / "s.csv"
        p.write_text(text)
        with pytest.raises(DomainError, match=match):
            read_coeff_csv(p)

    # Three lines of the file per block; numpy numbers the rows of a block
    # from 0 (a value that does not parse) or from 1 (a change of width),
    # and counts neither headers, comments nor blank lines.
    @pytest.mark.parametrize("read, text, line", [
        (read_coeff_csv, "k,re\n0,1\n1,x\n", 3),
        (read_coeff_csv, "# c\nk,re\n0,1\n\n1,2\n2,x\n", 6),
        (read_coeff_csv, "k,re\n0,1\n# c\n\n1,2\n2,3\n3,4,5\n", 7),
        (read_coeff_csv, "k,re\n0,1\n1\n", 3),
        (read_matrix_csv, "1,2\n3\n", 2),
        (read_matrix_csv, "1,2\n3,4,5\n", 2),
        (read_matrix_csv, "1,2\n# c\n3,4\n\n5,6\n7,8,9\n", 6),
        (read_matrix_csv, "1,2\n3,4\n5,6\n\n# c\n7,x\n", 6),
        # a block opening with another width: numpy alone would take that
        # row's width for the block's and name the next row
        (read_matrix_csv, "1,2\n3,4\n5,6\n7,8,9\n1,2\n", 4),
    ])
    def test_parse_errors_name_the_file_line(self, read, text, line, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "_CHUNK_ROWS", 3)
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(InvalidInput, match=f"malformed .* row.*: line {line} of ") as err:
            read(p)
        # nor numpy's advice on its own `usecols`, which no caller can pass
        assert " at row " not in str(err.value) and "usecols" not in str(err.value)

    def test_block_of_another_width_names_its_first_line(self, tmp_path, monkeypatch):
        # refused at the block's first row, before the later blocks are read:
        # the unparsable last line is never reached
        monkeypatch.setattr(core, "_CHUNK_ROWS", 2)
        p = tmp_path / "r.csv"
        p.write_text("1,2\n3,4\n5,6,7\n8,9,10\nx\n")
        with pytest.raises(InvalidInput) as err:
            read_matrix_csv(p)
        assert str(err.value) == (f"malformed matrix row after the first 2 data rows: line 3 of {p}: "
                                  "rows of 2 and of 3 columns")

    @pytest.mark.parametrize("text", ["1,2\n3,4\n5,6,7\n", "1,2,3\n4,5,6\n7,8\n"])
    def test_matrix_blocks_of_another_width_are_refused(self, text, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "_CHUNK_ROWS", 2)
        p = tmp_path / "r.csv"
        p.write_text(text)
        with pytest.raises(InvalidInput, match="columns"):
            read_matrix_csv(p)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(file=_csv_files(), ends=st.lists(st.sampled_from(["\n", "\r\n"]), min_size=40, max_size=40),
           chunk=st.integers(1, 5))
    def test_readers_match_a_line_by_line_oracle(self, file, ends, chunk, tmp_path_factory):
        what, lines = file
        path = tmp_path_factory.mktemp("oracle") / "f.csv"
        path.write_bytes("".join(line + end for line, end in zip(lines, ends)).encode())
        want = _read_line_by_line(what, lines, chunk, path)
        read = read_coeff_csv if what == "coefficient" else lambda p: read_matrix_csv(p).entries
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_CHUNK_ROWS", chunk)
            if isinstance(want, str):
                with pytest.raises(InvalidInput) as err:
                    read(path)
                assert str(err.value).startswith(want) and "usecols" not in str(err.value)
            else:
                got = read(path)
                got = got.coeffs if what == "coefficient" else got
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize("header, row, want", [
        ("k,\tre", "0,1", [1.0]),
        ("k ,\tre,\tim", "0,1,2", [1 + 2j]),
        ("\tk\t,\tr e ", "1,-0.5", [0.0, -0.5]),
    ])
    def test_header_fields_may_carry_tabs(self, header, row, want, tmp_path):
        p = tmp_path / "tabs.csv"
        p.write_text(f"{header}\n{row}\n")
        assert read_coeff_csv(p).coeffs.tolist() == want

    def test_matrix_write_holds_one_row_of_text(self, tmp_path):
        # each row is written as soon as it is formatted; every line and one
        # joined copy of them were once held, 59.0 MiB traced at 1024 x 1024
        mat = DenseMatrix(make_rng(19).standard_normal((1024, 1024)))
        p = tmp_path / "m.csv"
        tracemalloc.start()
        try:
            write_matrix_csv(p, mat, comment="a 1024 by 1024 matrix")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert p.read_bytes().count(b"\n") == 1 + 1024

    def test_complex_read_holds_one_block_of_text(self, tmp_path):
        # 2^17 rows parsed 2^14 at a time: 3 MiB of parsed rows, 2 MiB of
        # coefficients and one block's line texts (about 1.6 MiB); the first
        # block's texts, once held through the whole read, took it to 9.55 MiB
        n = 1 << 17
        rng = make_rng(17)
        seq = CoeffSeq(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        p = tmp_path / "c.csv"
        write_coeff_csv(p, seq)
        tracemalloc.start()
        try:
            got = read_coeff_csv(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.coeffs.view(np.uint64).tolist() == seq.coeffs.view(np.uint64).tolist()
        assert peak < 8 << 20, peak
