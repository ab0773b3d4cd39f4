import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import scottish_lab
from scottish_lab import CoeffSeq, read_coeff_csv, read_matrix_csv, write_coeff_csv, write_matrix_csv, DenseMatrix
from scottish_lab import core, dyadic_kernel, verify
from scottish_lab.cli import COMMANDS, _jsonable, _options, _write_json, build_parser, rerun_config_argv, run
from scottish_lab.dyadic import dyadic_profile
from scottish_lab.errors import InvalidInput
from scottish_lab.extremal import problem88_witness
from scottish_lab.mazur import cesaro_product


def run_json(argv, path):
    rc = run(argv + ["--out", str(path)])
    assert rc == 0
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture
def two_block(tmp_path):
    f = np.zeros(9)
    f[2] = 1.0
    f[8] = 1.0
    p = tmp_path / "f.csv"
    write_coeff_csv(p, CoeffSeq(f))
    return p


@pytest.fixture
def hadamard(tmp_path):
    p = tmp_path / "m.csv"
    write_matrix_csv(p, DenseMatrix([[1.0, 1.0], [1.0, -1.0]]))
    return p


class TestCommands:
    def test_wn_csv_has_five_rows(self, tmp_path):
        out = tmp_path / "w2.csv"
        assert run(["wn", "--n", "2", "--out", str(out)]) == 0
        rows = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")]
        assert rows[0] == "k,re"
        assert len(rows) - 1 == 5

    def test_besov_contract_example(self, two_block, tmp_path):
        doc = run_json(
            ["besov", "--input", str(two_block), "--s", "1", "--p", "inf", "--q", "1", "--nmax", "4"],
            tmp_path / "b.json",
        )
        assert abs(doc["norm"] - 10.0) < 1e-6
        assert doc["truncated"] is False
        assert set(doc) == set(COMMANDS["besov"].schema.split()) | {"run_config"}

    def test_profile_shares_the_besov_report(self, two_block, tmp_path):
        # one handler: profile reports no q and no norm, and its error bound
        # is the largest block bound
        argv = ["--input", str(two_block), "--s", "1", "--p", "inf", "--nmax", "4"]
        prof = run_json(["profile"] + argv, tmp_path / "p.json")
        bes = run_json(["besov"] + argv + ["--q", "1"], tmp_path / "b.json")
        assert prof["q"] is None and prof["norm"] is None
        bounds = dyadic_profile(read_coeff_csv(two_block), 1.0, math.inf, 4).error_bounds
        assert prof["error_bound"] == float(bounds.max())
        for key in ("s", "p", "nmax", "grid", "values", "truncated"):
            assert prof[key] == bes[key], key

    def test_besov_csv_table(self, two_block, tmp_path):
        out = tmp_path / "b.csv"
        rc = run(["besov", "--input", str(two_block), "--s", "1", "--p", "inf",
                  "--q", "1", "--nmax", "4", "--out", str(out), "--format", "csv"])
        assert rc == 0
        rows = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")]
        assert rows[0] == "n,value"
        assert len(rows) - 1 == 5

    def test_inj_norm_exact(self, hadamard, tmp_path):
        doc = run_json(["inj-norm", "--input", str(hadamard)], tmp_path / "i.json")
        assert doc["value"] == 2.0
        assert doc["method"] == "exact"

    def test_inj_norm_search(self, hadamard, tmp_path):
        doc = run_json(
            ["inj-norm", "--input", str(hadamard), "--method", "search", "--budget", "16"],
            tmp_path / "s.json",
        )
        assert doc["value"] == 2.0
        assert doc["evaluations"] <= 16 + 2

    def test_proj_norm_bracket(self, hadamard, tmp_path):
        doc = run_json(["proj-norm", "--input", str(hadamard)], tmp_path / "p.json")
        assert 0.0 <= doc["lower"] <= doc["upper"]
        assert doc["upper_cert"]

    def test_v2_profile(self, hadamard, tmp_path):
        doc = run_json(["v2", "--input", str(hadamard), "--nmax", "1"], tmp_path / "v.json")
        assert len(doc["brackets"]) == 2

    def test_mazur_roundtrip_through_files(self, tmp_path):
        z = CoeffSeq([1.0, -0.5, 0.25])
        zp = tmp_path / "z.csv"
        write_coeff_csv(zp, z)
        mp = tmp_path / "h.csv"
        from scottish_lab import hankel_matrix

        write_matrix_csv(mp, hankel_matrix(z, 3))
        out = tmp_path / "avg.csv"
        assert run(["mazur-a", "--input", str(mp), "--out", str(out)]) == 0
        back = read_coeff_csv(out)
        assert np.array_equal(back.coeffs[:3], z.coeffs)

    def test_mazur_b(self, tmp_path):
        xp = tmp_path / "x.csv"
        write_coeff_csv(xp, CoeffSeq(np.ones(8)))
        doc = run_json(["mazur-b", "--input", str(xp), "--input2", str(xp)], tmp_path / "b.json")
        seq = {k: v for k, v in doc["sequence"]}
        assert seq[0] == 1.0 and seq[7] == 1.0

    def test_witness88_feeds_besov(self, tmp_path):
        alpha_csv = tmp_path / "alpha.csv"
        rc = run(["witness88", "--t", "0.5", "--nmax", "8", "--out", str(alpha_csv), "--format", "csv"])
        assert rc == 0
        alpha = read_coeff_csv(alpha_csv)
        assert len(alpha) == 1 << 9
        out = tmp_path / "prof.json"
        doc = run_json(
            ["besov", "--input", str(alpha_csv), "--s", "0", "--p", "1", "--q", "inf", "--nmax", "8"],
            out,
        )
        assert doc["norm"] > 0

    def test_witness8_coeffs_export(self, tmp_path):
        zp = tmp_path / "z.csv"
        doc = run_json(
            ["witness8", "--nmax", "6", "--seed", "3", "--sign-mode", "rudin_shapiro",
             "--coeffs-out", str(zp)],
            tmp_path / "w.json",
        )
        z = read_coeff_csv(zp)
        assert len(z) == 1 << 7
        assert doc["flags"]["bounded_by_one"] is True

    def test_flatpoly_and_lkk(self, two_block, tmp_path):
        doc = run_json(["flatpoly", "--input", str(two_block), "--seed", "1"], tmp_path / "fp.json")
        assert doc["ratio"] >= 1.0
        doc = run_json(["lkk", "--input", str(two_block)], tmp_path / "lk.json")
        assert doc["fidelity_exact"] is True
        assert doc["besov_value"] <= doc["chain_bound"] + 1e-6

    def test_moment(self, two_block, tmp_path):
        doc = run_json(
            ["moment", "--input", str(two_block), "--t", "1", "--beta", "0.5", "--kmax", "8"],
            tmp_path / "m.json",
        )
        ck = dict((k, s) for k, s in doc["checkpoints"])
        assert abs(ck[8] - (3.0**0.5 + 9.0**0.5)) < 1e-12

    def test_inf_spelling_on_exponents(self, two_block, tmp_path):
        doc = run_json(
            ["besov", "--input", str(two_block), "--s", "1", "--p", "inf", "--q", "inf", "--nmax", "4"],
            tmp_path / "qi.json",
        )
        assert abs(doc["norm"] - 8.0) < 1e-9  # sup over blocks, not the sum

    @pytest.mark.parametrize("text,value", [
        (" inf ", math.inf), ("INFINITY", math.inf), ("+Inf", math.inf), ("-inf", -math.inf), ("0.5", 0.5),
    ])
    def test_exponent_spellings(self, text, value):
        args = build_parser().parse_args(["profile", "--input", "f", "--s", "1", "--p=" + text, "--nmax", "1"])
        assert args.p == value

    def test_malformed_exponent_is_a_usage_error(self, capsys):
        assert run(["profile", "--input", "f", "--s", "1", "--p", "infinite", "--nmax", "1"]) == 64
        assert "invalid float value: 'infinite'" in capsys.readouterr().err

    def test_csv_writer_bytes(self, two_block, tmp_path, monkeypatch):
        # report tables and matrix files share one writer; these bytes are pinned
        monkeypatch.chdir(tmp_path)
        argv = ["besov", "--input", "f.csv", "--s", "0.5", "--p", "inf", "--q", "1", "--nmax", "4",
                "--out", "b.csv", "--format", "csv"]
        assert run(argv) == 0
        assert (tmp_path / "b.csv").read_bytes() == (
            b'# {"subcommand": "besov", "argv": ["besov", "--input", "f.csv", "--s", "0.5", "--p", "inf", '
            b'"--q", "1", "--nmax", "4", "--out", "b.csv", "--format", "csv"], "options": {"format": "csv", '
            b'"input": "f.csv", "nmax": 4, "out": "b.csv", "oversample": 8, "p": "inf", "q": 1.0, "s": 0.5}}\n'
            b"n,value\n0,0.0\n1,1.4142135623730954\n2,0.0\n3,2.8284271247461907\n4,0.0\n"
        )
        mat = DenseMatrix([[1.0, -0.0, 1 / 3], [2.5e300, -1e-3, 7.0]])
        write_matrix_csv("m.csv", mat, comment="a 2 by 3 matrix")
        assert (tmp_path / "m.csv").read_bytes() == (
            b"# a 2 by 3 matrix\n1.0,-0.0,0.3333333333333333\n2.5e+300,-0.001,7.0\n"
        )

    def test_psi_json(self, tmp_path):
        doc = run_json(["psi", "--t", "2.0"], tmp_path / "psi.json")
        assert doc["value"] == 2.0


class TestStreamedSequence:
    @staticmethod
    def reference(doc):
        # the one-shot emit that streaming replaced: every nonzero entry as a list, then one dumps
        seq = doc["sequence"]
        rows = []
        for k in np.nonzero(seq.coeffs)[0].tolist():
            v = seq.coeffs[k]
            if seq.is_complex:
                rows.append([int(k), float(v.real), float(v.imag)])
            else:
                rows.append([int(k), float(v)])
        return json.dumps(_jsonable(dict(doc, sequence=rows)), indent=2) + "\n"

    @pytest.mark.parametrize("values", [
        [0.0, 1.5, -0.0, 2.0, 0.0, 0.0, 3e-300, 1.0, -2.0, 1 / 3, 5e-324],
        [1 + 2j, -0.0 + 1j, 0j, 3 - 0j, 0j, complex(-0.0, -2.0), -1e300 + 0j, 1 + 1j],
        [0.0] * 5,
        [-0.0, 0.0],
        [0j, complex(-0.0, 0.0)],
    ])
    def test_bytes_match_one_shot_dump(self, values, monkeypatch):
        monkeypatch.setattr(core, "_CHUNK_ROWS", 3)  # chunk boundaries inside every case
        for n in range(1, len(values) + 1):
            seq = CoeffSeq(np.array(values[:n]))
            doc = {"run_config": {"argv": ["wn", '"sequence": []'], "options": {"q": math.inf}},
                   "length": n, "sequence": seq}
            out = io.StringIO()
            _write_json(out, doc)
            assert out.getvalue() == self.reference(doc), n
            if not np.any(seq.coeffs):
                assert '"sequence": []' in out.getvalue()

    def test_cli_report(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "_CHUNK_ROWS", 3)
        out = tmp_path / "w.json"
        assert run(["wn", "--n", "3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        want = self.reference(dict(doc, sequence=dyadic_kernel(3)))
        assert out.read_text() == want and len(doc["sequence"]) > 6

    @pytest.mark.parametrize("x, y", [
        (np.ones(40), np.ones(30)),  # every entry of the product is 1.0
        (np.arange(1, 41) * (0.5 - 1j), np.array([1j, -0.0, 2.0 + 0j] * 10)),
    ])
    def test_mazur_b_report(self, x, y, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "_CHUNK_ROWS", 7)
        xp, yp, out = tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "b.json"
        write_coeff_csv(xp, CoeffSeq(x))
        write_coeff_csv(yp, CoeffSeq(y))
        assert run(["mazur-b", "--input", str(xp), "--input2", str(yp), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        want = self.reference(dict(doc, sequence=cesaro_product(read_coeff_csv(xp), read_coeff_csv(yp))))
        assert out.read_text() == want and len(doc["sequence"]) > 2 * 7

    def test_witness88_csv_rows(self, tmp_path, monkeypatch):
        # 2^13 - 1 rows holding 13 distinct values, spread over several chunks
        monkeypatch.setattr(core, "_CHUNK_ROWS", 1000)
        out = tmp_path / "a.csv"
        assert run(["witness88", "--t", "0.5", "--nmax", "12", "--out", str(out), "--format", "csv"]) == 0
        comment, body = out.read_text().split("\n", 1)
        alpha = problem88_witness(0.5, 12)[0].coeffs.tolist()
        assert comment.startswith('# {"subcommand": "witness88"')
        assert body == "k,re\n" + "".join("%d,%r\n" % (k, v) for k, v in enumerate(alpha) if k)


class TestExitCodes:
    def test_usage_error(self):
        assert run(["besov", "--nonsense"]) == 64

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 64

    def test_no_subcommand(self):
        assert run([]) == 64

    def test_domain_error(self):
        assert run(["psi", "--t", "-1"]) == 1

    @pytest.mark.parametrize("argv", [
        ["psi", "--t", "nan"],
        ["moment", "--input", "{f}", "--t", "nan", "--beta", "0.5", "--kmax", "8"],
        ["moment", "--input", "{f}", "--t", "1", "--beta", "nan", "--kmax", "8"],
        ["moment", "--input", "{f}", "--t", "1", "--beta=-inf", "--kmax", "8"],
        ["besov", "--input", "{f}", "--s", "nan", "--p", "1", "--q", "1", "--nmax", "2"],
        ["besov", "--input", "{f}", "--s", "inf", "--p", "1", "--q", "1", "--nmax", "2"],
        ["besov", "--input", "{f}", "--s", "1100", "--p", "1", "--q", "1", "--nmax", "2"],
        ["profile", "--input", "{f}", "--s", "1024", "--p", "1", "--nmax", "1"],
    ])
    def test_nan_and_overflowing_parameters(self, argv, two_block, tmp_path, capsys):
        # each once wrote NaN into its JSON with exit 0, or ended in an
        # OverflowError traceback
        out = tmp_path / "r.json"
        assert run([a.format(f=two_block) for a in argv] + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert not out.exists()

    def test_besov_norm_past_the_powers_overflow_is_finite(self, tmp_path, capsys):
        # the profile's 2^600-scale value once overflowed its square to inf,
        # and the norm and error bound with it
        f = tmp_path / "f.csv"
        write_coeff_csv(f, CoeffSeq([1.0, 1.0, 1.0, 1.0]))
        rep = run_json(["besov", "--input", str(f), "--s", "600", "--p", "1", "--q", "2", "--nmax", "1"],
                       tmp_path / "r.json")
        assert capsys.readouterr().err == ""
        assert isinstance(rep["norm"], float) and isinstance(rep["error_bound"], float)
        assert math.isfinite(rep["norm"]) and math.isfinite(rep["error_bound"])
        want = math.hypot(*rep["values"])
        assert abs(rep["norm"] - want) <= 1e-12 * want

    def test_missing_file(self):
        assert run(["besov", "--input", "/nonexistent.csv", "--s", "1", "--p", "1",
                    "--q", "1", "--nmax", "2"]) in (1,)  # surfaced as domain error

    def test_verify_pass_and_fail(self):
        assert run(["verify", "--suite", "besov"]) == 0
        assert run(["verify", "--suite", "besov", "--override", "besov.rel_tol=0"]) == 2

    def test_unknown_override_key(self):
        assert run(["verify", "--suite", "besov", "--override", "nope.key=1"]) == 1

    @pytest.mark.parametrize("override", ["besov.rel_tol=abc", "besov.jmax=2.5"])
    def test_malformed_override_value(self, override, capsys):
        assert run(["verify", "--suite", "besov", "--override", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and override.split("=")[0] in err

    @pytest.mark.parametrize("suite, override", [
        ("kernel", "kernel.partition_kmax=-1"), ("kernel", "kernel.partition_kmax=-5"),
        ("inj-oracle", "inj.cases=0"), ("witness88", "w88.tail_factor=0"),
        ("witness8", "w8.nmax=0"), ("witness8", "w8.block_lo=-1"),
    ])
    def test_out_of_range_override_value(self, suite, override, capsys):
        assert run(["verify", "--suite", suite, "--override", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and override.split("=")[0] in err

    def test_override_past_a_library_cap_refused_before_any_suite(self, monkeypatch, capsys):
        ran = []
        for name in verify.SUITES:
            monkeypatch.setitem(verify.SUITES, name, lambda seed, th: ran.append(seed) or [])
        assert run(["verify", "--suite", "all", "--override", "mazur.flat_kmax=21"]) == 1
        out, err = capsys.readouterr()
        assert ran == [] and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "mazur.flat_kmax" in err

    @pytest.mark.parametrize("override, keys", [
        ("w8.block_lo=17", ("w8.block_lo", "w8.nmax")), ("w88.m_lo=21", ("w88.m_lo", "w88.m_hi")),
        ("besov.jmax=21", ("besov.jmax",)), ("kernel.w0_oversample=16777217", ("kernel.w0_oversample",)),
    ])
    def test_unrunnable_override_refused_before_any_suite(self, override, keys, monkeypatch, capsys):
        ran = []
        for name in verify.SUITES:
            monkeypatch.setitem(verify.SUITES, name, lambda seed, th: ran.append(seed) or [])
        assert run(["verify", "--suite", "all", "--override", override]) == 1
        out, err = capsys.readouterr()
        assert ran == [] and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and all(k in err for k in keys)

    def test_oversized_inputs(self, tmp_path, capsys):
        # each would allocate terabytes; the size cap refuses them up front
        huge = tmp_path / "huge.csv"
        huge.write_text(f"k,re\n{1 << 40},1.0\n")
        small = tmp_path / "small.csv"
        small.write_text("k,re\n0,1.0\n")
        for argv in (
            ["besov", "--input", str(huge), "--s", "0", "--p", "1", "--q", "1", "--nmax", "2"],
            ["wn", "--n", "40"],
            ["besov", "--input", str(small), "--s", "0", "--p", "1", "--q", "1", "--nmax", str(10**12)],
            ["witness88", "--t", "0.5", "--nmax", "40"],
            ["profile", "--input", str(small), "--s", "0", "--p", "1", "--nmax", "2",
             "--oversample", str(1 << 40)],
            # p = 2 takes no grid, but the grid it reports is still checked
            ["profile", "--input", str(small), "--s", "0", "--p", "2", "--nmax", "2",
             "--oversample", str(1 << 40)],
            # its 2^26-point profile grid is refused before any block is built
            ["witness8", "--nmax", "20", "--sign-mode", "rudin_shapiro", "--oversample", "32"],
        ):
            assert run(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1, argv

    @pytest.mark.parametrize("text", [
        "index,value\n0,1\n",  # bad header
        "k,re\n0,1.0,2.0\n",  # wrong column count
        "k,re,im\n0,1.0\n",
        "k,re\n0\n",
        "k,re\n1.5,1.0\n",  # index not an integer
        "k,re\n-1,1.0\n",
        "k,re\n3,1.0\n1,2.0\n",  # indices must increase
        "k,re\n1,1.0\n1,2.0\n",
        "k,re\n0,nan\n",
        "k,re\n0,1.0\n1,inf\n",
        "k,re,im\n0,1.0,-inf\n",
        "",  # empty, header-only and comments-only files
        "# config\nk,re\n\n",
        "# a\n\n# b\n",
        "k,re\n0,1.0 # note\n",  # a comment must start its line
        "k,re\n1_0,1.0\n",  # no digit separators
        f"k,re\n{1 << 63},1.0\n",  # past int64
    ])
    def test_malformed_coefficient_files(self, text, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's "input contained no data" included
            with pytest.raises(InvalidInput):
                read_coeff_csv(p)
            assert run(["moment", "--input", str(p), "--t", "1", "--beta", "0.5", "--kmax", "8"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("text", ["k,\tre\n0,1\n", "k ,\tre,\tim\n0,1,2\n"])
    def test_tabs_around_header_fields(self, text, tmp_path, capsys):
        # README: spaces around fields are accepted, tabs included, in the
        # header as in the data rows
        p = tmp_path / "tabs.csv"
        p.write_text(text)
        argv = ["moment", "--input", str(p), "--t", "1", "--beta", "0.5", "--kmax", "8"]
        assert run(argv + ["--out", str(tmp_path / "m.json")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("text", [
        "1_0,2\n",  # no digit separators, as in coefficient files
        "nan,1\n",
        "1,inf\n",
        "1,-Infinity\n",
        "1,2\n3,4,5\n",  # ragged rows
        "1,,2\n",
        "1,2,\n",
        "0x10,1\n",
        "1,2 # note\n",  # a comment must start its line
        "# only a comment\n\n",
    ])
    def test_malformed_matrix_files(self, text, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(InvalidInput):
            read_matrix_csv(p)
        assert run(["inj-norm", "--input", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("text", ["1e308,1e308\n1e308,-1e308\n", "1e308\n"])
    @pytest.mark.parametrize("argv", [
        ["inj-norm"], ["inj-norm", "--method", "search"], ["proj-norm"], ["v2", "--nmax", "0"],
    ])
    def test_matrix_whose_sums_could_overflow(self, text, argv, tmp_path, capsys):
        # these once wrote "inf" values with exit 0
        p = tmp_path / "huge.csv"
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv + ["--input", str(p), "--out", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "absolute sum" in err, err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("argv", [
        ["--out", "v.csv"],
        ["--format", "csv"],
        ["--format", "csv", "--out", "v.json"],
    ])
    def test_verify_refuses_csv_before_any_suite(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["verify", "--suite", "all"] + argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1, err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("argv,text", [
        (["moment", "--t", "1", "--beta", "0.5", "--kmax", "8"], b"k,re\n0,1.0\n1,\xff\n"),
        (["inj-norm"], b"1,2\n1,\xff\n"),
    ])
    def test_non_utf8_input(self, argv, text, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_bytes(text)
        assert run(argv + ["--input", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "UTF-8" in err, err


def test_readme_command_lines_parse():
    # every `scottish-lab ...` line of README's code blocks names flags the
    # parser knows; parsed only, nothing run
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = readme.read_text(encoding="utf-8").split("```")[1::2]
    lines = [ln for block in blocks for ln in block.splitlines() if ln.startswith("scottish-lab ")]
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")
    assert {shlex.split(ln)[1] for ln in lines} == set(COMMANDS)


def test_readme_package_table_lists_every_public_name():
    # README's "Package layout" table names each public name in the row of
    # the module that defines it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Package layout", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in table.splitlines():
        if line.startswith("| `"):
            module, contents = line.strip("|").split("|", 1)
            rows[module.strip().strip("`")] = set(re.findall(r"`(\w+)`", contents))
    for name in scottish_lab.__all__:
        module = getattr(scottish_lab, name).__module__.rpartition(".")[2]
        assert name in rows.get(module, ()), (name, module)


class TestReproducibility:
    def test_byte_identical_rerun(self, two_block, tmp_path):
        out = tmp_path / "rep.json"
        argv = ["witness8", "--nmax", "7", "--seed", "5", "--out", str(out)]
        assert run(argv) == 0
        before = out.read_bytes()
        stored = rerun_config_argv(str(out))
        assert stored == argv
        out.unlink()
        assert run(stored) == 0
        assert out.read_bytes() == before

    def test_csv_rerun(self, tmp_path):
        out = tmp_path / "w.csv"
        argv = ["wn", "--n", "4", "--out", str(out)]
        run(argv)
        before = out.read_bytes()
        stored = rerun_config_argv(str(out))
        out.unlink()
        run(stored)
        assert out.read_bytes() == before

    def test_verify_report_written(self, tmp_path):
        out = tmp_path / "rep.json"
        rc = run(["verify", "--suite", "besov", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert doc["suites"][0]["suite"] == "besov"

    def test_report_options_per_subcommand(self):
        # Every report embeds run_config.options, so a flag added, dropped or
        # re-defaulted changes the report bytes; these are the options as
        # parsed from a minimal argv of each subcommand.
        expected = {
            "wn": ("--n 2", {"n": 2}),
            "besov": ("--input f --s 1 --p 1 --q inf --nmax 1",
                      {"input": "f", "nmax": 1, "oversample": 8, "p": 1.0, "q": "inf", "s": 1.0}),
            "profile": ("--input f --s 1 --p inf --nmax 1",
                        {"input": "f", "nmax": 1, "oversample": 8, "p": "inf", "s": 1.0}),
            "inj-norm": ("--input m", {"budget": 4096, "input": "m", "method": "exact", "seed": 0}),
            "proj-norm": ("--input m", {"budget": 4096, "input": "m", "seed": 0}),
            "v2": ("--input m --nmax 1", {"input": "m", "nmax": 1}),
            "mazur-a": ("--input m", {"input": "m"}),
            "mazur-b": ("--input x --input2 y", {"input": "x", "input2": "y"}),
            "witness8": ("--nmax 2", {"coeffs_out": None, "nmax": 2, "oversample": 8, "seed": 0,
                                      "sign_mode": "random"}),
            "witness88": ("--t 0.5 --nmax 2", {"coeffs_out": None, "nmax": 2, "t": 0.5}),
            "flatpoly": ("--input f", {"budget": 4096, "coeffs_out": None, "input": "f",
                                       "oversample": 8, "seed": 0}),
            "lkk": ("--input f", {"budget": 4096, "coeffs_out": None, "input": "f",
                                  "oversample": 8, "seed": 0}),
            "moment": ("--input f --t 1 --beta 0.5 --kmax 8",
                       {"beta": 0.5, "input": "f", "kmax": 8, "t": 1.0}),
            "psi": ("--t 1", {"t": 1.0}),
            "verify": ("", {"override": None, "seed": 0, "suite": "all"}),
        }
        assert list(COMMANDS) == list(expected)
        parser = build_parser()
        for name, (rest, options) in expected.items():
            got = _options(parser.parse_args([name] + rest.split()))
            want = dict(options, format=None, out=None)
            assert got == want and list(got) == sorted(want), name


# Runs a command and prints its exit code and peak RSS in KiB.  The wrapper
# imports no numpy: a child's peak RSS starts at the RSS of the process that
# spawned it, so spawning from the test process would measure the test.
_PEAK_RSS = (
    "import resource, subprocess, sys\n"
    "rc = subprocess.call(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "print(rc, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
)


def _child_env() -> dict:
    src = os.path.dirname(os.path.dirname(scottish_lab.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestMemory:
    @staticmethod
    def peak_kib(argv) -> int:
        out = subprocess.run([sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "scottish_lab", *argv],
                             capture_output=True, text=True, check=True, timeout=300, env=_child_env())
        rc, kib = map(int, out.stdout.split())
        assert rc == 0, argv
        return kib

    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        # peak RSS of a bare CLI call, measured once for the cases below
        return self.peak_kib(["psi", "--t", "1", "--out", str(tmp_path_factory.mktemp("psi") / "psi.json")])

    def test_threshold_override_is_size_checked(self, tmp_path):
        # One child with its address space limited to 300 MiB runs four CLI
        # calls.  3e8 partition entries would take 2.4 GB; the size cap
        # refuses them before anything is allocated.  The CSV readers once
        # reserved the size cap up front, 512 MiB for any coefficient file
        # and 256 MiB for any matrix file, which ended in an _ArrayMemoryError
        # traceback under this limit: two small reads now pass, and a file
        # whose index passes the cap exits 1.
        files = {"two.csv": "k,re\n0,1.0\n1,2.0\n", "m.csv": "1,2\n3,4\n",
                 "over.csv": f"k,re\n0,1.0\n{1 << 25},1.0\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        moment = ["moment", "--t", "1", "--beta", "0.5", "--kmax", "8", "--out", str(tmp_path / "r.json")]
        calls = [["verify", "--suite", "kernel", "--override", "kernel.partition_kmax=300000000"],
                 moment + ["--input", str(tmp_path / "two.csv")],
                 ["inj-norm", "--input", str(tmp_path / "m.csv"), "--out", str(tmp_path / "r.json")],
                 moment + ["--input", str(tmp_path / "over.csv")]]
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))\n"
            "from scottish_lab.cli import run\n"
            f"print([run(argv) for argv in {calls!r}])\n"
        )
        env = dict(_child_env(), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=env)
        assert out.stdout == "[1, 0, 0, 1]\n", out.stderr
        errors = out.stderr.splitlines()
        assert len(errors) == 2 and all(e.startswith("error:") for e in errors), out.stderr
        assert "size cap" in errors[1]

    def test_sequence_io_bytes_per_coefficient(self, base, tmp_path):
        # README: sequence reports and CSV hand-offs stay within 128 bytes of
        # peak RSS per coefficient above a bare CLI call (measured: 25-47)
        coeffs = 1 << 18
        big = str(tmp_path / "big.csv")
        for argv in (
            ["witness88", "--t", "0.5", "--nmax", "17", "--out", big, "--format", "csv"],
            ["moment", "--input", big, "--t", "0.5", "--beta", "-0.25", "--kmax", str(coeffs),
             "--out", str(tmp_path / "m.json")],
            ["wn", "--n", "17", "--out", str(tmp_path / "w.json")],
        ):
            per_coeff = (self.peak_kib(argv) - base) * 1024 / coeffs
            assert per_coeff <= 128, (argv[0], per_coeff)

    @pytest.fixture(scope="class")
    def profile_inputs(self, tmp_path_factory):
        # 2^18 real and 2^17 complex coefficients, written once for the cases below
        rng = np.random.default_rng(29)
        real, cplx = (tmp_path_factory.mktemp("profile") / name for name in ("real.csv", "complex.csv"))
        write_coeff_csv(real, CoeffSeq(rng.standard_normal(1 << 18)))
        write_coeff_csv(cplx, CoeffSeq(rng.standard_normal(1 << 17) + 1j * rng.standard_normal(1 << 17)))
        return str(real), str(cplx)

    def test_p2_profiles_bytes_per_coefficient(self, base, profile_inputs, tmp_path):
        # README: p = 2 profiles need no grid, so they stay within the same
        # 128 bytes per coefficient (measured: 43 real, 99 complex)
        real, cplx = profile_inputs
        for argv, coeffs in (
            (["besov", "--input", real, "--s", "0.5", "--p", "2", "--q", "2", "--nmax", "17"], 1 << 18),
            (["profile", "--input", cplx, "--s", "0", "--p", "2", "--nmax", "16"], 1 << 17),
        ):
            per_coeff = (self.peak_kib(argv + ["--out", str(tmp_path / "r.json")]) - base) * 1024 / coeffs
            assert per_coeff <= 128, (argv[0], per_coeff)

    def test_coset_profiles_bytes_per_coefficient(self, base, profile_inputs, tmp_path):
        # README: other exponents take grids past 2^16 points one coset of
        # at most 2^16 points at a time (2^21 points for the real top block,
        # 2^20 for the complex one), so they stay within the same 128 bytes
        # per coefficient (measured: 45 real at p = 1, 112 complex at p = inf)
        real, cplx = profile_inputs
        for argv, coeffs in (
            (["besov", "--input", real, "--s", "0.5", "--p", "1", "--q", "2", "--nmax", "17"], 1 << 18),
            (["profile", "--input", cplx, "--s", "0", "--p", "inf", "--nmax", "16"], 1 << 17),
        ):
            per_coeff = (self.peak_kib(argv + ["--out", str(tmp_path / "r.json")]) - base) * 1024 / coeffs
            assert per_coeff <= 128, (argv[0], per_coeff)


# Every suite at a small size: each runs its code path, and so makes every
# import it makes at the default sizes.
_SMALL_SUITES = {
    "kernel.nmax": 2, "kernel.w0_oversample": 2, "kernel.partition_kmax": 8, "besov.jmax": 1,
    "inj.cases": 2, "hankel.mmax": 2, "re.cases": 4, "w88.tail_nmax": 2, "w88.m_lo": 2, "w88.m_hi": 4,
    "w88.lkk_nmax": 2, "w8.nmax": 2, "w8.block_lo": 0, "w8.seeds": 1, "w8.pairs": 1, "dual.pairs": 1,
    "dual.rank1": 1, "mazur.seeds": 1, "mazur.flat_kmax": 1,
}


class TestImports:
    def test_cli_import_loads_no_scipy(self):
        # startup dominates a cold CLI call, and no library code uses scipy:
        # neither importing the CLI nor running every verify suite loads it
        code = (
            "import sys, scottish_lab.cli\n"
            "from scottish_lab import verify\n"
            "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(scipy())\n"
            f"reports = verify.run_suites(list(verify.SUITES), 0, {_SMALL_SUITES!r})\n"
            "print(len(reports), scipy())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
            env=_child_env(),
        )
        assert out.stdout == f"[]\n{len(verify.SUITES)} []\n"
