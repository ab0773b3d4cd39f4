import ast
import contextlib
import io
import json
import math
import multiprocessing
import os
import re
import shlex
import signal
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scottish_lab
from scottish_lab import CoeffSeq, read_coeff_csv, read_matrix_csv, write_coeff_csv, write_matrix_csv, DenseMatrix
from scottish_lab import core, dyadic_kernel, tensornorm, verify
from scottish_lab.cli import COMMANDS, FLAGS, _options, _write_json, build_parser, rerun_config_argv, run
from scottish_lab.dyadic import dyadic_profile
from scottish_lab.errors import InvalidInput, InvalidParameter
from scottish_lab.extremal import problem88_witness
from scottish_lab.mazur import cesaro_product


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def run_json(argv, path):
    rc = run(argv + ["--out", str(path)])
    assert rc == 0
    with open(path) as fh:
        return json.load(fh, parse_constant=refuse_constant)


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


@pytest.fixture
def ones(tmp_path):
    p = tmp_path / "x.csv"
    write_coeff_csv(p, CoeffSeq(np.ones(8)))
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

    def test_flatpoly_and_lkk_past_the_float_range(self, tmp_path):
        # the norms of eight targets of 1e308 overflow, and their ratio once
        # read NaN (inf / inf); a ratio is scale-free, so it stays finite
        big = tmp_path / "big.csv"
        write_coeff_csv(big, CoeffSeq(np.full(8, 1e308)))
        doc = run_json(["flatpoly", "--input", str(big)], tmp_path / "fp.json")
        assert doc["targets_l2"] == doc["sup_norm"] == "inf"
        assert doc["ratio"] == 1.414213562373095
        doc = run_json(["lkk", "--input", str(big)], tmp_path / "lk.json")
        assert [round(b["ratio"], 4) for b in doc["blocks"]] == [1.4142, 1.4142, 1.3297]
        assert doc["fidelity_exact"] is True

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

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_csv_form_follows_the_table(self, name, two_block, hadamard, ones, tmp_path, capsys):
        # a subcommand the table gives a CSV form writes one; any other is
        # refused before it runs
        out = tmp_path / "r.csv"
        argv = [a.format(f=two_block, m=hadamard, x=ones) for a in COMMANDS[name].example.split()]
        rc = run([name] + argv + ["--out", str(out)])
        if COMMANDS[name].csv:
            assert rc == 0 and out.read_text().startswith(f'# {{"subcommand": "{name}"')
        else:
            assert rc == 1 and not out.exists()
            assert capsys.readouterr() == ("", f"error: {name} has no CSV form; use --format json\n")

    def test_psi_json(self, tmp_path):
        doc = run_json(["psi", "--t", "2.0"], tmp_path / "psi.json")
        assert doc["value"] == 2.0


class TestStreamedSequence:
    @staticmethod
    def reference(doc):
        # the one-shot emit that streaming replaced: every nonzero entry as a
        # list, every array .tolist()'d and inf as "inf", then one dumps
        def plain(obj):
            if isinstance(obj, (np.ndarray, np.generic)):
                obj = obj.tolist()
            if isinstance(obj, dict):
                return {str(k): plain(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [plain(v) for v in obj]
            if isinstance(obj, float) and math.isinf(obj):
                return "inf" if obj > 0 else "-inf"
            return obj

        if "sequence" in doc:
            seq = doc["sequence"]
            rows = []
            for k in np.nonzero(seq.coeffs)[0].tolist():
                v = seq.coeffs[k]
                if seq.is_complex:
                    rows.append([int(k), float(v.real), float(v.imag)])
                else:
                    rows.append([int(k), float(v)])
            doc = dict(doc, sequence=rows)
        return json.dumps(plain(doc), indent=2) + "\n"

    @pytest.mark.parametrize("values, arrays", [
        pytest.param([0.0, 1.5, -0.0, 2.0, 0.0, 0.0, 3e-300, 1.0, -2.0, 1 / 3, 5e-324], {}, id="values0"),
        pytest.param([1 + 2j, -0.0 + 1j, 0j, 3 - 0j, 0j, complex(-0.0, -2.0), -1e300 + 0j, 1 + 1j], {},
                     id="values1"),
        pytest.param([0.0] * 5, {}, id="values2"),
        pytest.param([-0.0, 0.0], {}, id="values3"),
        pytest.param([0j, complex(-0.0, 0.0)], {}, id="values4"),
        pytest.param([0.0, 2.0, -1.0], {"x": np.array([math.inf, -0.0, 1 / 3])}, id="array-beside-sequence"),
        # no sequence: arrays become lists where the encoder meets them
        pytest.param(None, {"v": np.array([1.5, math.inf, -math.inf, -0.0, 5e-324, 1e300])}, id="float64"),
        pytest.param(None, {"v": np.array([-128, 0, 1, 127], dtype=np.int8)}, id="int8"),
        pytest.param(None, {"m": np.array([[1.0, -0.0, 2.5], [math.inf, -1e-300, 7.0]])}, id="2-d"),
        pytest.param(None, {"e": np.array([]), "e2": np.zeros((2, 0)), "e3": np.zeros((0, 3))}, id="empty"),
        pytest.param(None, {"upper_cert": [{"a": np.array([1.0, -0.0]), "b": np.array([3.0, -2.0])},
                                           {"a": np.array([0.0, 1.0]), "b": np.array([-math.inf, 0.5])}],
                            "strategies": ["rows"]}, id="nested-in-dicts"),
        # NaN is written as json writes it, so that strict readers refuse it
        pytest.param(None, {"v": np.array([1.0, math.nan, -math.nan, math.inf]), "f": math.nan}, id="nan"),
        # numpy scalars are written as their Python values, never by their repr
        pytest.param(None, {"f": np.float64(1 / 3), "g": np.float64(-math.inf), "h": np.float64(math.nan),
                            "i": np.int64(-7), "b": np.bool_(True)}, id="numpy-scalars"),
    ])
    def test_bytes_match_one_shot_dump(self, values, arrays, monkeypatch):
        monkeypatch.setattr(core, "_CHUNK_ROWS", 3)  # chunk boundaries inside every case
        run_config = {"argv": ["wn", '"sequence": []'], "options": {"q": math.inf}}
        for n in range(1, len(values) + 1) if values else [None]:
            doc = {"run_config": run_config}
            if n is not None:
                doc.update(length=n, sequence=CoeffSeq(np.array(values[:n])))
            doc.update(arrays)
            out = io.StringIO()
            _write_json(out, doc)
            assert out.getvalue() == self.reference(doc), n
            if n is not None and not np.any(doc["sequence"].coeffs):
                assert '"sequence": []' in out.getvalue()

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_example_report_is_its_own_dump(self, name, two_block, hadamard, ones, tmp_path):
        # every subcommand's example, as the cli-roundtrip suite runs it, reads
        # back to a document whose indent-2 dump is the report's text: v2's
        # arrays under brackets -> upper_cert -> a/b, inj-norm's int8 x and y
        # and moment's tuples included
        argv = [a.format(f=two_block, m=hadamard, x=ones) for a in COMMANDS[name].example.split()]
        out = tmp_path / "r.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert run([name] + argv + ["--out", str(out)]) == 0
        text = out.read_text()
        assert json.dumps(json.loads(text), indent=2) + "\n" == text

    def test_cli_report(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "_CHUNK_ROWS", 3)
        out = tmp_path / "w.json"
        assert run(["wn", "--n", "3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text(), parse_constant=refuse_constant)
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
        doc = json.loads(out.read_text(), parse_constant=refuse_constant)
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


# The exact report text of four emit paths, pinned so that the way the CLI
# recognises arrays without importing numpy cannot change a byte: a streamed
# sequence (JSON and CSV), an ndarray of values, and a dataclass report of
# floats and bools.
_GOLDEN_WN_JSON = """\
{
  "run_config": {
    "subcommand": "wn",
    "argv": [
      "wn",
      "--n",
      "2"
    ],
    "options": {
      "format": null,
      "n": 2,
      "out": null
    }
  },
  "n": 2,
  "length": 8,
  "sequence": [
    [
      3,
      0.5
    ],
    [
      4,
      1.0
    ],
    [
      5,
      0.75
    ],
    [
      6,
      0.5
    ],
    [
      7,
      0.25
    ]
  ]
}
"""

_GOLDEN_WN_CSV = """\
# {"subcommand": "wn", "argv": ["wn", "--n", "2", "--out", "{out}"], "options": {"format": null, "n": 2, "out": "{out}"}}
k,re
3,0.5
4,1.0
5,0.75
6,0.5
7,0.25
"""

_GOLDEN_BESOV = """\
{
  "run_config": {
    "subcommand": "besov",
    "argv": [
      "besov",
      "--input",
      "{f}",
      "--s",
      "1",
      "--p",
      "inf",
      "--q",
      "1",
      "--nmax",
      "4"
    ],
    "options": {
      "format": null,
      "input": "{f}",
      "nmax": 4,
      "out": null,
      "oversample": 8,
      "p": "inf",
      "q": 1.0,
      "s": 1.0
    }
  },
  "s": 1.0,
  "p": "inf",
  "q": 1.0,
  "nmax": 4,
  "grid": 256,
  "values": [
    0.0,
    2.0000000000000004,
    0.0,
    8.000000000000002,
    0.0
  ],
  "norm": 10.000000000000002,
  "error_bound": 1.4285714285753284,
  "truncated": false
}
"""

_GOLDEN_WITNESS8 = """\
{
  "run_config": {
    "subcommand": "witness8",
    "argv": [
      "witness8",
      "--nmax",
      "6",
      "--seed",
      "1",
      "--sign-mode",
      "rudin_shapiro"
    ],
    "options": {
      "coeffs_out": null,
      "format": null,
      "nmax": 6,
      "out": null,
      "oversample": 8,
      "seed": 1,
      "sign_mode": "rudin_shapiro"
    }
  },
  "params": {
    "nmax": 6,
    "seed": 1,
    "sign_mode": "rudin_shapiro",
    "decay": "1/(n+1)",
    "fit_start": 3
  },
  "blocks": [
    {
      "n": 0,
      "l1": 1.0,
      "l1_bound": 7.034136878376648e-14,
      "linf": 1.0,
      "l2": 1.0
    },
    {
      "n": 1,
      "l1": 0.6345731492255537,
      "l1_bound": 0.09065330703233565,
      "linf": 0.5,
      "l2": 0.7071067811865476
    },
    {
      "n": 2,
      "l1": 0.6418487595454624,
      "l1_bound": 0.09169267993522641,
      "linf": 0.3333333333333333,
      "l2": 0.6666666666666666
    },
    {
      "n": 3,
      "l1": 0.6636200221835061,
      "l1_bound": 0.09480286031221369,
      "linf": 0.25,
      "l2": 0.7071067811865476
    },
    {
      "n": 4,
      "l1": 0.7612122604115128,
      "l1_bound": 0.10874460863070533,
      "linf": 0.2,
      "l2": 0.8
    },
    {
      "n": 5,
      "l1": 0.8874131787069045,
      "l1_bound": 0.1267733112447533,
      "linf": 0.16666666666666666,
      "l2": 0.9428090415820634
    },
    {
      "n": 6,
      "l1": 1.078309900576471,
      "l1_bound": 0.15404427151260705,
      "linf": 0.14285714285714285,
      "l2": 1.1428571428571428
    }
  ],
  "fit": {
    "slope": 0.5007433974244003,
    "intercept": -0.0869714671170474,
    "residual": 0.007357930516694969
  },
  "flags": {
    "bounded_by_one": true,
    "block_peaks_decreasing": true,
    "profile_growth": false
  }
}
"""


class TestGoldenBytes:
    def test_wn_json(self, capsys):
        assert run(["wn", "--n", "2"]) == 0
        assert capsys.readouterr().out == _GOLDEN_WN_JSON

    def test_wn_csv(self, tmp_path):
        out = tmp_path / "w2.csv"
        assert run(["wn", "--n", "2", "--out", str(out)]) == 0
        assert out.read_text().replace(str(out), "{out}") == _GOLDEN_WN_CSV

    def test_besov_example(self, two_block, capsys):
        assert run(["besov", "--input", str(two_block), "--s", "1", "--p", "inf", "--q", "1", "--nmax", "4"]) == 0
        assert capsys.readouterr().out.replace(str(two_block), "{f}") == _GOLDEN_BESOV

    def test_witness8_example(self, capsys):
        assert run(["witness8", "--nmax", "6", "--seed", "1", "--sign-mode", "rudin_shapiro"]) == 0
        assert capsys.readouterr().out == _GOLDEN_WITNESS8

    @pytest.mark.parametrize("name", [name for name in COMMANDS if name not in ("wn", "besov", "witness8")])
    def test_command_example(self, name, two_block, hadamard, ones, capsys):
        # every other COMMANDS example's report, as tests/golden/<name>.txt
        # holds it with the input paths written {f}, {m} and {x}
        files = {"f": two_block, "m": hadamard, "x": ones}
        assert run([name] + [a.format(**files) for a in COMMANDS[name].example.split()]) == 0
        out = capsys.readouterr().out
        for key, path in files.items():
            out = out.replace(str(path), "{%s}" % key)
        assert out == (Path(__file__).parent / "golden" / f"{name}.txt").read_text(encoding="utf-8")


class TestExitCodes:
    def test_usage_error(self, capsys):
        # the unknown flag is named, though the required flags are missing too
        assert run(["besov", "--nonsense"]) == 64
        err = capsys.readouterr().err
        assert err.endswith("scottish-lab besov: error: unrecognized arguments: --nonsense\n"), err
        assert run(["besov", "--s", "1"]) == 64
        err = capsys.readouterr().err
        assert err.endswith("error: the following arguments are required: --input, --p, --q, --nmax\n"), err

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
        ["moment", "--input", "{f}", "--t", "inf", "--beta", "0.5", "--kmax", "8"],
        ["moment", "--input", "{f}", "--t", "1", "--beta", "1e300", "--kmax", "8"],
        ["psi", "--t", "inf"],
        ["inj-norm", "--input", "{m}", "--method", "search", "--budget", "-3"],
        ["flatpoly", "--input", "{f}", "--budget", "-7"],
        ["lkk", "--input", "{f}", "--budget", "-7"],
        ["inj-norm", "--input", "{m}", "--method", "search", "--budget", "99999999999"],
    ])
    def test_nan_and_overflowing_parameters(self, argv, two_block, hadamard, tmp_path, capsys):
        # each once wrote NaN or inf into its JSON with exit 0, ran a negative
        # budget as budget 0 with exit 0, ran a budget past the size cap for
        # days, or ended in an OverflowError traceback
        out = tmp_path / "r.json"
        assert run([a.format(f=two_block, m=hadamard) for a in argv] + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["lkk", "--input", "{neg}"],
        ["moment", "--input", "{f}", "--t", "1", "--beta", "0.5", "--kmax", "0"],
        ["besov", "--input", "{f}", "--s", "1", "--p", "1", "--q", "1", "--nmax", "2", "--format", "csv"],
        ["flatpoly", "--input", "{f}", "--coeffs-out", "{c}", "--format", "csv"],
        ["witness88", "--t", "0.5", "--nmax", "3", "--coeffs-out", "{c}", "--format", "csv"],
        ["inj-norm", "--input", "{m}", "--out", "{r}"],
        # entries 0 from block 4: the file would hold zeros, and `moment` on
        # it read convergent though the witness's moment diverges
        ["witness88", "--t", "0.001", "--nmax", "20", "--out", "{r}", "--coeffs-out", "{c}", "--format", "csv"],
    ])
    def test_refused_inputs_write_nothing(self, argv, two_block, hadamard, tmp_path, monkeypatch, capsys):
        # a negative target, kmax 0, a CSV report with no --out to go to (the
        # --coeffs-out export included), and a report form the subcommand
        # lacks, refused before its kernel runs; an underflowing witness,
        # refused before any entry is built
        def scan(Q):
            raise AssertionError("the sign scan ran")

        monkeypatch.setattr(tensornorm, "injective_norm_exact", scan)
        neg = tmp_path / "neg.csv"
        write_coeff_csv(neg, CoeffSeq([1.0, -0.5]))
        files = dict(f=two_block, m=hadamard, neg=neg, c=tmp_path / "c.csv", r=tmp_path / "r.csv")
        assert run([a.format(**files) for a in argv]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1, err
        assert sorted(os.listdir(tmp_path)) == ["f.csv", "m.csv", "neg.csv"]

    def test_failed_run_leaves_neither_report_nor_export(self, tmp_path, capsys):
        # the export was once written before the report's directory was found missing
        argv = ["witness8", "--nmax", "4", "--coeffs-out", str(tmp_path / "ok.csv"),
                "--out", str(tmp_path / "missing" / "r.json")]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_report_that_fails_midway_leaves_no_file(self, fmt, tmp_path, monkeypatch):
        # an error while the report is written, such as a MemoryError in a
        # large certificate, once left an empty or partial --out file; an
        # existing target keeps its old bytes
        def fail(*args, **kwargs):
            args[0].write("[") if fmt == "json" else open(args[0], "w").close()
            raise MemoryError

        monkeypatch.setattr(scottish_lab.cli, "_write_json", fail)
        monkeypatch.setattr(core, "write_matrix_csv", fail)
        out = tmp_path / f"r.{fmt}"
        out.write_text("old\n")
        with pytest.raises(MemoryError):
            run(["witness8", "--nmax", "4", "--coeffs-out", str(tmp_path / "c.csv"), "--out", str(out)])
        assert os.listdir(tmp_path) == [out.name] and out.read_text() == "old\n"

    def test_report_written_through_a_link_and_into_a_pipe(self, tmp_path):
        # a link's target is replaced, not the link; a pipe is written in place
        target = tmp_path / "target.json"
        target.write_text("")
        (tmp_path / "link.json").symlink_to(target)
        assert run(["psi", "--t", "1", "--out", str(tmp_path / "link.json")]) == 0
        assert (tmp_path / "link.json").is_symlink() and json.loads(target.read_text())["value"] == 0.5
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        assert run(["psi", "--t", "1", "--out", str(fifo)]) == 0
        reader.join(10)
        assert json.loads(got[0])["value"] == 0.5 and fifo.is_fifo()
        assert sorted(os.listdir(tmp_path)) == ["fifo", "link.json", "target.json"]

    @pytest.mark.parametrize("flag", [["--budget", "5"], ["--seed", "3"]])
    def test_proj_norm_takes_no_budget_or_seed(self, flag, hadamard, capsys):
        # the bracket read neither, so both flags went with them
        assert run(["proj-norm", "--input", str(hadamard)] + flag) == 64
        assert "unrecognized arguments" in capsys.readouterr().err

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

    @pytest.mark.parametrize("scale,p", [(1e120, "3"), (1e-120, "3"), (1e200, "2"), (1e-200, "2")])
    def test_block_norms_past_the_float_range(self, scale, p, tmp_path, capsys):
        # |f|^p once overflowed to nan or inf, or underflowed to 0, with exit 0
        argv = ["besov", "--s", "0", "--p", p, "--q", "2", "--nmax", "1", "--input"]
        for name, coeffs in (("f.csv", [scale, 2 * scale]), ("g.csv", [1.0, 2.0])):
            write_coeff_csv(tmp_path / name, CoeffSeq(coeffs))
        got = run_json(argv + [str(tmp_path / "f.csv")], tmp_path / "f.json")
        want = run_json(argv + [str(tmp_path / "g.csv")], tmp_path / "g.json")
        assert capsys.readouterr().err == ""
        for key in ("values", "norm", "error_bound"):
            for v, w in zip(np.ravel(got[key]), np.ravel(want[key])):
                assert isinstance(v, float) and abs(v - scale * w) <= 1e-12 * scale * w, (key, v, w)

    def test_missing_file(self):
        assert run(["besov", "--input", "/nonexistent.csv", "--s", "1", "--p", "1",
                    "--q", "1", "--nmax", "2"]) in (1,)  # surfaced as domain error

    def test_verify_pass_and_fail(self):
        assert run(["verify", "--suite", "besov"]) == 0
        assert run(["verify", "--suite", "besov", "--override", "besov.rel_tol=0"]) == 2

    def test_unknown_override_key(self):
        assert run(["verify", "--suite", "besov", "--override", "nope.key=1"]) == 1

    @pytest.mark.parametrize("override", ["besov.rel_tol=abc", "besov.jmax=2.5", "foo"])
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
        assert run(["verify", "--suite", "all", "--override", "mazur.flat_kmax=23"]) == 1
        out, err = capsys.readouterr()
        assert ran == [] and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "mazur.flat_kmax" in err

    def test_suite_error_in_a_worker_exits_1(self, pin_cpus, monkeypatch, capsys):
        def refuse(seed, th):
            raise InvalidParameter(f"refused seed {seed}")

        pin_cpus(2)
        for name in verify.SUITES:
            monkeypatch.setitem(verify.SUITES, name, lambda seed, th: [])
        monkeypatch.setitem(verify.SUITES, "witness8", refuse)
        assert run(["verify", "--suite", "all", "--seed", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: refused seed 5\n"
        assert multiprocessing.active_children() == []

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
            # block 20's 2^26-point grid is refused before any block is built
            ["witness8", "--nmax", "20", "--sign-mode", "rudin_shapiro", "--oversample", "64"],
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

    # 2 * 2 products convolve directly, 600 * 600 past _DIRECT_CONV_LIMIT by FFT
    @pytest.mark.parametrize("n", [2, 600])
    def test_overflowing_sums_are_named(self, n, tmp_path, capsys):
        # finite inputs once read "coefficients must be finite"
        m, x = tmp_path / "m.csv", tmp_path / "x.csv"
        m.write_text("1e308,1e308\n1e308,-1e308\n")
        write_coeff_csv(x, CoeffSeq(np.full(n, 1e308)))
        cases = [(["mazur-a", "--input", str(m)], "antidiagonal sum 1"),
                 (["mazur-b", "--input", str(x), "--input2", str(x)], "Cauchy product sum 0")]
        for argv, what in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run(argv + ["--out", str(tmp_path / "r.json")]) == 1
            assert capsys.readouterr().err == f"error: {what} overflows the float range\n"
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


def test_every_parameter_is_read():
    # a parameter its function never reads changes no result; only the
    # verify suites keep one, for their common suite(seed, th) signature
    src = Path(scottish_lab.__file__).parent
    suites = {fn.__name__ for fn in verify.SUITES.values()}
    inert = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(node, "name", "<lambda>")
            if path.stem == "verify" and name in suites:
                continue
            a = node.args
            params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            inert += [f"{path.name}:{node.lineno} {name}({p})" for p in params if p not in read]
    assert inert == []


def test_every_private_name_is_used():
    # a module-level private name that nothing else in the package refers to
    # is dead code, such as a helper folded into its last caller
    src = Path(scottish_lab.__file__).parent
    defined, used = [], set()
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            names = [n for n in names if n.startswith("_") and not n.startswith("__")]
            defined += [(path.name, n) for n in names]
            for node in ast.walk(stmt):  # what this statement refers to, its own names left out
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name not in names:
                    used.add(name)
    assert [f"{file} {name}" for file, name in defined if name not in used] == []


# The seeded CLI fuzz: edge-case input files, each in a coefficient form and
# a matrix form, and the flag values each numeric flag is drawn from.
_FUZZ_FILES = {
    "empty": ("", ""),
    "header-only": ("k,re\n", "k,re\n"),
    "nan": ("k,re\n0,1\n1,nan\n", "1,nan\n2,3\n"),
    "inf": ("k,re\n0,inf\n1,-inf\n", "inf,1\n-inf,2\n"),
    "huge": ("k,re\n0,1e308\n1,1e308\n", "1e308,1e308\n1e308,-1e308\n"),
    "subnormal": ("k,re\n0,5e-324\n3,1e-310\n", "5e-324,1e-310\n0,5e-324\n"),
    "complex": ("k,re,im\n0,1,2\n2,-1,0.5\n", "1+2j,3\n4,5\n"),
    "ragged": ("k,re\n0,1\n1,2,3\n", "1,2\n3\n"),
    "text": ("k,re\n0,abc\n", "a,b\nc,d\n"),
    "duplicate": ("k,re\n0,1\n0,2\n", "1,1\n1,1\n"),
    "negative": ("k,re\n-1,1\n0,2\n", "-1,-2\n-3,-4\n"),
    "1x40": ("k,re\n" + "".join(f"{k},{(-1) ** k}\n" for k in range(40)),
             ",".join(str((-1) ** k) for k in range(40)) + "\n"),
    "zero": ("k,re\n0,0\n1,0\n", "0,0\n0,0\n"),
}
_FUZZ_VALUES = ("1", "2", "0.5", "0", "-1", "1e308", "nan", "inf", "-inf", "1e-320", "99999999999", "-0", "1.5")
_FUZZ_INTS = ("1", "2", "0", "-1", "99999999999", "-0", "1.5")  # for int flags: all but one parse
_MATRIX_INPUT = {"inj-norm", "proj-norm", "v2", "mazur-a"}


@st.composite
def _fuzz_call(draw, name):
    """A subcommand's argv, each flag drawn or left out (a required one always
    drawn): a number from _FUZZ_INTS or _FUZZ_VALUES, a choice from its own,
    an edge-case file for --input and --input2, and a fresh path for --out
    and --coeffs-out; with the text of each input file."""
    argv, files = [name], {}
    for flag in COMMANDS[name].flags.split() + ["--out", "--format"]:
        spec = FLAGS[flag]
        if not spec.get("required") and not draw(st.booleans()):
            continue
        if flag in ("--input", "--input2"):
            files[flag[2:]] = _FUZZ_FILES[draw(st.sampled_from(sorted(_FUZZ_FILES)))][name in _MATRIX_INPUT]
        if flag in ("--input", "--input2", "--out", "--coeffs-out"):
            argv.append(f"{flag}={{{flag[2:]}}}")
        elif "choices" in spec:
            argv.append(f"{flag}={draw(st.sampled_from(spec['choices']))}")
        else:
            argv.append(f"{flag}={draw(st.sampled_from(_FUZZ_INTS if spec.get('type') is int else _FUZZ_VALUES))}")
    return argv, files


def _time_out(signum, frame):
    pytest.fail("a fuzzed call ran past its 5 s limit")  # not an OSError, which run() would report


@pytest.mark.parametrize("name", [name for name in COMMANDS if name != "verify"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_calls_keep_the_exit_contract(name, data):
    """Every drawn call exits 0, 1 or 64 within 5 s; exit 1 prints exactly one
    `error:` line and leaves no --out or --coeffs-out; exit 0 writes strict
    JSON with the schema's keys (or a CSV whose first line is its strict
    JSON run configuration)."""
    argv, files = data.draw(_fuzz_call(name))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: os.path.join(tmp, key) for key in ("out", "coeffs-out", *files)}
        for key, text in files.items():
            Path(paths[key]).write_text(text)
        argv = [a.format(**paths) for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _time_out)
        signal.alarm(5)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = run(argv)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert rc in (0, 1, 64), (argv, rc)
        if rc == 1:
            assert re.fullmatch("error: [^\n]*\n", stderr.getvalue()), (argv, stderr.getvalue())
            assert not any(os.path.exists(paths[key]) for key in ("out", "coeffs-out")), argv
        if rc == 0:
            text = Path(paths["out"]).read_text() if os.path.exists(paths["out"]) else stdout.getvalue()
            if text.startswith("# "):
                json.loads(text.splitlines()[0][2:], parse_constant=refuse_constant)
            else:
                doc = json.loads(text, parse_constant=refuse_constant)
                assert set(doc) == set(COMMANDS[name].schema.split()) | {"run_config"}, argv


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
        doc = json.loads(out.read_text(), parse_constant=refuse_constant)
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
            "proj-norm": ("--input m", {"input": "m"}),
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

    @staticmethod
    def run_in_1_gib(argv) -> None:
        """Runs one CLI call in a child whose address space is limited to 1 GiB
        and checks that it exits 0 and writes nothing to stderr."""
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from scottish_lab.cli import run\n"
            f"print(run({argv!r}))\n"
        )
        env = dict(_child_env(), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=env)
        assert out.stdout == "0\n" and out.stderr == "", out.stderr

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


    def test_bracket_of_a_wide_matrix(self, tmp_path):
        # proj-norm on a 3 x 40000 matrix with two nonzero columns, under a
        # 1 GiB address space: its column split once took its unit rows from
        # np.eye(40000) and ended in an _ArrayMemoryError traceback (11.9 GiB)
        A = np.zeros((3, 40000))
        A[:, 7] = [1.0, 2.0, 3.0]
        A[:, -1] = [2.0, -2.0, 2.0]
        write_matrix_csv(tmp_path / "wide.csv", DenseMatrix(A))
        argv = ["proj-norm", "--input", str(tmp_path / "wide.csv"), "--out", str(tmp_path / "r.json")]
        self.run_in_1_gib(argv)

    def test_bracket_of_a_tall_tied_matrix(self, tmp_path):
        # proj-norm on 2^13 x 2 and 2^12 x 2 matrices whose row split ties
        # their column split, under a 1 GiB address space: the row split was
        # once kept on the tie and ended in a MemoryError traceback, past the
        # size cap at 2^13 (2^26 numbers) and at 2^12 within it (16,785,408
        # numbers, turned into JSON lists)
        for rows in (13, 12):
            A = np.full((1 << rows, 2), 1e-300)
            A[:2] = [[1.0, 2.0], [3.0, -1.0]]
            write_matrix_csv(tmp_path / "tall.csv", DenseMatrix(A))
            argv = ["proj-norm", "--input", str(tmp_path / "tall.csv"), "--out", str(tmp_path / "r.json")]
            self.run_in_1_gib(argv)
            report = json.loads((tmp_path / "r.json").read_text(), parse_constant=refuse_constant)
            assert report["upper"] == 5.0 and len(report["upper_cert"]) == 2

    def test_bracket_report_streams(self, tmp_path):
        # proj-norm on a 1024 x 2 matrix whose row split is strictly cheapest
        # (4.0 against 5.0): its certificate holds 1024 pairs of 1026 numbers,
        # 8.0 MiB of arrays.  The report once turned them into Python floats
        # twice and built its whole text before writing (134.3 MiB traced);
        # it is now streamed, within twice the certificate's bytes
        A = np.full((1024, 2), 1e-300)
        A[:2] = [[3.0, 2.0], [1.0, -1.0]]
        write_matrix_csv(tmp_path / "tall.csv", DenseMatrix(A))
        out = tmp_path / "r.json"
        tracemalloc.start()
        try:
            assert run(["proj-norm", "--input", str(tmp_path / "tall.csv"), "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, peak
        report = json.loads(out.read_text(), parse_constant=refuse_constant)
        assert report["upper"] == 4.0 and len(report["upper_cert"]) == 1024


class TestImports:
    def test_cli_import_loads_no_scipy(self, small_suites):
        # startup dominates a cold CLI call, and no library code uses scipy:
        # neither importing the CLI nor running every verify suite loads it.
        # On one CPU the suites run in this process, whose modules are listed.
        code = (
            "import os, sys, scottish_lab.cli\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from scottish_lab import verify\n"
            "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(scipy())\n"
            f"reports = verify.run_suites(list(verify.SUITES), 0, {small_suites!r})\n"
            "print(len(reports), scipy())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
            env=_child_env(),
        )
        assert out.stdout == f"[]\n{len(verify.SUITES)} []\n"

    def test_package_import_loads_no_submodule(self):
        # public names load on first use, so a bare import loads no kernel
        # module and no numpy; a kernel module is still an attribute
        code = ("import sys, scottish_lab\n"
                "print(sorted(m for m in sys.modules if m.startswith(('scottish_lab.', 'numpy'))))\n"
                "print(scottish_lab.tensornorm.__name__)\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             timeout=120, env=_child_env())
        assert out.stdout == "[]\nscottish_lab.tensornorm\n"

    def test_public_names_resolve_to_their_modules(self):
        star = {}
        exec("from scottish_lab import *", star)
        listed = dir(scottish_lab)
        for name in scottish_lab.__all__:
            obj = getattr(scottish_lab, name)
            assert getattr(sys.modules[obj.__module__], name) is obj, name
            assert star[name] is obj and name in listed, name
            assert name not in vars(scottish_lab), name  # looked up, never stored
        assert set(star) - {"__builtins__"} == set(scottish_lab.__all__)

    def test_package_names_follow_their_module(self, monkeypatch):
        # the span tracer rebinds functions in their modules; the package
        # must hand out the rebound function and, after undo, the original
        from scottish_lab import extremal
        sentinel = object()
        monkeypatch.setattr(extremal, "psi", sentinel)
        assert scottish_lab.psi is sentinel
        monkeypatch.undo()
        assert scottish_lab.psi is extremal.psi

    def test_unknown_names_are_refused(self):
        with pytest.raises(AttributeError):
            scottish_lab.nope
        with pytest.raises(ImportError):
            exec("from scottish_lab import nope", {})

    @pytest.mark.parametrize("argv, rc, modules", [
        (None, 0, "cli errors"),
        (["--help"], 0, "cli errors"),
        (["besov", "--nonsense"], 64, "cli errors"),
        (["psi", "--t", "1"], 0, "cli core errors dyadic extremal"),
        (["inj-norm", "--input", "{m}"], 0, "cli core errors tensornorm"),
        (["witness8", "--nmax", "4"], 0, "cli core errors dyadic extremal mazur"),
        (["wn", "--n", "2", "--format", "csv"], 0, "cli core dyadic errors"),
        (["lkk", "--input", "{f}", "--coeffs-out", "{c}"], 0, "cli core dyadic errors extremal"),
        (["proj-norm", "--input", "{m}"], 0, "cli core errors tensornorm"),
        (["mazur-b", "--input", "{f}", "--input2", "{f}"], 0, "cli core dyadic errors extremal mazur"),
    ], ids=["import", "help", "usage", "psi", "inj-norm", "witness8", "wn-csv", "lkk-export", "proj-norm",
            "mazur-b"])
    def test_cold_call_loads_only_what_it_runs(self, argv, rc, modules, two_block, hadamard, tmp_path):
        # a fresh interpreter imports the CLI and, unless argv is None, runs
        # one call; verify and the kernels the call does not use stay
        # unloaded, and a call that loads no core loads no numpy either
        code = "import sys, scottish_lab.cli\n"
        if argv is not None:
            files = dict(f=two_block, m=hadamard, c=tmp_path / "c.csv")
            argv = [a.format(**files) for a in argv] + ["--out", str(tmp_path / "r.json")]
            code += f"assert scottish_lab.cli.run({argv!r}) == {rc}\n"
        code += "print(' '.join(sorted(m.split('.')[1] for m in sys.modules if m.startswith('scottish_lab.'))))\n"
        code += "print(any(m.split('.')[0] == 'numpy' for m in sys.modules))\n"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                             env=_child_env())
        loaded, numpy = out.stdout.splitlines()[-2:]  # after the --help text
        assert loaded.split() == sorted(modules.split()), out.stderr
        assert "core" in modules.split() or numpy == "False"

    def test_parser_copies_match_their_sources(self):
        # the parser is built without importing verify or dyadic, from copies
        from scottish_lab import cli, dyadic
        assert cli.SUITE_NAMES == tuple(verify.SUITES)
        assert cli.FLAGS["--oversample"]["default"] == dyadic.DEFAULT_OVERSAMPLE

    def test_parser_is_built_once_and_keeps_no_state(self):
        parser = build_parser()
        assert build_parser() is parser
        assert parser.parse_args(["verify", "--override", "a=1"]).override == ["a=1"]
        assert parser.parse_args(["verify"]).override is None
        assert parser.parse_args(["verify", "--override", "b=2"]).override == ["b=2"]
