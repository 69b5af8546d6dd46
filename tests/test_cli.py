import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfour import cli
from kfour import oracle as oracle_module
from kfour.kclasses import KClass

RP4_SOURCE = "H2 free 0 torsion 2\nH4 free 0 torsion 2\ncup 1 1 = 1\n"
CP2_SOURCE = "H2 free 1 torsion\nH4 free 1 torsion\ncup 1 1 = 1\n"


@pytest.fixture
def rp4_file(tmp_path):
    path = tmp_path / "rp4.ring"
    path.write_text(RP4_SOURCE)
    return str(path)


@pytest.fixture
def cp2_file(tmp_path):
    path = tmp_path / "cp2.ring"
    path.write_text(CP2_SOURCE)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStructure:
    def test_rp4(self, capsys, rp4_file):
        code, out, err = run(capsys, "structure", rp4_file)
        assert code == 0
        assert out == "K0 = Z ⊕ Z/4; reduced = Z/4\n"
        assert err == ""

    def test_json(self, capsys, rp4_file):
        code, out, _ = run(capsys, "structure", rp4_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["full"] == {"free_rank": 1, "invariant_factors": [4]}
        assert payload["reduced"] == {"free_rank": 0, "invariant_factors": [4]}

    def test_deterministic(self, capsys, cp2_file):
        first = run(capsys, "structure", cp2_file)
        second = run(capsys, "structure", cp2_file)
        assert first == second
        assert first[1] == "K0 = Z^3; reduced = Z^2\n"

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(RP4_SOURCE))
        code, out, _ = run(capsys, "structure", "-")
        assert code == 0
        assert "Z/4" in out


class TestEval:
    def test_vanishing_square_combination(self, capsys, rp4_file):
        code, out, _ = run(capsys, "eval", rp4_file, "(L([1])-1)^2 + 2*(L([1])-1)")
        assert code == 0
        assert out == "(0, [0], [0]) = -3·1 + [L_0] + [V_0]\n"

    def test_line_class(self, capsys, rp4_file):
        code, out, _ = run(capsys, "eval", rp4_file, "L([1])")
        assert code == 0
        assert out == "(1, [1], [0]) = -2·1 + [L_1] + [V_0]\n"

    def test_json(self, capsys, rp4_file):
        code, out, _ = run(capsys, "eval", rp4_file, "V([1])", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["class"] == {"rank": 2, "c1": [0], "c2": [1]}
        assert payload["decomposition"] == {"n": -1, "x": [0], "y": [1]}

    def test_expression_error_exits_2(self, capsys, rp4_file):
        code, out, err = run(capsys, "eval", rp4_file, "L([1,2])")
        assert code == 2
        assert out == ""
        assert "line 1" in err

    def test_deep_nesting_exits_2(self, capsys, rp4_file):
        text = "(" * 3000 + "L([1])" + ")" * 3000
        code, out, err = run(capsys, "eval", rp4_file, text)
        assert (code, out) == (2, "")
        assert err == "kfour: line 1, column 101: parentheses nested deeper than 100\n"

    def test_huge_power_exits_2(self, capsys, rp4_file):
        code, out, err = run(capsys, "eval", rp4_file, "V([0])^100000000")
        assert (code, out) == (2, "")
        assert err.startswith("kfour: line 1, column 8: power too large")


@pytest.fixture(scope="module")
def ring_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("rings")
    paths = []
    for name, source in (("rp4", RP4_SOURCE), ("cp2", CP2_SOURCE)):
        path = root / f"{name}.ring"
        path.write_text(source)
        paths.append(str(path))
    return paths


@settings(max_examples=300, deadline=None)
@given(ring=st.integers(0, 1), text=st.text(alphabet="0123456789LV()[],+-*^ ",
                                            max_size=40))
def test_eval_fuzz_ends_with_an_exit_code(ring_files, ring, text):
    # any expression text ends in a result or a diagnostic, never a traceback
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["eval", ring_files[ring], text])
    assert code in {0, 1, 2, 3}


class TestVerify:
    def test_rp4_passes(self, capsys, rp4_file):
        code, out, _ = run(capsys, "verify", rp4_file)
        assert code == 0
        assert "result: OK" in out
        assert "structures: match" in out

    def test_infinite_ring_with_bound(self, capsys, cp2_file):
        code, out, _ = run(capsys, "verify", cp2_file, "--bound", "2")
        assert code == 0
        assert "oracle" not in out  # no formal-generator oracle on infinite rings

    def test_axioms_flag(self, capsys, rp4_file):
        code, out, _ = run(capsys, "verify", rp4_file, "--axioms")
        assert code == 0
        assert "mul_associative" in out

    def test_json(self, capsys, rp4_file):
        code, out, _ = run(capsys, "verify", rp4_file, "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["ok"] is True
        assert payload["oracle"]["structures_match"] is True
        assert len(payload["relations"]) == 7

    def test_bad_bound_is_usage_error(self, capsys, rp4_file):
        code, _, err = run(capsys, "verify", rp4_file, "--bound", "0")
        assert code == 1
        assert "bound" in err

    def test_failure_exits_3(self, capsys, rp4_file, monkeypatch):
        def broken_mul(ring, a, b):
            return KClass(ring, a.rank * b.rank, a.c1, a.c2)

        monkeypatch.setattr(oracle_module, "k_mul", broken_mul)
        code, out, _ = run(capsys, "verify", rp4_file)
        assert code == 3
        assert "result: FAILED" in out
        assert "counterexample" in out


class TestTable:
    def test_rp4_table(self, capsys, rp4_file):
        code, out, _ = run(capsys, "table", rp4_file)
        assert code == 0
        assert "classes (rank 0 and rank 1):" in out
        assert "addition:" in out
        assert "multiplication:" in out
        # two ranks x 2 x 2 coordinates
        assert out.count("#7 =") == 1

    def test_json_cells(self, capsys, rp4_file):
        code, out, _ = run(capsys, "table", rp4_file, "--json")
        payload = json.loads(out)
        assert code == 0
        assert len(payload["classes"]) == 8
        assert len(payload["add"]) == 8
        # rank-1 + rank-1 leaves the tabulated set, so cells fall back to triples
        assert any("(" in cell for row in payload["add"] for cell in row)

    def test_limit(self, capsys, rp4_file):
        code, _, err = run(capsys, "table", rp4_file, "--limit", "4")
        assert code == 1
        assert "--limit" in err

    def test_infinite_rejected(self, capsys, cp2_file):
        code, _, err = run(capsys, "table", cp2_file)
        assert code == 1
        assert "finite" in err


class TestFmt:
    def test_canonicalizes(self, capsys, tmp_path):
        path = tmp_path / "messy.ring"
        path.write_text("# hi\nH4 free 0   torsion 2\nH2 free 0 torsion 2\ncup 1 1 = 3\n")
        code, out, _ = run(capsys, "fmt", str(path))
        assert code == 0
        assert out == "format 1\nH2 free 0 torsion 2\nH4 free 0 torsion 2\ncup 1 1 = 1\n"

    def test_json(self, capsys, rp4_file):
        code, out, _ = run(capsys, "fmt", rp4_file, "--json")
        assert code == 0
        assert json.loads(out)["text"].startswith("format 1\n")


class TestExitCodes:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert err != ""

    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "structure", "/nonexistent/path.ring")
        assert code == 1

    def test_parse_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.ring"
        path.write_text("H2 free 0 torsion 1\nH4 free 0 torsion\n")
        code, _, err = run(capsys, "structure", str(path))
        assert code == 2
        assert "line 1" in err

    def test_undecodable_file_exits_2(self, monkeypatch, tmp_path):
        path = tmp_path / "bytes.ring"
        path.write_bytes(b"H2 free 0 torsion 2\nH4 free 0 torsion \xff\n")
        # the byte reaches the message as a lone surrogate, which a real
        # stderr escapes and the capture stream could not encode
        err = io.StringIO()
        monkeypatch.setattr("sys.stderr", err)
        assert cli.main(["structure", str(path)]) == 2
        assert err.getvalue() == (
            "kfour: line 2, column 19: expected torsion order, got '\udcff'\n"
        )

    def test_validation_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "invalid.ring"
        path.write_text("H2 free 0 torsion 2\nH4 free 1 torsion\ncup 1 1 = 1\n")
        code, _, err = run(capsys, "structure", str(path))
        assert code == 2
        assert "order 2" in err
