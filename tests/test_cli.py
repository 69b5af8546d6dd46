import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from conftest import SRC, EXPR_FUZZ_PIECES, add_wrong_for_ranks, run_cli_capped
from hypothesis import strategies as st

from kfour import cli, oracle_reduced_group, parse_ring, reduced_k_structure
from kfour.cohomology import MAX_COORDINATES
from kfour import oracle as oracle_module
from kfour import structure as structure_module
from kfour.abelian import IntMatrix
from kfour.kclasses import KClass

RP4_SOURCE = "H2 free 0 torsion 2\nH4 free 0 torsion 2\ncup 1 1 = 1\n"
CP2_SOURCE = "H2 free 1 torsion\nH4 free 1 torsion\ncup 1 1 = 1\n"
Z4_SOURCE = "H2 free 0 torsion 4\nH4 free 0 torsion 4\ncup 1 1 = 1\n"
Z4_Z4_SOURCE = (
    "H2 free 0 torsion 4 4\nH4 free 0 torsion 4 4\n"
    "cup 1 1 = 1 0\ncup 1 2 = 0 1\ncup 2 2 = 1 1\n"
)

# Full stdout of `kfour verify`, pinned byte for byte.
RP4_VERIFY = """\
defining relations:
  name   checked  failures
  1         1         0
  2         4         0
  3         2         0
  4         4         0
  5         4         0
  6         4         0
  7         4         0
formal-generator oracle:
  engine structure: Z/4
  oracle structure: Z/4
  structures: match
result: OK
"""

RP4_VERIFY_JSON = """\
{
  "relations": [
    {
      "name": "1",
      "description": "trivial bundles have ranks 1 and 2",
      "instances": 1,
      "failures": 0,
      "counterexamples": []
    },
    {
      "name": "2",
      "description": "product of line classes adds first Chern classes",
      "instances": 4,
      "failures": 0,
      "counterexamples": []
    },
    {
      "name": "3",
      "description": "a line class plus its conjugate is a rank-2 class",
      "instances": 2,
      "failures": 0,
      "counterexamples": []
    },
    {
      "name": "4",
      "description": "sum of rank-2 classes",
      "instances": 4,
      "failures": 0,
      "counterexamples": []
    },
    {
      "name": "5",
      "description": "product of rank-2 classes",
      "instances": 4,
      "failures": 0,
      "counterexamples": []
    },
    {
      "name": "6",
      "description": "line class times rank-2 class",
      "instances": 4,
      "failures": 0,
      "counterexamples": []
    },
    {
      "name": "7",
      "description": "sum of line classes",
      "instances": 4,
      "failures": 0,
      "counterexamples": []
    }
  ],
  "axioms": null,
  "oracle": {
    "engine_structure": {
      "free_rank": 0,
      "invariant_factors": [
        4
      ]
    },
    "oracle_structure": {
      "free_rank": 0,
      "invariant_factors": [
        4
      ]
    },
    "structures_match": true,
    "generator_images_ok": true,
    "additive_failures": 0,
    "multiplicative_failures": 0
  },
  "ok": true
}
"""

Z4_VERIFY = """\
defining relations:
  name   checked  failures
  1         1         0
  2        16         0
  3         4         0
  4        16         0
  5        16         0
  6        16         0
  7        16         0
formal-generator oracle:
  engine structure: Z/2 ⊕ Z/8
  oracle structure: Z/2 ⊕ Z/8
  structures: match
result: OK
"""

Z4_VERIFY_JSON = """\
{
  "relations": [
    {
      "name": "1",
      "description": "trivial bundles have ranks 1 and 2",
      "instances": 1,
      "failures": 0,
      "counterexamples": []
    },
    {
      "name": "2",
      "description": "product of line classes adds first Chern classes",
      "instances": 16,
      "failures": 0,
      "counterexamples": []
    },
    {
      "name": "3",
      "description": "a line class plus its conjugate is a rank-2 class",
      "instances": 4,
      "failures": 0,
      "counterexamples": []
    },
    {
      "name": "4",
      "description": "sum of rank-2 classes",
      "instances": 16,
      "failures": 0,
      "counterexamples": []
    },
    {
      "name": "5",
      "description": "product of rank-2 classes",
      "instances": 16,
      "failures": 0,
      "counterexamples": []
    },
    {
      "name": "6",
      "description": "line class times rank-2 class",
      "instances": 16,
      "failures": 0,
      "counterexamples": []
    },
    {
      "name": "7",
      "description": "sum of line classes",
      "instances": 16,
      "failures": 0,
      "counterexamples": []
    }
  ],
  "axioms": null,
  "oracle": {
    "engine_structure": {
      "free_rank": 0,
      "invariant_factors": [
        2,
        8
      ]
    },
    "oracle_structure": {
      "free_rank": 0,
      "invariant_factors": [
        2,
        8
      ]
    },
    "structures_match": true,
    "generator_images_ok": true,
    "additive_failures": 0,
    "multiplicative_failures": 0
  },
  "ok": true
}
"""

RP4_VERIFY_BROKEN_MUL = """\
defining relations:
  name   checked  failures
  1         1         0
  2         4         2
    counterexample: [x=(0,), x2=(1,)] lhs=(1, [0], [0]) rhs=(1, [1], [0])
    counterexample: [x=(1,), x2=(1,)] lhs=(1, [1], [0]) rhs=(1, [0], [0])
  3         2         0
  4         4         0
  5         4         2
    counterexample: [y=(1,), y2=(0,)] lhs=(4, [0], [1]) rhs=(4, [0], [0])
    counterexample: [y=(1,), y2=(1,)] lhs=(4, [0], [1]) rhs=(4, [0], [0])
  6         4         3
    counterexample: [x=(0,), y=(1,)] lhs=(2, [0], [0]) rhs=(2, [0], [1])
    counterexample: [x=(1,), y=(0,)] lhs=(2, [1], [0]) rhs=(2, [0], [1])
    counterexample: [x=(1,), y=(1,)] lhs=(2, [1], [0]) rhs=(2, [0], [0])
  7         4         0
formal-generator oracle:
  engine structure: Z/4
  oracle structure: Z/4
  structures: match
result: FAILED
"""


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

    def test_solves_the_presentation_once(self, capsys, monkeypatch, rp4_file):
        calls = []
        real = structure_module._solve_relations

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(structure_module, "_solve_relations", counted)
        assert run(capsys, "structure", rp4_file)[0] == 0
        assert len(calls) == 1

    def test_thousand_order_two_generators(self, capsys, tmp_path):
        # a nearly diagonal presentation on 1001 generators: an elimination
        # that scans the whole trailing submatrix at every step never ends
        path = tmp_path / "z2_1000.ring"
        path.write_text(
            "H2 free 0 torsion " + " ".join(["2"] * 1000) + "\nH4 free 0 torsion 2\ncup 1 1 = 1\n"
        )
        start = time.process_time()
        code, out, _ = run(capsys, "structure", str(path))
        assert time.process_time() - start < 5
        assert code == 0
        assert out.endswith("; reduced = " + " ⊕ ".join(["Z/2"] * 999 + ["Z/4"]) + "\n")

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_invariant_factor_past_digit_limit_is_refused(self, capsys, tmp_path, flags):
        # N has 4300 digits and parses; the reduced group Z/(N/2) + Z/2N
        # has a 4301-digit factor, which str() refuses
        n = 6 * 10**4299
        path = tmp_path / "huge_torsion.ring"
        path.write_text(f"H2 free 0 torsion {n}\nH4 free 0 torsion {n}\ncup 1 1 = 1\n")
        assert run(capsys, "structure", str(path), *flags) == (
            1,
            "",
            "kfour: error: an invariant factor of the K-group has over "
            f"{sys.get_int_max_str_digits()} digits, the limit for printing integers\n",
        )


class TestEval:
    def test_vanishing_square_combination(self, capsys, rp4_file):
        code, out, _ = run(capsys, "eval", rp4_file, "(L([1])-1)^2 + 2*(L([1])-1)")
        assert code == 0
        assert out == "(0, [0], [0]) = -3·1 + [L_0] + [V_0]\n"

    def test_line_class(self, capsys, rp4_file):
        code, out, _ = run(capsys, "eval", rp4_file, "L([1])")
        assert code == 0
        assert out == "(1, [1], [0]) = -2·1 + [L_1] + [V_0]\n"

    def test_two_generator_element_prints_as_a_tuple(self, capsys, tmp_path):
        path = tmp_path / "mixed.ring"
        path.write_text("H2 free 1 torsion 2\nH4 free 1 torsion\ncup 1 1 = 1\n")
        code, out, err = run(capsys, "eval", str(path), "L([3,1])")
        assert (code, err) == (0, "")
        assert out == "(1, [3, 1], [0]) = -2·1 + [L_(3,1)] + [V_0]\n"

    def test_power_prints_as_its_product(self, capsys, cp2_file):
        # c2 of L(x)^2 cancels to 0; only its c1 = 2x, with 2201 digits, is large
        x = "1" + "0" * 2200
        power = run(capsys, "eval", cp2_file, f"L([{x}])^2")
        product = run(capsys, "eval", cp2_file, f"L([{x}]) * L([{x}])")
        assert power == product
        assert power[0] == 0 and power[1].startswith("(1, [2" + "0" * 2200 + "], [0])")

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

    def test_unprintable_decomposition_exits_2(self, capsys, rp4_file):
        # the rank has 4300 digits, the printed n = rank - 3 would have 4301
        code, out, err = run(capsys, "eval", rp4_file, "-" + "9" * 4300)
        assert (code, out) == (2, "")
        assert err.startswith("kfour: line 1, column 1: result has a coordinate over")

    def test_decomposition_at_digit_limit_prints(self, capsys, rp4_file):
        # n = -(10^4299 + 2) has 4300 digits, the most that print
        code, out, _ = run(capsys, "eval", rp4_file, "-" + "9" * 4299)
        assert code == 0
        assert out.startswith("(-" + "9" * 4299 + ", [0], [0]) = -1" + "0" * 4298 + "2·1")


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
@given(ring=st.integers(0, 1),
       text=st.lists(st.sampled_from(EXPR_FUZZ_PIECES), max_size=40).map("".join))
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

    def test_axioms_sampled_on_infinite_ring(self, capsys, cp2_file, monkeypatch):
        calls = []
        verify_ring_axioms = cli.verify_ring_axioms

        def spy(ring, **kwargs):
            calls.append(kwargs)
            return verify_ring_axioms(ring, **kwargs)

        monkeypatch.setattr(cli, "verify_ring_axioms", spy)
        code, out, _ = run(capsys, "verify", cp2_file, "--axioms", "--bound", "3")
        assert code == 0
        assert calls == [{"samples": 1000, "bound": 3}]
        axioms = out.split("ring axioms:\n")[1].split("result:")[0].splitlines()
        assert axioms[0].split() == ["name", "checked", "failures"]
        assert [line.split()[1:] for line in axioms[1:]] == [["1000", "0"]] * 8
        assert out.endswith("result: OK\n")

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

    def test_relations_evaluated_once(self, capsys, rp4_file, monkeypatch):
        calls = [0]
        real = oracle_module.k_mul

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(oracle_module, "k_mul", counted)
        code, _, _ = run(capsys, "verify", rp4_file)
        assert code == 0
        # relations 2, 5 and 6 take one product per instance, 4 instances each
        # on RP^4; evaluating them again for the oracle would make 24
        assert calls[0] == 12

    def test_failure_exits_3(self, capsys, rp4_file, monkeypatch):
        def broken_mul(ring, a, b):
            return KClass(ring, a.rank * b.rank, a.c1, a.c2)

        monkeypatch.setattr(oracle_module, "k_mul", broken_mul)
        code, out, _ = run(capsys, "verify", rp4_file)
        assert code == 3
        assert "result: FAILED" in out
        assert "counterexample" in out
        # the counterexample lines also pin which side is evaluated as lhs
        assert out == RP4_VERIFY_BROKEN_MUL

    def test_onto_failure_exits_3(self, capsys, rp4_file, monkeypatch):
        # every relation holds, but one rank-0 class is missed by the sums
        monkeypatch.setattr(
            oracle_module, "k_add", add_wrong_for_ranks(oracle_module.k_add, (-2, 2))
        )
        code, out, _ = run(capsys, "verify", rp4_file)
        assert code == 3
        assert out == RP4_VERIFY.replace("result: OK", "result: FAILED")
        code, out, _ = run(capsys, "verify", rp4_file, "--json")
        assert code == 3
        payload = json.loads(out)
        assert payload["oracle"]["generator_images_ok"] is False
        assert payload["ok"] is False
        assert all(check["failures"] == 0 for check in payload["relations"])

    @pytest.mark.parametrize("source, args, expected", [
        (RP4_SOURCE, [], RP4_VERIFY),
        (RP4_SOURCE, ["--json"], RP4_VERIFY_JSON),
        (Z4_SOURCE, [], Z4_VERIFY),
        (Z4_SOURCE, ["--json"], Z4_VERIFY_JSON),
    ])
    def test_golden_output(self, capsys, tmp_path, source, args, expected):
        path = tmp_path / "ring.ring"
        path.write_text(source)
        assert run(capsys, "verify", str(path), *args) == (0, expected, "")

    def test_no_dense_matrix(self, capsys, monkeypatch, rp4_file):
        # every presentation reaches the solver as sparse rows
        built = []
        post_init = IntMatrix.__post_init__

        def counted(m):
            built.append(m)
            post_init(m)

        monkeypatch.setattr(IntMatrix, "__post_init__", counted)
        ring = parse_ring(RP4_SOURCE)
        assert reduced_k_structure(ring) == oracle_reduced_group(ring)
        assert run(capsys, "verify", rp4_file)[0] == 0
        assert built == []
        IntMatrix.identity(1)
        assert len(built) == 1


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

    def test_limit_zero_is_usage_error(self, capsys, rp4_file):
        code, out, err = run(capsys, "table", rp4_file, "--limit", "0")
        assert (code, out) == (1, "")
        assert err == "kfour: error: --limit must be >= 1\n"

    def test_infinite_rejected(self, capsys, cp2_file):
        code, _, err = run(capsys, "table", cp2_file)
        assert code == 1
        assert "finite" in err

    def test_limit_checked_before_listing_classes(self, capsys, tmp_path):
        path = tmp_path / "big.ring"
        path.write_text("H2 free 0 torsion 1000 1000 1000\nH4 free 0 torsion 1000 1000\n")
        code, _, err = run(capsys, "table", str(path))
        assert code == 1
        assert err.startswith("kfour: error: 2000000000000000 classes exceed")


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


_RING_INT = st.integers(0, 12).map(str)  # larger ones make structure slow
_RING_TOKEN = _RING_INT | st.sampled_from(
    ["format", "H2", "H4", "free", "torsion", "cup", "=", "#", "-", ",", "x", "1.5", "²"]
)
_GROUP_LINE = st.builds(
    "{} free {} torsion {}".format,
    st.sampled_from(["H2", "H4"]),
    _RING_INT,
    st.lists(_RING_INT, max_size=3).map(" ".join),
)
_RING_LINE = st.one_of(
    st.lists(_RING_TOKEN, max_size=8).map(" ".join),
    _GROUP_LINE,
    st.builds(
        "cup {} {} = {}".format,
        _RING_INT,
        _RING_INT,
        st.lists(_RING_INT, max_size=3).map(" ".join),
    ),
    st.sampled_from(["", "format 1", "# comment"]),
)
# group declarations first, so that a fair share of inputs parse
_RING_TEXT = st.builds(
    lambda head, body: "\n".join(head + body),
    st.lists(_GROUP_LINE, max_size=2),
    st.lists(_RING_LINE, max_size=4),
)


@pytest.fixture(scope="module")
def fuzz_ring_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.ring"


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(["structure", "fmt", "table"]),
    source=_RING_TEXT.map(str.encode) | st.binary(max_size=64),
)
def test_ring_file_fuzz_ends_with_an_exit_code(fuzz_ring_path, command, source):
    # any ring file, as keyword text or as raw bytes, ends in a result or a
    # diagnostic, never a traceback; verify is left out, since a large
    # finite ring is unbounded work there
    fuzz_ring_path.write_bytes(source)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, str(fuzz_ring_path)])
    assert code in {0, 1, 2, 3}


# Rings that declare 10^11 generators: every command here must cost what the
# entries cost, not what the declared rank would, so they run capped at 1 GiB.
HUGE_TWISTED = (
    "H2 free 100000000000 torsion 2\n"
    "H4 free 0 torsion 2\n"
    "cup 100000000001 100000000001 = 1\n"
)
HUGE_FREE = "H2 free 100000000000 torsion\nH4 free 100000000000 torsion\n"


@pytest.mark.parametrize(
    "source, command, expected",
    [
        (HUGE_TWISTED, "structure",
         "K0 = Z^100000000001 ⊕ Z/4; reduced = Z^100000000000 ⊕ Z/4\n"),
        (HUGE_TWISTED, "fmt", "format 1\n" + HUGE_TWISTED),
        (HUGE_FREE, "structure", "K0 = Z^200000000001; reduced = Z^200000000000\n"),
        (HUGE_FREE, "fmt", "format 1\n" + HUGE_FREE),
    ],
    ids=["twisted-structure", "twisted-fmt", "free-structure", "free-fmt"],
)
def test_huge_declared_rank_costs_its_entries(source, command, expected):
    result = run_cli_capped(command, "-", stdin=source, timeout=5)
    assert (result.returncode, result.stderr, result.stdout) == (0, "", expected)


@pytest.mark.parametrize("source, coordinates", [(HUGE_TWISTED, 100000000002),
                                                 (HUGE_FREE, 200000000000)],
                         ids=["twisted", "free"])
@pytest.mark.parametrize("argv", [("eval", "1"), ("eval", "V([0])"), ("verify",),
                                  ("verify", "--axioms"), ("table",)],
                         ids=["eval-1", "eval-V", "verify", "verify-axioms", "table"])
def test_huge_declared_rank_refused_where_classes_are_built(source, coordinates, argv):
    # a class would have one coordinate per generator, so these commands stop
    # at the coordinate limit before anything of the declared length exists
    result = run_cli_capped(argv[0], "-", *argv[1:], stdin=source, timeout=5)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == (
        f"kfour: error: a class over this ring has {coordinates} coordinates; "
        f"the limit is {MAX_COORDINATES}\n"
    )


def test_huge_power_without_digit_limit_exits_2():
    # with the digit limit off, the rank is still bounded up front, at the
    # interpreter's default limit
    start = time.perf_counter()
    result = run_cli_capped(
        "eval", "-", "3^100000000", stdin=CP2_SOURCE, timeout=5,
        env={"PYTHONINTMAXSTRDIGITS": "0"},
    )
    assert time.perf_counter() - start < 1
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        "kfour: line 1, column 3: power too large: a coordinate would pass "
        f"{sys.int_info.default_max_str_digits} digits\n"
    )


def test_huge_product_without_digit_limit_exits_2():
    # with the digit limit off, every result is held to the interpreter's
    # default limit, so the first product of two 4295-digit ranks is refused
    start = time.perf_counter()
    result = run_cli_capped(
        "eval", "-", "*".join(["3^9000"] * 200), stdin=CP2_SOURCE, timeout=5,
        env={"PYTHONINTMAXSTRDIGITS": "0"},
    )
    assert time.perf_counter() - start < 1
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        "kfour: line 1, column 7: result has a coordinate over "
        f"{sys.int_info.default_max_str_digits} digits\n"
    )


def test_long_literal_without_digit_limit_exits_2():
    # with the digit limit off, a bare literal is held to the default limit
    # as every result is, and worded as the default limit words it
    limit = sys.int_info.default_max_str_digits
    result = run_cli_capped(
        "eval", "-", "7" * (limit + 1), stdin=CP2_SOURCE, timeout=5,
        env={"PYTHONINTMAXSTRDIGITS": "0"},
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        f"kfour: line 1, column 1: integer literal too long ({limit + 1} digits; "
        f"the limit is {limit})\n"
    )


def test_interrupt_exits_130_without_traceback(tmp_path):
    # the exhaustive axiom grind on this ring runs far past the second the
    # child gets before its SIGINT
    ring = tmp_path / "z4_z4.ring"
    ring.write_text(Z4_Z4_SOURCE)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))
    child = subprocess.Popen(
        [sys.executable, "-m", "kfour.cli", "verify", str(ring), "--axioms"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    time.sleep(1)
    child.send_signal(signal.SIGINT)
    out, err = child.communicate(timeout=10)
    assert (child.returncode, out, err) == (130, "", "kfour: interrupted\n")


def test_cli_import_leaves_out_dataclasses_inspect_and_json():
    # -S keeps site hooks out; -E keeps PYTHONPATH out, so src goes in by hand
    probe = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import kfour.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'json', 'kfour.oracle')"
        " if m in sys.modules))"
    )
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-E", "-S", "-c", probe], capture_output=True, text=True, timeout=5
    )
    assert time.perf_counter() - start < 1
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "['kfour.oracle']\n"
