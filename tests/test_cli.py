import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import zpencil.cli
import zpencil.digraph
import zpencil.eigenstructure
import zpencil.pencil
from zpencil.cli import (
    PencilFormatError,
    _build_parser,
    build_report,
    format_pencil,
    main,
    parse_pencil,
)
from zpencil.eigenstructure import ConstructionFailedError
from zpencil.pencil import Pencil
from zpencil.testkit import GenConfig, gen_pencil

DATA_DIR = Path(__file__).parent / "data"



EX1_TEXT = """\
# comment line
n = 2
A:
1 2
1 0

B:
2 2
1 1
"""


class TestParsePencil:
    def test_text_format(self):
        p = parse_pencil(EX1_TEXT)
        assert np.array_equal(p.A, [[1.0, 2.0], [1.0, 0.0]])
        assert np.array_equal(p.B, [[2.0, 2.0], [1.0, 1.0]])

    def test_one_by_one(self):
        p = parse_pencil("n = 1\nA:\n0\nB:\n1\n")
        assert p.n == 1 and p.B[0, 0] == 1.0

    def test_json_twin(self):
        p = parse_pencil('{"n": 2, "A": [[1, 2], [1, 0]], "B": [[2, 2], [1, 1]]}')
        assert np.array_equal(p.A, [[1.0, 2.0], [1.0, 0.0]])

    def test_row_length_error_names_row(self):
        text = "n = 2\nA:\n1 2 3\n1 0\nB:\n2 2\n1 1\n"
        with pytest.raises(PencilFormatError) as err:
            parse_pencil(text)
        assert "row 1 of A" in str(err.value)
        assert err.value.line == 3

    def test_missing_header(self):
        with pytest.raises(PencilFormatError):
            parse_pencil("A:\n1\n")

    def test_missing_rows(self):
        with pytest.raises(PencilFormatError):
            parse_pencil("n = 2\nA:\n1 2\n")

    def test_json_shape_mismatch(self):
        with pytest.raises(PencilFormatError):
            parse_pencil('{"n": 2, "A": [[1]], "B": [[1]]}')

    @pytest.mark.parametrize("text, message", [
        ("n = 0\nA:\n", "line 1: n must be at least 1"),
        ("n = 1\n1\n", "line 2: expected 'A:' or 'B:' before matrix rows"),
        ("n = 1\nA:\n0\n0\nB:\n1\n", "line 4: too many rows for matrix A"),
        ("n = 1\nA:\nx\nB:\n1\n",
         "line 3: bad number in row: could not convert string to float: 'x'"),
        ("", "empty input: no 'n = <int>' line"),
        ("# a comment, nothing else\n", "empty input: no 'n = <int>' line"),
        ('{"n": 1, "A": [[0]], ',
         "line 1: bad JSON: Expecting property name enclosed in double quotes"),
        ('{"n": 1, "B": [[1]]}', "bad JSON pencil: missing matrix A"),
    ])
    def test_format_error_exits_2_with_its_message(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.pencil"
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_format_roundtrip(self, ex2):
        assert np.array_equal(parse_pencil(format_pencil(ex2)).A, ex2.A)
        assert np.array_equal(parse_pencil(format_pencil(ex2)).B, ex2.B)


class TestCommands:
    def test_thresholds_golden(self, data_dir, capsys):
        assert main(["thresholds", str(data_dir / "ex1.pencil")]) == 0
        out = capsys.readouterr().out
        assert "0.5 (= 1/2)" in out
        assert "0.6666666666666666 (= 2/3)" in out
        assert "-> L_0" in out and "-> L_1" in out and "-> L_2" in out

    def test_classify_golden(self, data_dir, capsys):
        assert main(["classify", str(data_dir / "ex2.pencil"), "--t", "0.5"]) == 0
        assert capsys.readouterr().out.strip() == "L_1"

    def test_classify_rejects_bad_t(self, data_dir, capsys):
        assert main(["classify", str(data_dir / "ex2.pencil"), "--t", "1.5"]) == 2

    def test_eigvecs_json_golden(self, data_dir, capsys):
        assert main(["eigvecs", str(data_dir / "ex2.pencil"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        values = payload[0]["values"]
        assert abs(values[0]) <= 1e-10 and abs(values[2]) <= 1e-10
        assert values[1] > 1e-10 and values[3] > 1e-10
        assert payload[0]["support"] == [2, 4]

    def test_spectrum_json(self, data_dir, capsys):
        assert main(["spectrum", str(data_dir / "ex2.pencil"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rho_ab"] == pytest.approx((4 + math.sqrt(6)) / 10, abs=1e-12)

    def test_validate_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.pencil"
        bad.write_text("n = 2\nA:\n0 1\n0 0\nB:\n0 1\n0 0\n")
        assert main(["validate", str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_analysis_on_invalid_pencil_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.pencil"
        bad.write_text("n = 2\nA:\n0 1\n0 0\nB:\n0 1\n0 0\n")
        assert main(["thresholds", str(bad)]) == 1

    def test_missing_file_exits_2(self, capsys):
        assert main(["validate", "no-such-file.pencil"]) == 2

    def test_non_utf8_file_exits_2_with_one_error_line(self, tmp_path, capsys):
        bad = tmp_path / "latin1.pencil"
        bad.write_bytes("n = 1\nA:\n0\nB:\n1 # \u00e9\n".encode("latin-1"))
        assert main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {bad}: ")
        assert err.count("\n") == 1

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.pencil"
        bad.write_text("n = 2\nA:\n1 2 3\n")
        assert main(["validate", str(bad)]) == 2

    def test_non_finite_text_entry_exits_2_naming_the_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.pencil"
        for entry in ("nan", "1e400", "-inf"):
            bad.write_text(f"n = 2\nA:\n1 2\n1 0\nB:\n2 2\n1 {entry}\n")
            assert main(["report", str(bad)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: line 7: row 2 of B has non-finite entry '{entry}'\n"

    def test_non_finite_json_entry_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for entry in ("NaN", "1e400", "-Infinity"):
            bad.write_text(f'{{"n": 2, "A": [[1, 2], [1, 0]], "B": [[2, 2], [1, {entry}]]}}')
            assert main(["report", str(bad)]) == 2
            err = capsys.readouterr().err
            assert err == "error: bad JSON pencil: B contains non-finite entries\n"

    @pytest.mark.parametrize("payload, name", [
        ('{"n": 1, "A": [[true]], "B": [[2]]}', "A"),
        ('{"n": 2, "A": [[1, 2], [1, 0]], "B": [[2, 2], [1, "1"]]}', "B"),
    ])
    def test_json_entry_must_be_a_json_number(self, tmp_path, capsys, payload, name):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        assert main(["report", str(bad)]) == 2
        assert capsys.readouterr() == (
            "", f"error: bad JSON pencil: {name} has an entry that is not a number\n")

    @pytest.mark.parametrize("n, order", [
        ("2.9", 2), ("true", 1), ('"1"', 1), ("2.0", 2), ("0", 1), ("null", 1),
    ])
    def test_json_order_must_be_an_integer_of_at_least_1(
            self, tmp_path, capsys, n, order):
        # the matrices have the order int() would read, so only n is at fault
        bad = tmp_path / "bad.json"
        A = [[0.0] * order for _ in range(order)]
        B = [[float(i == j) for j in range(order)] for i in range(order)]
        bad.write_text(f'{{"n": {n}, "A": {json.dumps(A)}, "B": {json.dumps(B)}}}')
        assert main(["report", str(bad), "--json"]) == 2
        assert capsys.readouterr() == (
            "", f"error: bad JSON pencil: n must be an integer of at least 1, got {n}\n")

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate", "x"]) == 2

    def test_sweep_csv(self, data_dir, capsys):
        assert main(["sweep", str(data_dir / "ex1.pencil"), "--steps", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,s,m_status"
        assert len(lines) == 6
        assert lines[1].startswith("0.0,0,")
        assert lines[-1].startswith("1.0,2,NonsingularM")

    def test_sweep_rejects_one_step(self, data_dir, capsys):
        assert main(["sweep", str(data_dir / "ex1.pencil"), "--steps", "1"]) == 2

    def test_classes_golden(self, data_dir, capsys):
        assert main(["classes", str(data_dir / "ex2.pencil")]) == 0
        out = capsys.readouterr().out
        assert "C1 = {2,4}  singular distinguished" in out
        assert "C2 = {1,3}  nonsingular" in out

    def test_classes_on_g_a_are_labelled_against_minus_a(self, data_dir, capsys):
        # ex3 has rho_ab = 0 and an acyclic G(A), so its classes are those
        # of G(A), labelled against -A
        assert main(["classes", str(data_dir / "ex3.pencil")]) == 0
        assert capsys.readouterr().out == (
            "classes of G(A) against -A:\n"
            "  C1 = {1}  singular distinguished\n"
            "  C2 = {2}  singular\n")

    def test_graph_union_dot(self, data_dir, capsys):
        assert main(["graph", str(data_dir / "ex3.pencil")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph AB {")
        assert "v1 -> v2;" in out

    def test_graph_reduced_to_file(self, data_dir, tmp_path, capsys):
        target = tmp_path / "r.dot"
        assert main(
            ["graph", str(data_dir / "ex3.pencil"), "--kind", "reduced",
             "--out", str(target)]
        ) == 0
        assert 'C1 [label="C1 = {1}"];' in target.read_text()

    def test_graph_to_missing_directory_exits_2(self, data_dir, tmp_path, capsys):
        target = tmp_path / "missing_dir" / "x.dot"
        assert main(
            ["graph", str(data_dir / "ex3.pencil"), "--out", str(target)]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}: ")
        assert captured.err.count("\n") == 1


class TestReport:
    def test_schema_keys_in_order(self, ex2):
        payload = build_report(ex2)
        assert list(payload.keys()) == [
            "validation", "mu", "rho_ab", "sigma", "tau", "partition",
            "classes", "eigenbasis", "bounds", "tolerances", "version",
        ]
        assert payload["version"]
        assert payload["bounds"] == [{"vertices": [2, 4], "m": 2, "s_upper": 1}]

    def test_json_roundtrip_byte_identical(self, data_dir, capsys):
        assert main(["report", str(data_dir / "ex2.pencil"), "--json"]) == 0
        first = capsys.readouterr().out
        reparsed = json.loads(first)
        assert json.dumps(reparsed, indent=2) + "\n" == first

    def test_report_human(self, data_dir, capsys):
        assert main(["report", str(data_dir / "ex1.pencil")]) == 0
        out = capsys.readouterr().out
        assert "rho_ab = 0.6666666666666666 (= 2/3)" in out
        assert "critical class {1,2} (m = 2): s <= 1" in out

    def test_env_tolerance_override(self, data_dir, capsys, monkeypatch):
        monkeypatch.setenv("ZPENCIL_TOL_REL_SING", "1e-7")
        assert main(["report", str(data_dir / "ex1.pencil"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tolerances"]["rel_sing"] == 1e-7

    def test_env_tolerance_invalid(self, data_dir, capsys, monkeypatch):
        monkeypatch.setenv("ZPENCIL_TOL_REL_SING", "zero")
        assert main(["report", str(data_dir / "ex1.pencil")]) == 2

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "0", "-1e-9"])
    def test_env_tolerance_must_be_positive_and_finite(
            self, data_dir, capsys, monkeypatch, raw):
        monkeypatch.setenv("ZPENCIL_TOL_REL_SING", raw)
        assert main(["report", str(data_dir / "ex2.pencil")]) == 2
        assert capsys.readouterr() == (
            "", f"error: ZPENCIL_TOL_REL_SING={raw!r} must be a positive "
            "finite number\n")

    def test_report_on_invalid_pencil(self, tmp_path, capsys):
        bad = tmp_path / "bad.pencil"
        bad.write_text("n = 2\nA:\n0 1\n0 0\nB:\n0 1\n0 0\n")
        assert main(["report", str(bad), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert list(payload.keys()) == ["validation"]
        assert not payload["validation"]["c3_holds"]


_FLOAT = re.compile(r"(-?\d+\.\d+(?:e[-+]?\d+)?|-?\d+e[-+]?\d+)")


def assert_same_text(got, want):
    """Equal text, except that floats agree within 1e-12 relative plus
    1e-15 absolute."""
    got_parts, want_parts = _FLOAT.split(got), _FLOAT.split(want)
    assert len(got_parts) == len(want_parts), f"{got!r} vs {want!r}"
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        if i % 2:
            assert abs(float(g) - float(w)) <= 1e-12 * abs(float(w)) + 1e-15, (g, w)
        else:
            assert g == w, f"{got!r} vs {want!r}"


class TestViews:
    """Each view of the sample files against ``data/golden/<name>.views.txt``,
    where every ``$ zpencil <command> <options>`` line is followed by the
    output of that command on ``<name>.pencil``."""

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
    def test_views(self, capsys, name):
        text = (DATA_DIR / "golden" / f"{name}.views.txt").read_text(encoding="utf-8")
        blocks = text.split("$ zpencil ")[1:]
        assert len(blocks) == 7
        for block in blocks:
            command, want = block.split("\n", 1)
            argv = command.split()
            assert main([argv[0], str(DATA_DIR / f"{name}.pencil"), *argv[1:]]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            assert_same_text(out, want)

    def test_report_refusal_human(self, tmp_path, capsys):
        bad = tmp_path / "bad.pencil"
        bad.write_text("n = 2\nA:\n0 1\n0 0\nB:\n0 1\n0 0\n")
        assert main(["report", str(bad)]) == 1
        assert capsys.readouterr() == (
            "condition 1 (A >= 0):                ok\n"
            "condition 2 (off-diagonal B <= A):   ok\n"
            "condition 3 (B - A nonsingular M):   FAIL\n"
            "  violation of (3): no positive u with (B - A) u > 0 found; "
            "B - A is not a nonsingular M-matrix\n", "")

    @pytest.mark.parametrize("argv", [
        ["report"], ["report", "--json"], ["classes"], ["eigvecs", "--json"],
    ])
    def test_ambiguity_warning(self, tmp_path, capsys, argv):
        # desk-mix seed 2, input 303: rho_ab = 2.1e-11, within 10 rel_sing
        p = gen_pencil(GenConfig(7, (2, 302), 0.05, 1e-6, 0.1))
        path = tmp_path / "p.pencil"
        path.write_text(format_pencil(p))
        assert main([argv[0], str(path), *argv[1:]]) == 0
        assert capsys.readouterr().err == (
            "warning: rho_ab is within 10x the singularity tolerance of zero; "
            "the digraph choice is ambiguous\n")


class TestGoldenPartitionsAsData:
    """The three example files reproduce the displayed partitions verbatim
    as structured data."""

    EXPECTED = {
        "ex1.pencil": [
            (0.0, 0.5, 0),
            (0.5, 2.0 / 3.0, 1),
            (2.0 / 3.0, 1.0, 2),
        ],
        "ex2.pencil": [
            (0.0, 1.0 / 3.0, 0),
            (1.0 / 3.0, (4.0 + math.sqrt(6.0)) / 10.0, 1),
            ((4.0 + math.sqrt(6.0)) / 10.0, 1.0, 4),
        ],
        "ex3.pencil": [(0.0, 1.0, 2)],
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_partition_matches(self, data_dir, capsys, name):
        assert main(["thresholds", str(data_dir / name), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        got = [(seg["lo"], seg["hi"], seg["s"]) for seg in payload["partition"]]
        expected = self.EXPECTED[name]
        assert len(got) == len(expected)
        for (glo, ghi, gs), (elo, ehi, es) in zip(got, expected):
            assert gs == es
            assert glo == pytest.approx(elo, abs=1e-9)
            assert ghi == pytest.approx(ehi, abs=1e-9)
        closed_flags = [seg["hi_closed"] for seg in payload["partition"]]
        assert closed_flags == [False] * (len(got) - 1) + [True]


class TestOneValidationPerAnalysis:
    """The admission conditions are evaluated once per pencil and policy,
    however many stages check them."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        made = []
        real = zpencil.pencil.ValidationReport

        def counting(*args, **kwargs):
            made.append(args or kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(zpencil.pencil, "ValidationReport", counting)
        return made

    def test_build_report(self, ex2, evaluations):
        build_report(Pencil(A=ex2.A, B=ex2.B))
        assert len(evaluations) == 1

    @pytest.mark.parametrize("argv", [
        ["report", "ex2.pencil", "--json"],
        ["report", "ex2.pencil"],
        ["sweep", "ex1.pencil", "--steps", "11"],
    ])
    def test_cli(self, capsys, evaluations, argv):
        assert main([argv[0], str(DATA_DIR / argv[1]), *argv[2:]]) == 0
        assert len(evaluations) == 1


class TestOneStepPerReport:
    """A report makes one spectral summary and labels the classes at the
    critical value once; the eigenbasis and the warning reuse them."""

    @pytest.fixture
    def steps(self, monkeypatch):
        made = {"summary": 0, "labels": 0}
        real_summary = zpencil.pencil.SpectralSummary
        real_labels = zpencil.eigenstructure.class_labels

        def summary(*args, **kwargs):
            made["summary"] += 1
            return real_summary(*args, **kwargs)

        def labels(*args, **kwargs):
            made["labels"] += 1
            return real_labels(*args, **kwargs)

        monkeypatch.setattr(zpencil.pencil, "SpectralSummary", summary)
        for module in (zpencil.eigenstructure, zpencil.cli):
            if hasattr(module, "class_labels"):
                monkeypatch.setattr(module, "class_labels", labels)
        return made

    def test_build_report(self, ex2, steps):
        build_report(ex2)
        assert steps == {"summary": 1, "labels": 1}

    @pytest.mark.parametrize("argv", [["report", "--json"], ["report"]])
    def test_cli(self, capsys, steps, argv):
        assert main([argv[0], str(DATA_DIR / "ex2.pencil"), *argv[1:]]) == 0
        assert steps == {"summary": 1, "labels": 1}

    def test_sweep_makes_one_summary_for_all_steps(self, capsys, steps):
        assert main(["sweep", str(DATA_DIR / "ex2.pencil"), "--steps", "11"]) == 0
        assert steps == {"summary": 1, "labels": 0}

    @pytest.mark.parametrize("name, gamma", [("ex2", "union"), ("ex3", "a")])
    def test_one_union_digraph(self, request, monkeypatch, name, gamma):
        # critical_classes builds the union once on both branches.  ex2
        # reads the union classes off its labels; ex3 (rho_ab = 0) labels
        # G(A), so the union is partitioned once more for the bounds.
        made = dict.fromkeys(("union", "digraph_of", "classes"), 0)

        def counting(fn, real):
            def call(*args, **kwargs):
                made[fn] += 1
                return real(*args, **kwargs)
            return call

        for fn in made:
            wrapped = counting(fn, getattr(zpencil.digraph, fn))
            for module in (zpencil.digraph, zpencil.eigenstructure, zpencil.cli):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, wrapped)
        p = request.getfixturevalue(name)
        assert zpencil.eigenstructure.critical_classes(
            p, zpencil.pencil.spectral_summary(p)).name == gamma
        made.update(dict.fromkeys(made, 0))
        build_report(p)
        partitions = 1 if gamma == "union" else 2
        assert made == {"union": 1, "digraph_of": 2, "classes": partitions}


class TestLibraryErrors:
    """Errors the library raises on admitted pencils end in one
    ``error:`` line on stderr and a documented exit code."""

    @pytest.fixture
    def order17(self, tmp_path):
        path = tmp_path / "order17.pencil"
        path.write_text(format_pencil(Pencil(A=np.zeros((17, 17)), B=np.eye(17))))
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["report"], ["report", "--json"], ["thresholds"], ["thresholds", "--json"],
        ["sweep", "--steps", "3"], ["classify", "--t", "0.5"],
    ])
    def test_order_above_the_enumeration_guard_exits_2(self, order17, capsys, argv):
        assert main([argv[0], order17, *argv[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: order 17 exceeds the enumeration guard 16")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["report", "thresholds"])
    def test_guard_message_offers_nothing_the_cli_cannot_do(
            self, order17, capsys, command):
        assert main([command, order17]) == 2
        err = capsys.readouterr().err
        assert "max_order" not in err
        assert "2^17 - 1 index sets" in err

    @pytest.mark.parametrize("argv", [
        ["report"], ["report", "--json"], ["eigvecs"], ["eigvecs", "--json"],
    ])
    def test_construction_failure_exits_3(self, monkeypatch, capsys, argv):
        def fail(*args, **kwargs):
            raise ConstructionFailedError("kernel lost")

        monkeypatch.setattr(zpencil.cli, "pencil_eigenbasis", fail)
        assert main([argv[0], str(DATA_DIR / "ex2.pencil"), *argv[1:]]) == 3
        assert capsys.readouterr() == ("", "error: kernel lost\n")


class TestParser:
    def test_built_once_and_reused_without_leaking_options(self, capsys):
        parser = _build_parser()
        ex3 = str(DATA_DIR / "ex3.pencil")
        assert main(["graph", ex3]) == 0
        union = capsys.readouterr().out
        assert main(["graph", ex3, "--kind", "a"]) == 0
        assert capsys.readouterr().out != union
        assert main(["graph", ex3]) == 0
        assert capsys.readouterr().out == union
        assert _build_parser() is parser


def assert_matches_golden(got, want, path="$"):
    """Same key order, types, ints, bools, strings and list lengths;
    floats within 1e-12 relative plus 1e-15 absolute."""
    assert type(got) is type(want), f"{path}: {got!r} vs {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{path}: keys {list(got)} vs {list(want)}"
        for key in want:
            assert_matches_golden(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} vs {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches_golden(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12 * abs(want) + 1e-15, f"{path}: {got!r} vs {want!r}"
    else:
        assert got == want, f"{path}: {got!r} vs {want!r}"


class TestReportGoldens:
    """``report --json`` on every sample file against its checked-in
    output in ``data/golden``.  A golden changes only with a deliberate,
    documented change to the report."""

    @pytest.mark.parametrize("name", sorted(f.stem for f in DATA_DIR.glob("*.pencil")))
    def test_report_json(self, capsys, name):
        assert main(["report", str(DATA_DIR / f"{name}.pencil"), "--json"]) == 0
        got = json.loads(capsys.readouterr().out)
        golden = DATA_DIR / "golden" / f"{name}.report.json"
        assert_matches_golden(got, json.loads(golden.read_text(encoding="utf-8")))

    def test_comparison_catches_drift(self):
        want = json.loads((DATA_DIR / "golden" / "ex2.report.json").read_text())
        for mutate in (
            lambda d: d["sigma"].__setitem__(0, d["sigma"][0] * (1 + 1e-11)),
            lambda d: d["partition"][0].__setitem__("s", 1),
            lambda d: d["classes"][0].__setitem__("singular", 1),
            lambda d: d["eigenbasis"].pop(),
            lambda d: d.update(validation=d.pop("validation")),
        ):
            got = json.loads(json.dumps(want))
            mutate(got)
            with pytest.raises(AssertionError):
                assert_matches_golden(got, want)
        assert_matches_golden(json.loads(json.dumps(want)), want)
