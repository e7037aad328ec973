"""CLI behavior: parsing, subcommands, exit codes, JSON schema stability."""

import io
import json
import math
import os
import pathlib
import random
import re
import sys
from fractions import Fraction

import jsonschema
import pytest

from gelab.cli import main
from gelab.graphs import Distribution, cycle_graph
from gelab.io import (
    _records,
    format_graph,
    parse_distribution,
    parse_graph,
)
from gelab.errors import ParseError
from helpers import triangle_union

SCHEMA = json.loads(
    (pathlib.Path(__file__).parent.parent / "docs" / "cli-json-schema.json").read_text()
)


def check_schema(payload: dict, name: str) -> None:
    jsonschema.validate(payload, {"$defs": SCHEMA["$defs"], "$ref": f"#/$defs/{name}"})


C5 = "0 1\n1 2\n2 3\n3 4\n4 0\n"
P3 = "0 1\n1 2\n"
K2 = "n 2\n0 1\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestGraphParsing:
    def test_edge_list_with_comments(self):
        g = parse_graph("# a comment\n0 1 # trailing\n\n1 2\n")
        assert g == parse_graph(P3)

    def test_header_fixes_vertex_count(self):
        g = parse_graph("n 4\n0 1\n")
        assert g.n == 4

    def test_dimacs(self):
        g = parse_graph("c comment\np edge 3 2\ne 1 2\ne 2 3\n")
        assert g == parse_graph(P3)

    def test_dimacs_autodetect(self):
        assert parse_graph("p edge 2 1\ne 1 2\n").n == 2

    def test_round_trip(self):
        g = cycle_graph(5)
        assert parse_graph(format_graph(g, ["comment"])) == g

    def test_bad_lines(self):
        for text in ("0\n", "0 x\n", "0 0\n", "p edge\n"):
            with pytest.raises(ParseError):
                parse_graph(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n 3\n0 1\nn 6\n", "line 3: second vertex-count header"),
            ("# c\nn 3 # first\n\nn 3\n0 1\n", "line 4: second vertex-count header"),
            ("p edge 3 0\ne 1 2\np edge 5 0\n", "line 3: second DIMACS problem line"),
            ("c x\np edge 3 0\nc y\np col 3 0\n", "line 4: second DIMACS problem line"),
        ],
    )
    def test_second_header_is_rejected(self, text, message):
        # a later header must not resize the graph behind the edges already read
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_graph(text)

    def test_records_line_rule(self):
        text = "# only a comment\r\n0 1#x\r\n\r\n   \n\t# indented\n2\t3  # two # hashes\r\n#\n4"
        assert list(_records(text)) == [
            (2, "0 1#x", ["0", "1"]),
            (6, "2\t3  # two # hashes", ["2", "3"]),
            (8, "4", ["4"]),
        ]
        assert list(_records("")) == [] and list(_records("#\n \n")) == []


    @pytest.mark.parametrize(
        "text, line",
        [("n -5\n", 1), ("# header\nn -1\n0 1\n", 2), ("p edge -3 0\n", 1), ("c x\np edge -1 0\n", 2)],
    )
    def test_negative_vertex_count(self, text, line):
        # no edge at all: the header alone is wrong, and is named as such
        with pytest.raises(ParseError, match=f"^line {line}: negative vertex count -"):
            parse_graph(text)


def _dist_case(rng: random.Random):
    """(text, n, (weights, warning count, error message or None)) of one seeded distribution file.

    Entries are exact rationals or 3-digit decimals over a random part of
    the n vertices, with trailing and whole-line '#' comments, blank lines
    and CRLF endings. At most one line carries a defect, so the first error
    is known: a negative, malformed, duplicate, out-of-range or three-token
    line. Without one, an off sum of rationals or a zero mass is the error.
    """
    n = rng.randint(1, 14)
    verts = rng.sample(range(n), rng.randint(0, n))
    decimal = rng.random() < 0.5
    if decimal:
        values = [Fraction(rng.randint(0, 999), 1000) for _ in verts]
        tokens = [f"{float(x):.3f}" for x in values]
    else:
        cuts = sorted(rng.randint(0, 60) for _ in verts[1:])
        values = [Fraction(b - a, 60) for a, b in zip([0, *cuts], [*cuts, 60])][: len(verts)]
        if values and rng.random() < 0.1:
            values[0] += Fraction(1, 60)
        tokens = [str(x) for x in values]
    lines = []
    for v, token in zip(verts, tokens):
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "   ", "# whole line", "\t#"]))
        lines.append(f"{v} {token}" + rng.choice(["", "", " # note", "#x"]))
    weights = [Fraction(0)] * n
    for v, x in zip(verts, values):
        weights[v] = x
    mass, warned, message = sum(values), 0, None
    defects = [
        ("x 1/2", "'x' is not an integer"),
        (f"{n} 0", f"vertex {n} outside 0..{n - 1}"),
        ("0 1 2", "expected 'v p_v', got '0 1 2'"),
    ]
    free = sorted(set(range(n)).difference(verts))
    if free:  # a vertex of its own, so that no duplicate comes first
        defects += [(f"{free[0]} -1/2", "negative probability -1/2"), (f"{free[0]} 1/0", "'1/0' is not a probability")]
    if rng.random() < 0.2:
        line, error = rng.choice(defects)
        at = rng.randint(0, len(lines))
        lines.insert(at, line)
        message = f"line {at + 1}: {error}"
    elif verts and rng.random() < 0.05:
        lines.append(f"{verts[0]} 0")
        message = f"line {len(lines)}: duplicate entry for vertex {verts[0]}"
    elif mass == 0:
        message = "distribution has zero total mass"
    elif mass != 1 and decimal:
        weights, warned = [w / mass for w in weights], 1
    elif mass != 1:
        message = f"rational weights must sum to 1 exactly, got {mass}"
    sep = "\r\n" if rng.random() < 0.1 else "\n"
    return sep.join(lines) + sep, n, (tuple(weights), warned, message)


_DIST_RNG = random.Random(34)
DIST_CORPUS = [_dist_case(_DIST_RNG) for _ in range(600)]


class TestDistributionParsing:
    def test_rationals(self):
        d, warnings = parse_distribution("0 1/3\n1 2/3\n", 2)
        assert d.exact and not warnings and sum(d.weights) == 1

    def test_decimals_exact_expansion(self):
        d, warnings = parse_distribution("0 0.25\n1 0.75\n", 2)
        assert not warnings
        assert d.weights[0].denominator == 4

    def test_decimals_renormalized_with_warning(self):
        d, warnings = parse_distribution("0 0.3\n1 0.3\n", 2)
        assert warnings and sum(d.weights) == 1

    def test_rational_sum_error(self):
        with pytest.raises(ParseError):
            parse_distribution("0 1/3\n1 1/3\n", 2)

    def test_unlisted_vertices_get_zero(self):
        d, _ = parse_distribution("0 1\n", 3)
        assert d.support == (0,)

    def test_duplicate_vertex(self):
        with pytest.raises(ParseError):
            parse_distribution("0 1/2\n0 1/2\n", 2)

    def test_exponent_past_the_digit_limit_is_rejected(self):
        # Fraction("1e-999999999") alone would compute 10**999999999 for hours
        limit = sys.get_int_max_str_digits()
        for token in ("1e-999999999", "1E+999999999", f"2.5e-{limit}"):
            with pytest.raises(ParseError, match="power of ten"):
                parse_distribution(f"0 {token}\n1 1\n", 2)
        d, warnings = parse_distribution(f"0 1e-{limit - 1}\n1 1\n", 2)
        assert warnings and d.weights[0] == Fraction(1, 10 ** (limit - 1) + 1)

    def test_no_digit_limit_admits_any_exponent(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            d, _ = parse_distribution(f"0 1e-{limit}\n1 1\n", 2)
        finally:
            sys.set_int_max_str_digits(limit)
        assert d.weights[0] == Fraction(1, 10**limit + 1)

    def test_point_mass_on_a_million_vertices(self):
        d, warnings = parse_distribution("0 1", 10**6)
        assert not warnings and d.exact and d.n == 10**6
        assert d.weights[0] == 1 and type(d.weights[0]) is Fraction
        assert all(w is d.weights[1] for w in d.weights[1:]) and d.weights[1] == Fraction(0)

    def test_the_parse_is_the_only_check(self, monkeypatch):
        calls = []
        monkeypatch.setattr(Distribution, "__init__", lambda self, weights: calls.append(weights))
        for text, n, _ in DIST_CORPUS:
            try:
                parse_distribution(text, n)
            except ParseError:
                pass
        assert calls == []

    def test_corpus(self):
        """Each parse equals the checked constructor's, and each defect keeps its message."""
        for text, n, (expected, warned, message) in DIST_CORPUS:
            if message is not None:
                with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
                    parse_distribution(text, n)
                continue
            d, warnings = parse_distribution(text, n)
            checked = Distribution(list(d.weights))
            assert (d.weights, d.exact) == (checked.weights, checked.exact) == (expected, True)
            assert len(warnings) == warned


class TestCommands:
    def test_entropy_c5(self, files, capsys):
        code = main(["entropy", files("g", C5), "--json"])
        payload = json.loads(capsys.readouterr().out)
        check_schema(payload, "entropy")
        assert code == 0
        assert payload["value"] == pytest.approx(math.log2(2.5), abs=1e-6)
        assert payload["gap"] <= 1e-9

    def test_entropy_point_mass(self, files, capsys):
        code = main(["entropy", files("g", K2), files("d", "0 1\n")])
        assert code == 0
        assert "0.000000000000 bits" in capsys.readouterr().out

    def test_entropy_empty_graph(self, files, capsys):
        code = main(["entropy", files("g", "n 3\n")])
        assert code == 0
        assert "entropy: 0.0" in capsys.readouterr().out

    def test_chif_examples(self, files, capsys):
        assert main(["chif", files("g", C5), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        check_schema(payload, "chif")
        assert payload["chi_f"] == "5/2"

        k4 = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
        assert main(["chif", files("k4", k4), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["chi_f"] == "4"

    def test_symmetric_exit_codes(self, files, capsys):
        assert main(["symmetric", files("c5", C5), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        check_schema(payload, "symmetric")
        assert payload["symmetric"] and payload["certificate"]["fold"] == 2

        assert main(["symmetric", files("p3", P3), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        check_schema(payload, "symmetric")
        assert not payload["symmetric"] and payload["certificate"] is None

    def test_symmetric_k1(self, files):
        assert main(["symmetric", files("k1", "n 1\n")]) == 0

    def test_maximizer(self, files, capsys):
        dist5 = "\n".join(f"{v} 1/5" for v in range(5))
        assert main(["maximizer", files("g", C5), files("d", dist5), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        check_schema(payload, "maximizer")
        assert payload["maximizer"]

        dist3 = "\n".join(f"{v} 1/3" for v in range(3))
        assert main(["maximizer", files("g2", P3), files("d2", dist3), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        check_schema(payload, "maximizer")
        assert payload["reason"] == "NoUniformCover"

    def test_gadget_sizes_and_roundtrip(self, files, capsys):
        assert main(["gadget", files("f", "n 1\n"), "--k", "2"]) == 0
        out = capsys.readouterr().out
        g = parse_graph(out)
        assert g.n == 2 and len(g.edges) == 1

        assert main(["gadget", files("p3", P3), "--k", "3"]) == 0
        assert parse_graph(capsys.readouterr().out).n == 8

    def test_gadget_json_schema(self, files, capsys):
        assert main(["gadget", files("p3", P3), "--k", "3", "--json"]) == 0
        check_schema(json.loads(capsys.readouterr().out), "graph")

    @pytest.mark.parametrize("m, k, code", [(15, 7, 1), (17, 10, 0)])
    def test_gadget_piped_to_symmetric(self, files, capsys, monkeypatch, m, k, code):
        # gelab gadget c.txt --k k | gelab symmetric - --cap 200: symmetric
        # exactly when alpha(C_m) = m // 2 <= k - 1
        cycle = "".join(f"{v} {(v + 1) % m}\n" for v in range(m))
        assert main(["gadget", files("c", cycle), "--k", str(k)]) == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(capsys.readouterr().out))
        assert main(["symmetric", "-", "--cap", "200"]) == code

    def test_substitute_identity(self, files, capsys):
        assert main(["substitute", files("c5", C5), "2", files("k1", "n 1\n")]) == 0
        g = parse_graph(capsys.readouterr().out)
        assert g.n == 5 and len(g.edges) == 5

    def test_blowup_uniform_identity(self, files, capsys):
        dist = "\n".join(f"{v} 1/5" for v in range(5))
        assert main(["blowup", files("c5", C5), files("d", dist)]) == 0
        assert parse_graph(capsys.readouterr().out) == cycle_graph(5)

    def test_union_idempotent(self, files, capsys):
        assert main(["union", files("a", C5), files("b", C5)]) == 0
        assert parse_graph(capsys.readouterr().out) == cycle_graph(5)

    def test_emitted_graphs_reparse_identically(self, files, capsys):
        assert main(["gadget", files("p3", P3), "--k", "4"]) == 0
        text = capsys.readouterr().out
        g = parse_graph(text)
        assert format_graph(g, []).splitlines() == [
            line for line in text.splitlines() if not line.startswith("#")
        ]


class TestTextOutput:
    """The text renderings, whole, on graphs whose optimum is unique."""

    @staticmethod
    def run(capsys, argv):
        code = main(argv)
        out, err = capsys.readouterr()
        assert err == ""
        return code, out

    def test_chif_c5(self, files, capsys):
        assert self.run(capsys, ["chif", files("c5", C5)]) == (0, (
            "chi_f: 5/2 (= 2.500000)\n"
            "  1/2 x {0, 2}\n  1/2 x {0, 3}\n  1/2 x {1, 3}\n  1/2 x {1, 4}\n  1/2 x {2, 4}\n"
        ))

    def test_symmetric_yes_c5(self, files, capsys):
        assert self.run(capsys, ["symmetric", files("c5", C5)]) == (0, (
            "symmetric: chi_f = 5/2, n/alpha = 5/2\n"
            "cover fold: 2 (5 sets counted with multiplicity)\n"
            "  1 x {0, 2}\n  1 x {0, 3}\n  1 x {1, 3}\n  1 x {1, 4}\n  1 x {2, 4}\n"
        ))

    def test_symmetric_no_p3(self, files, capsys):
        assert self.run(capsys, ["symmetric", files("p3", P3)]) == (1, "not symmetric: chi_f = 2, n/alpha = 3/2\n")

    def test_maximizer_yes_p3(self, files, capsys):
        dist = files("d", "0 1/4\n1 1/2\n2 1/4\n")
        assert self.run(capsys, ["maximizer", files("p3", P3), dist]) == (0, (
            "maximizer: chi_f(support) = 2, alpha_P = 1/2\n"
            "cover fold: 1 (2 sets counted with multiplicity)\n"
            "  1 x {0, 2}\n  1 x {1}\n"
        ))

    def test_maximizer_no_uniform_p3(self, files, capsys):
        dist = files("d", "0 1/3\n1 1/3\n2 1/3\n")
        assert self.run(capsys, ["maximizer", files("p3", P3), dist]) == (1, (
            "not a maximizer: chi_f(support) = 2, alpha_P = 2/3\n"
            "reason: NoUniformCover\n"
        ))


class TestExitCodes:
    def test_parse_error_is_2(self, files, capsys):
        assert main(["chif", files("bad", "garbage\n")]) == 2
        assert "error" in capsys.readouterr().err

    def test_huge_exponent_is_2(self, files, capsys):
        dist = files("d", "0 1e-10000000\n1 1\n")
        assert main(["maximizer", files("p3", P3), dist]) == 2
        assert "power of ten" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["n -5\n", "p edge -3 0\n"])
    def test_negative_vertex_count_is_2(self, files, capsys, text):
        assert main(["chif", files("negative", text)]) == 2
        assert "negative vertex count" in capsys.readouterr().err

    def test_missing_file_is_2(self, capsys):
        assert main(["chif", "/nonexistent/file"]) == 2

    @pytest.mark.parametrize("command", [["union"], ["substitute", "0"]])
    def test_missing_second_file_is_2(self, files, capsys, command):
        assert main([command[0], files("c5", C5), *command[1:], "/nonexistent/file"]) == 2
        assert "cannot read /nonexistent/file" in capsys.readouterr().err

    def test_cap_exceeded_is_4(self, files, capsys):
        edges = "\n".join(f"{i} {i+1}" for i in range(41))
        assert main(["chif", files("big", edges)]) == 4

    def test_set_budget_exceeded_is_4(self, files, capsys, monkeypatch):
        import gelab.graphs as graphs_mod

        monkeypatch.setattr(graphs_mod, "SET_COUNT_CAP", 100)
        graphs_mod._maximal_sets_cached.cache_clear()
        # 6 triangles: 3**6 = 729 maximal independent sets
        assert main(["chif", files("triangles", format_graph(triangle_union(6)))]) == 4
        assert "more than 100 maximal independent sets" in capsys.readouterr().err

    def test_corrupt_family_is_5(self, files, capsys, monkeypatch):
        import gelab.graphs as graphs_mod

        real = graphs_mod._maximal_independent_masks
        monkeypatch.setattr(
            graphs_mod, "_maximal_independent_masks", lambda adj, n: real(adj, n) + [0b11]
        )
        graphs_mod._maximal_sets_cached.cache_clear()
        try:
            assert main(["chif", files("c5", C5), "--json"]) == 5
        finally:
            graphs_mod._maximal_sets_cached.cache_clear()
        assert "internal error: enumerated set contains the edge (0, 1)" in capsys.readouterr().err

    def test_entropy_vertex_cap_is_checked_before_the_uniform_distribution(self, files, capsys, monkeypatch):
        def fail(n):
            raise AssertionError("uniform distribution built before the vertex cap")

        monkeypatch.delenv("GELAB_CAP", raising=False)
        monkeypatch.setattr(Distribution, "uniform", staticmethod(fail))
        assert main(["entropy", files("edgeless", "n 41\n")]) == 4
        assert "graph has 41 vertices" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["n 3\n0 1\nn 6\n", "p edge 3 0\ne 1 2\np edge 5 0\n"])
    def test_second_header_is_2(self, files, capsys, text):
        assert main(["symmetric", files("twice", text)]) == 2
        assert "line 3: second" in capsys.readouterr().err

    def test_vertex_cap_bounds_the_support_with_a_distribution(self, files, capsys, monkeypatch):
        # 100 vertices, over the default cap of 40, but P lives on the edge 0 1
        monkeypatch.delenv("GELAB_CAP", raising=False)
        g, dist = files("g", "n 100\n0 1\n"), files("d", "0 1/2\n1 1/2\n")
        assert main(["maximizer", g, dist]) == 0
        assert main(["entropy", g, dist]) == 0
        capsys.readouterr()
        # with no distribution the support is every vertex
        assert main(["symmetric", g]) == 4
        assert main(["entropy", g]) == 4
        assert capsys.readouterr().err.count("graph has 100 vertices") == 2

    @pytest.mark.parametrize("command", ["entropy", "blowup"])
    def test_zero_vertex_uniform_is_2(self, files, capsys, command):
        # an empty file is the graph on 0 vertices; no distribution lives on it
        assert main([command, files("empty", "")]) == 2
        assert "at least one vertex" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "0", "-1"])
    def test_nonpositive_tolerance_is_2(self, files, capsys, tol):
        # a NaN tolerance would never meet gap <= tol and spin to max_iter
        assert main(["entropy", files("c5", C5), "--tol", tol]) == 2
        assert "tolerance must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["union", "a", "b"],
            ["gadget", "a", "--k", "2"],
            ["substitute", "a", "0", "b"],
            ["blowup", "a"],
        ],
    )
    def test_cap_is_a_usage_error_where_nothing_enumerates(self, files, capsys, argv):
        path = files("k2", K2)
        argv = [path if arg in ("a", "b") else arg for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--cap", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cap 3" in capsys.readouterr().err

    def test_usage_error_leaves_the_parser_usable(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chif"])
        assert exc.value.code == 2
        assert main(["chif", files("c5", C5), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["chi_f"] == "5/2"

    def test_cached_parser_runs_the_current_command_function(self, files, capsys, monkeypatch):
        import gelab.cli as cli_mod

        c5 = files("c5", C5)
        assert main(["chif", c5]) == 0  # the parser is built and cached here
        monkeypatch.setattr(cli_mod, "cmd_chif", lambda args: 7)
        assert main(["chif", c5]) == 7
        monkeypatch.undo()
        assert main(["chif", c5]) == 0

    @pytest.mark.parametrize("command", ["chif", "symmetric", "entropy"])
    def test_negative_cap_flag_is_2(self, files, capsys, command):
        # a negative cap would turn every graph into "cap exceeded" (exit 4)
        assert main([command, files("c5", C5), "--cap", "-1"]) == 2
        assert "error: enumeration cap must be nonnegative, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("env", ["-1", "abc"])
    @pytest.mark.parametrize("command", ["chif", "symmetric", "entropy"])
    def test_bad_env_cap_is_2(self, files, capsys, monkeypatch, command, env):
        monkeypatch.setenv("GELAB_CAP", env)
        assert main([command, files("c5", C5)]) == 2
        assert f"error: GELAB_CAP must be a nonnegative integer, got '{env}'" in capsys.readouterr().err

    def test_zero_cap_is_a_cap(self, files, capsys):
        assert main(["chif", files("empty", ""), "--cap", "0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["chi_f"] == "0"
        assert main(["chif", files("c5", C5), "--cap", "0"]) == 4

    def test_cap_flag_lifts_limit(self, files, capsys):
        k42 = "\n".join(f"{i} {j}" for i in range(42) for j in range(i + 1, 42))
        assert main(["chif", files("big", k42), "--cap", "64", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["chi_f"] == "42"

    def test_nonconvergence_is_3(self, files, capsys, monkeypatch):
        import gelab.cli as cli_mod

        real = cli_mod.entropy

        def tiny_budget(g, p, tol, cap):
            return real(g, p, tol=tol, max_iter=1, cap=cap)

        monkeypatch.setattr(cli_mod, "entropy", tiny_budget)
        assert main(["entropy", files("c5", C5)]) == 3

    def test_internal_error_is_5_not_1(self, files, capsys, monkeypatch):
        import gelab.exactlp as exactlp

        def surplus_only(cols, b, c, **kwargs):
            # both lanes return a basis that `_certify_basis` rejects: x = -b
            return exactlp._LPResult(x=[], y=[], obj=None, basis=list(range(len(cols) - len(b), len(cols))))

        monkeypatch.setattr(exactlp, "_simplex", surplus_only)
        for command in ("chif", "symmetric"):
            assert main([command, files("c5", C5)]) == 5
            err = capsys.readouterr().err
            assert "internal error" in err and "basis is not optimal" in err

    @pytest.mark.parametrize("buffered", [False, True], ids=["write-raises", "flush-raises"])
    def test_closed_stdout_is_141_not_an_internal_error(self, files, capsys, monkeypatch, tmp_path, buffered):
        class ClosedPipe:
            """A stdout whose reader has gone: a write raises, or, buffered, the flush."""

            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                if not buffered:
                    raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return self.fd

        with open(tmp_path / "out", "w") as out:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(out.fileno()))
            assert main(["chif", files("c5", C5), "--json"]) == 141
            # the descriptor now writes to the null device
            os.write(out.fileno(), b"after")
        assert (tmp_path / "out").read_text() == ""
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "command, solver",
        [
            ("entropy", "entropy"),
            ("chif", "fractional_chromatic_number"),
            ("symmetric", "is_symmetric"),
        ],
    )
    def test_no_exception_escapes_main(self, files, capsys, monkeypatch, command, solver):
        import gelab.cli as cli_mod

        def broken(*args, **kwargs):
            raise ZeroDivisionError("injected")

        monkeypatch.setattr(cli_mod, solver, broken)
        assert main([command, files("c5", C5)]) == 5
        assert "internal error: ZeroDivisionError: injected" in capsys.readouterr().err
