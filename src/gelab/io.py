"""Parsing and serialization for graph and distribution files.

Two graph formats: a plain edge list (lines "u v", 0-based labels, an
optional "n <count>" header) and DIMACS ("p edge n m" header with 1-based
"e u v" lines, whole 'c' and '#' comment lines). One header per graph file:
a second one is a ParseError naming its line. Distribution files hold
lines "v p_v" where p_v is a rational "a/b" or a decimal; decimals are
expanded exactly (0.25 -> 1/4), so parsed distributions are always exact
rationals. Edge lists and distribution files share one line rule
(`_records`): a '#' starts a comment that runs to the end of the line,
and a line with no token before it is skipped.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import ParseError
from .graphs import Distribution, Graph, _common_denominator

EDGE_LIST = "edge-list"
DIMACS = "dimacs"


def parse_graph(text: str, fmt: str | None = None) -> Graph:
    """Parse a graph from text, auto-detecting the format when fmt is None."""
    if fmt is None:
        fmt = DIMACS if _looks_like_dimacs(text) else EDGE_LIST
    if fmt == DIMACS:
        return _parse_dimacs(text)
    if fmt == EDGE_LIST:
        return _parse_edge_list(text)
    raise ParseError(f"unknown graph format {fmt!r}")


def _looks_like_dimacs(text: str) -> bool:
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith(("c", "#")):
            continue
        return stripped.startswith("p ")
    return False


def _records(text: str):
    """(line number, line, tokens) of each line with a token before any '#'.

    The line rule of the '#'-comment formats, edge lists and distribution
    files; DIMACS keeps its own rule of whole 'c' and '#' comment lines.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, raw, tokens


def _parse_edge_list(text: str) -> Graph:
    edges: list[tuple[int, int]] = []
    declared_n: int | None = None
    max_label = -1
    for lineno, raw, parts in _records(text):
        if parts[0] == "n":
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: malformed vertex-count header")
            if declared_n is not None:
                raise ParseError(f"line {lineno}: second vertex-count header")
            declared_n = _vertex_count(parts[1], lineno)
            continue
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {raw!r}")
        u, v = _int(parts[0], lineno), _int(parts[1], lineno)
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at {u}")
        edges.append((u, v))
        max_label = max(max_label, u, v)
    n = declared_n if declared_n is not None else max_label + 1
    if max_label >= n:
        raise ParseError(f"edge label {max_label} exceeds declared vertex count {n}")
    return Graph(n, edges)


def _parse_dimacs(text: str) -> Graph:
    n = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("c", "#")):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) < 4 or parts[1] not in ("edge", "edges", "col"):
                raise ParseError(f"line {lineno}: malformed DIMACS problem line")
            if n is not None:
                raise ParseError(f"line {lineno}: second DIMACS problem line")
            n = _vertex_count(parts[2], lineno)
        elif parts[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'e u v'")
            u, v = _int(parts[1], lineno), _int(parts[2], lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"line {lineno}: vertex outside 1..{n}")
            if u == v:
                raise ParseError(f"line {lineno}: self-loop at {u}")
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"line {lineno}: unrecognized DIMACS line {raw!r}")
    if n is None:
        raise ParseError("DIMACS input has no problem line")
    return Graph(n, edges)


def _int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: {token!r} is not an integer") from None


def _vertex_count(token: str, lineno: int) -> int:
    n = _int(token, lineno)
    if n < 0:
        raise ParseError(f"line {lineno}: negative vertex count {n}")
    return n


def _check_exponent(token: str, lineno: int) -> None:
    """Reject a decimal exponent whose power of ten is too long to print.

    `Fraction("1e-k")` computes 10**k before anything else, which takes
    hours for a 12-character token such as 1e-999999999. 10**|exp| has
    |exp| + 1 digits, so an exponent past the limit Python already applies
    to every integer token here (`sys.get_int_max_str_digits`, 0 meaning
    unlimited) raises ParseError before `Fraction` is called.
    """
    limit = sys.get_int_max_str_digits()
    _, e, exponent = token.lower().partition("e")
    try:
        too_long = bool(e and limit) and abs(int(exponent)) >= limit
    except ValueError:
        return  # not an exponent; `Fraction` rejects the token
    if too_long:
        raise ParseError(f"line {lineno}: {token!r} needs a power of ten over {limit} digits")


def parse_distribution(text: str, n: int) -> tuple[Distribution, list[str]]:
    """Parse 'v p_v' lines into an exact distribution over n vertices.

    Unlisted vertices get weight zero. Rational entries must sum to exactly
    one; if any entry was written as a decimal and the sum is off, the
    weights are renormalized and a warning is returned.

    The parse is the distribution's one check: each entry's syntax, vertex
    range, uniqueness and sign, then the exact sum or the renormalization,
    prove what `Distribution` would check again, so the result is built
    unchecked (`Distribution._trusted`). Only the listed entries are
    checked, summed and scaled; the unlisted vertices share one
    `Fraction(0)`.
    """
    entries: dict[int, Fraction] = {}
    any_decimal = False
    for lineno, raw, parts in _records(text):
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'v p_v', got {raw!r}")
        v = _int(parts[0], lineno)
        if not 0 <= v < n:
            raise ParseError(f"line {lineno}: vertex {v} outside 0..{n - 1}")
        if v in entries:
            raise ParseError(f"line {lineno}: duplicate entry for vertex {v}")
        token = parts[1]
        _check_exponent(token, lineno)
        try:
            value = Fraction(token)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"line {lineno}: {token!r} is not a probability") from None
        if value < 0:
            raise ParseError(f"line {lineno}: negative probability {token}")
        if "." in token or "e" in token.lower():
            any_decimal = True
        entries[v] = value
    den, nums = _common_denominator(entries.values())
    mass = sum(nums)
    warnings: list[str] = []
    if mass == 0:
        raise ParseError("distribution has zero total mass")
    if mass != den:
        if any_decimal:  # w / total is (w * den) / mass
            entries = {v: Fraction(k, mass) for v, k in zip(entries, nums)}
            warnings.append(f"decimal weights summed to {Fraction(mass, den)}; renormalized")
        else:
            raise ParseError(f"rational weights must sum to 1 exactly, got {Fraction(mass, den)}")
    weights = [Fraction(0)] * n
    for v, w in entries.items():
        weights[v] = w
    return Distribution._trusted(tuple(weights)), warnings


def format_rational(x: Fraction) -> str:
    """Exact rationals are serialized as 'a/b' strings (or 'a' for integers)."""
    return str(x)


def format_graph(g: Graph, comments: list[str] | None = None) -> str:
    """Edge-list serialization with an explicit vertex-count header."""
    lines = [f"# {c}" for c in (comments or [])]
    lines.append(f"n {g.n}")
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
