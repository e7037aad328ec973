"""Command-line front end.

Subcommands cover every public operation: entropy, chif, symmetric,
maximizer, gadget, substitute, blowup, union. Graphs are read from
edge-list or DIMACS files; constructed graphs are emitted as edge lists
with a comment header documenting the label map, so they re-parse
identically. Both verdicts, symmetric and maximizer, print through one
renderer (`_verdict`), and every listing of sets, JSON or text, is sorted
by the sets' members (`_by_members`).

Exit codes: 0 success (and "yes" verdicts), 1 "no" verdicts, 2 parse or
usage errors, 3 solver non-convergence, 4 enumeration cap or set budget
exceeded, or an input too large to hold in memory, 5 internal error (a
self-check failed or an unexpected exception was raised, so no answer is
given), 141 (128 + SIGPIPE) standard output was closed before the answer
was written, so nothing more is printed. The
environment variable GELAB_CAP overrides the default enumeration cap; a
cap that is negative or not an integer, from --cap or GELAB_CAP, is a
usage error (exit 2).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .characterize import is_entropy_maximizer, is_symmetric
from .constructions import GadgetSpec, blow_up, hardness_gadget, substitute, union
from .entropy import DEFAULT_TOL, entropy
from .errors import CapExceeded, GelabError, InternalError, ParseError
from .exactlp import fractional_chromatic_number
from .graphs import Distribution, Graph, _check_vertex_cap
from .io import format_graph, format_rational, parse_distribution, parse_graph
from .oracle import brute_entropy

EXIT_OK = 0
EXIT_NO = 1
EXIT_PARSE = 2
EXIT_NONCONVERGENCE = 3
EXIT_CAP = 4
EXIT_INTERNAL = 5
EXIT_PIPE = 141


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _load_graph(args, attr: str = "graph") -> Graph:
    return parse_graph(_read(getattr(args, attr)), getattr(args, "format", None))


def _load_distribution(args, g: Graph) -> Distribution:
    path = getattr(args, "dist", None)
    if path is None:
        return Distribution.uniform(g.n)
    dist, warnings = parse_distribution(_read(path), g.n)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return dist


def _by_members(weights: dict) -> list[tuple[tuple[int, ...], object]]:
    """(members, value) of each set of a set -> value mapping, sorted by members.

    The one order every set listing prints in. A member tuple is written in
    JSON as a list.
    """
    return sorted((s.sorted_members(), w) for s, w in weights.items())


def _set_line(members, value) -> str:
    return f"  {value} x {{{', '.join(map(str, members))}}}"


def _verdict(args, yes: bool, fields: dict, summary: str, cm) -> int:
    """Print a verdict, the one renderer of `symmetric` and `maximizer`.

    With --json, `fields` (the verdict's own keys, in schema order) and then
    the cover certificate `cm` (None on a no); otherwise the summary line,
    then the certificate or, when there is none, the "reason" field if any.
    Exit 0 on yes, 1 on no.
    """
    sets = _by_members(cm.multiplicities) if cm else []
    if args.json:
        fields["certificate"] = {
            "fold": cm.fold,
            "covered": sorted(cm.covered),
            "sets": [{"set": s, "multiplicity": m} for s, m in sets],
        } if cm else None
        print(json.dumps(fields))
    else:
        print(summary)
        if cm:
            print(f"cover fold: {cm.fold} ({cm.size} sets counted with multiplicity)")
            for s, m in sets:
                print(_set_line(s, m))
        elif fields.get("reason"):
            print(f"reason: {fields['reason']}")
    return EXIT_OK if yes else EXIT_NO


def cmd_entropy(args) -> int:
    g = _load_graph(args)
    if args.dist is None:  # the support is every vertex: cap it before P is built on them
        _check_vertex_cap(g, args.cap)
    p = _load_distribution(args, g)
    result = entropy(g, p, tol=args.tol, cap=args.cap)
    oracle_value = None
    if args.oracle:
        oracle_value = brute_entropy(g, p, seed_base=args.seed)
    if args.json:
        payload = {
            "value": result.value,
            "gap": result.gap,
            "iterations": result.iterations,
            "converged": result.converged,
            "minimizer": {str(v): c for v, c in enumerate(result.minimizer.coords)},
            "decomposition": [
                {"set": s.sorted_members(), "weight": w}
                for s, w in result.minimizer.decomposition
            ],
        }
        if oracle_value is not None:
            payload["oracle_value"] = oracle_value
        print(json.dumps(payload))
    else:
        print(f"entropy: {result.value:.12f} bits")
        print(f"gap: {result.gap:.3e}")
        print(f"iterations: {result.iterations}")
        if oracle_value is not None:
            print(f"oracle: {oracle_value:.12f} bits")
    if not result.converged:
        print("warning: solver did not converge to tolerance", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def cmd_chif(args) -> int:
    g = _load_graph(args)
    chi, coloring = fractional_chromatic_number(g, cap=args.cap)
    sets = [(s, format_rational(w)) for s, w in _by_members(coloring.weights)]
    if args.json:
        print(json.dumps({
            "chi_f": format_rational(chi),
            "decimal": float(chi),
            "coloring": [{"set": s, "weight": w} for s, w in sets],
        }))
    else:
        print(f"chi_f: {format_rational(chi)} (= {float(chi):.6f})")
        for s, w in sets:
            print(_set_line(s, w))
    return EXIT_OK


def cmd_symmetric(args) -> int:
    v = is_symmetric(_load_graph(args), cap=args.cap)
    chi, n_over_alpha = format_rational(v.chi_f), format_rational(v.n_over_alpha)
    word = "symmetric" if v.is_symmetric else "not symmetric"
    return _verdict(
        args, v.is_symmetric,
        {"symmetric": v.is_symmetric, "chi_f": chi, "n_over_alpha": n_over_alpha},
        f"{word}: chi_f = {chi}, n/alpha = {n_over_alpha}", v.certificate,
    )


def cmd_maximizer(args) -> int:
    g = _load_graph(args)
    v = is_entropy_maximizer(g, _load_distribution(args, g), cap=args.cap)
    chi, alpha_p = format_rational(v.chi_f_support), format_rational(v.alpha_p)
    word = "maximizer" if v.is_maximizer else "not a maximizer"
    return _verdict(
        args, v.is_maximizer,
        {"maximizer": v.is_maximizer, "chi_f_support": chi, "alpha_p": alpha_p, "reason": v.reason},
        f"{word}: chi_f(support) = {chi}, alpha_P = {alpha_p}", v.certificate,
    )


def _emit_graph(args, g: Graph, comments: list[str]) -> int:
    if args.json:
        print(json.dumps({
            "n": g.n,
            "edges": [list(e) for e in g.edges],
            "labels": comments,
        }))
    else:
        sys.stdout.write(format_graph(g, comments))
    return EXIT_OK


def cmd_gadget(args) -> int:
    f = _load_graph(args)
    spec = GadgetSpec(f, args.k)
    g = hardness_gadget(spec)
    comments = [f"hardness gadget: base graph n={f.n}, k={args.k}"]
    comments += [f"{label} = {spec.role(label)}" for label in range(g.n)]
    return _emit_graph(args, g, comments)


def cmd_substitute(args) -> int:
    g = _load_graph(args)
    f = _load_graph(args, "inner")
    sub = substitute(g, args.vertex, f)
    comments = [f"substitution of a {f.n}-vertex graph for vertex {args.vertex}"]
    comments += [f"g {old} -> {new}" for old, new in sorted(sub.outer_map.items())]
    comments += [f"f {old} -> {new}" for old, new in sorted(sub.inner_map.items())]
    return _emit_graph(args, sub.graph, comments)


def cmd_blowup(args) -> int:
    g = _load_graph(args)
    p = _load_distribution(args, g)
    blown, spec = blow_up(g, p)
    comments = [f"blow-up with denominator m={spec.m}"]
    comments += [
        f"v {v} -> copies {b.start}..{b.stop - 1}" for v, b in enumerate(map(spec.block, range(g.n)))
    ]
    return _emit_graph(args, blown, comments)


def cmd_union(args) -> int:
    f = _load_graph(args)
    g = _load_graph(args, "other")
    return _emit_graph(args, union(f, g), ["union of two graphs on a shared vertex set"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gelab",
        description="Graph entropy, fractional chromatic numbers, and "
                    "entropy-maximizer certificates.",
    )
    parser.add_argument("--version", action="version", version=f"gelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dist=False, dist_required=False):
        p.add_argument("graph", help="graph file (edge list or DIMACS; '-' for stdin)")
        if dist:
            if dist_required:
                p.add_argument("dist", help="distribution file with 'v p_v' lines")
            else:
                p.add_argument("dist", nargs="?", default=None,
                               help="distribution file; uniform when omitted")
        p.add_argument("--format", choices=["edge-list", "dimacs"], default=None,
                       help="input graph format (default: auto-detect)")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def capped(p):  # subcommands that enumerate independent sets
        p.add_argument("--cap", type=int, default=None,
                       help="enumeration vertex cap (default 40; env GELAB_CAP)")

    p = sub.add_parser("entropy", help="compute H(G,P) with a certified gap")
    common(p, dist=True)
    capped(p)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="duality-gap tolerance in bits (default 1e-9)")
    p.add_argument("--oracle", action="store_true",
                   help="also run the brute-force oracle (n <= 10)")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed for the oracle multi-start")

    p = sub.add_parser("chif", help="exact fractional chromatic number")
    common(p)
    capped(p)

    p = sub.add_parser("symmetric", help="is the uniform distribution a maximizer?")
    common(p)
    capped(p)

    p = sub.add_parser("maximizer", help="does P maximize the entropy of G?")
    common(p, dist=True, dist_required=True)
    capped(p)

    p = sub.add_parser("gadget", help="emit the symmetry-hardness gadget")
    common(p)
    p.add_argument("--k", type=int, required=True, help="independent-set size parameter")

    p = sub.add_parser("substitute", help="substitute a graph for a vertex")
    p.add_argument("graph", help="outer graph file")
    p.add_argument("vertex", type=int, help="vertex of the outer graph to replace")
    p.add_argument("inner", help="graph file substituted for the vertex")
    p.add_argument("--format", choices=["edge-list", "dimacs"], default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("blowup", help="blow up vertices by a rational distribution")
    common(p, dist=True)

    p = sub.add_parser("union", help="union of two graphs on one vertex set")
    p.add_argument("graph", help="first graph file")
    p.add_argument("other", help="second graph file")
    p.add_argument("--format", choices=["edge-list", "dimacs"], default=None)
    p.add_argument("--json", action="store_true")

    return parser


# built on first use and shared: parsing never changes the parser, and the
# parser holds no command function (main looks `cmd_<command>` up by name)
_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone; stdout goes to the null device so that the
        # interpreter's final flush does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError:  # an input too large to hold: a size limit, like the cap
        print("error: out of memory", file=sys.stderr)
        return EXIT_CAP
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (GelabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:  # a bug must not exit 1, the "no" verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
