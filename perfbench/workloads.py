"""The three workloads: seeded operations on gelab, each with its own check.

A workload hands out its operations in rounds. Every round has the same
composition (the same size classes and families, in the same order), and a
run issues a fixed number of rounds. Operations call gelab through module
attributes looked up at call time, so the traced run's wrappers see them.

In entropy-sweep and chif-sweep the shape of round r's instances (graph
structure, sizes, distributions) comes from a stream fixed per round, and
the seed chooses how every graph is labelled. One operation there costs
from a few ms to over a second depending on its instance, so with instances
drawn afresh per seed, 30 s runs on a 2-core x86_64 host showed a 20%
(entropy) and 12% (chi_f) spread of throughput across seeds on top of
machine noise. Labellings keep the cost of a round nearly fixed while every
seed still hands the program different graphs and distributions (and a
different enumeration order and tie-breaking). cli-mix draws everything
from the seed: its calls are many and cheap, so the mix averages out
within a run.

Why these workloads (the prediction table is in predictions.json):

- entropy-sweep: `entropy` on G(n,p), n = 16-40, plus enumeration-heavy and
  vertex-transitive graphs, three distributions per graph. The entropy
  solver does most of the work; exactlp is idle.
- chif-sweep: `fractional_chromatic_number` on one labelling of a graph and
  `b_fold_realization` on another. Sizes fall on both sides of the exact-LP
  lane switch (24 rows / 96 columns), plus enumeration-heavy graphs and
  closed-form families. exactlp does most of the work; entropy is idle.
- cli-mix: `gelab.cli.main` in-process with --json on files of 4-14
  vertices, construction outputs fed back into the decision commands. The
  only workload that reaches io, cli, constructions and characterize; the
  fixed cost of each call dominates.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks
from inputs import (
    Draw,
    alpha_closed_form,
    circulant,
    counts,
    gnp,
    kneser,
    matched_bipartite,
    odd_cycle,
    paired,
    triangles,
    uniform,
    weights,
)

ENTROPY_TOL = 1e-9  # gelab's default tolerance, which every entropy call uses


@dataclass(eq=False)
class Op:
    """One timed call. `key` describes its inputs for the run's fingerprint."""

    kind: str
    key: str
    n: int
    run: Callable[[], object]
    check: Callable[[object], list]
    prepare: Callable[[], None] | None = None
    result: object = None
    error: str | None = None
    seconds: float | None = None
    stdout_bytes: int = 0


def _key(kind, graph, *extra) -> str:
    return " ".join([kind, str(graph[0]), repr(graph[1])] + [repr(x) for x in extra])


class Workload:
    name = ""
    # Nominal seconds per round of the gelab code this benchmark was written
    # against, on a 2-core x86_64 host (Python 3.11, numpy 2.4, no gmpy2);
    # a run of --seconds S issues round(S / round_seconds) rounds.
    round_seconds = 1.0
    trace_rounds = 1  # rounds in the fixed batch of a traced run

    def __init__(self, gl, seed: int, workdir: str):
        self.gl = gl
        self.draw = Draw(f"{self.name}/{seed}")
        self.workdir = workdir

    def shapes(self, r) -> random.Random:
        """The stream fixed per round that shapes instances (not the seed's)."""
        return random.Random(f"{self.name}/shapes/{r}")

    def warmup(self) -> list[Op]:
        """Warm-up operations, drawn the same for every seed so that set-up
        costs the same; their graphs are remembered, so no timed op reuses one."""
        seeded = self.draw.rng
        self.draw.rng = self.shapes("warmup")
        try:
            return self.warmup_ops()
        finally:
            self.draw.rng = seeded

    def warmup_ops(self) -> list[Op]:
        raise NotImplementedError

    def round_ops(self, r: int) -> list[Op]:
        raise NotImplementedError

    def _graph(self, graph):
        return self.gl.graphs.Graph(graph[0], graph[1])

    def _dist(self, p):
        return self.gl.graphs.Distribution(p)


# ---------------------------------------------------------------------------
# entropy-sweep
# ---------------------------------------------------------------------------


class EntropySweep(Workload):
    name = "entropy-sweep"
    round_seconds = 6.5
    trace_rounds = 2

    def _ops_for(self, graph, shape, alpha=None) -> list[Op]:
        """Uniform, random full-support and ~1/4-zero distributions on one graph.

        Several distributions on one graph is the one deliberate reuse: the
        enumeration for the full-support ones is shared through gelab's cache.
        """
        n, d = graph[0], self.draw
        return [
            self._op(graph, uniform(n), alpha),
            self._op(graph, d.carry(weights(shape, n))),
            self._op(graph, d.carry(weights(shape, n, zeros=n // 4))),
        ]

    def _op(self, graph, p, alpha=None) -> Op:
        gl = self.gl
        g, dist = self._graph(graph), self._dist(p)

        def run():
            return gl.entropy.entropy(g, dist)

        def check(res):
            return checks.entropy_errors(
                graph, p, value=res.value, gap=res.gap, converged=res.converged,
                coords=res.minimizer.coords,
                decomposition=[(s.members, w) for s, w in res.minimizer.decomposition],
                tol=ENTROPY_TOL, alpha=alpha,
                brute=lambda: gl.oracle.brute_entropy(g, dist),
            )

        return Op("entropy", _key("entropy", graph, p), graph[0], run, check)

    def warmup_ops(self):
        graph = self.draw.fresh(lambda: odd_cycle(7))
        return self._ops_for(graph, self.shapes("warmup"), alpha_closed_form("odd-cycle", 7))

    def round_ops(self, r):
        d, shape = self.draw, self.shapes(r)
        ops = []

        def sweep(make, alpha=None):
            ops.extend(self._ops_for(d.fresh(make), shape, alpha))

        for p in (0.25, 0.5):
            for lo, hi in ((16, 22), (16, 22), (24, 30)):
                sweep(lambda: gnp(shape, shape.randint(lo, hi), p))
        # dense only: sparse graphs this large take seconds and dominate the run
        sweep(lambda: gnp(shape, shape.randint(32, 40), 0.5))
        c = shape.choice((9, 11, 13, 15, 17))
        sweep(lambda: odd_cycle(c), alpha_closed_form("odd-cycle", c))
        m = shape.choice((5, 6))
        sweep(lambda: kneser(m, 2), alpha_closed_form("kneser", m, 2))
        k = shape.choice((6, 7, 8))
        sweep(lambda: triangles(k), alpha_closed_form("triangles", k))
        sweep(lambda: gnp(shape, 32, 0.15))
        return ops


# ---------------------------------------------------------------------------
# chif-sweep
# ---------------------------------------------------------------------------


class ChifSweep(Workload):
    name = "chif-sweep"
    round_seconds = 3.9
    trace_rounds = 2

    def _pair(self, make, closed=None, vertex_transitive=False) -> list[Op]:
        """chi_f on one labelling of a graph, a b-fold realization on another."""
        gl, d = self.gl, self.draw
        shape = make()
        graph = d.fresh(lambda: shape)
        twin = d.fresh(lambda: shape)
        n = graph[0]
        g, g_twin = self._graph(graph), self._graph(twin)

        @functools.cache
        def alpha():
            # exhaustive, n <= 20; for a vertex-transitive graph chi_f = n/alpha
            return gl.oracle.brute_alpha(g) if n <= checks.BRUTE_ALPHA_MAX_N else None

        def expected():
            if closed is not None:
                return closed
            if vertex_transitive and alpha() is not None:
                return Fraction(n, alpha())
            return None

        def run_chif():
            return gl.exactlp.fractional_chromatic_number(g)

        def check_chif(res):
            chi, coloring = res
            sets = [(s.members, w) for s, w in coloring.weights.items()]
            return checks.coloring_errors(graph, chi, sets, closed=expected(), alpha=alpha())

        chif = Op("chif", _key("chif", graph), n, run_chif, check_chif)

        def run_bfold():
            return gl.exactlp.b_fold_realization(g_twin)

        def check_bfold(cm):
            sets = [(s.members, k) for s, k in cm.multiplicities.items()]
            errs = checks.cover_errors(twin, range(n), cm.fold, sets)
            if set(cm.covered) != set(range(n)):
                errs.append("b-fold realization does not cover every vertex")
            ratio = Fraction(sum(k for _, k in sets), cm.fold)
            ref = expected()
            if ref is None and chif.error is None and chif.result is not None:
                ref = chif.result[0]  # chi_f of the same graph under another labelling
            return errs + checks.chi_errors(n, ratio, closed=ref, alpha=alpha())

        bfold = Op("bfold", _key("bfold", twin), n, run_bfold, check_bfold)
        return [chif, bfold]

    def warmup_ops(self):
        # one graph on each side of the exact-LP lane switch (9 and 28 rows)
        return (self._pair(lambda: odd_cycle(9), closed=Fraction(9, 4))
                + self._pair(lambda: kneser(8, 2), closed=Fraction(4)))

    def round_ops(self, r):
        shape = self.shapes(r)
        ops = []
        for p in (0.25, 0.5):
            for lo, hi in ((12, 15), (14, 17)):   # cold exact tableau
                ops += self._pair(lambda: gnp(shape, shape.randint(lo, hi), p))
            for lo, hi in ((24, 30), (28, 36)):   # float propose + exact certify
                ops += self._pair(lambda: gnp(shape, shape.randint(lo, hi), p))
        ops += self._pair(lambda: triangles(shape.choice((7, 8))), closed=Fraction(3))
        ops += self._pair(lambda: gnp(shape, 32, 0.15))
        c = shape.choice((9, 11, 13, 15, 17, 19, 21))
        ops += self._pair(lambda: odd_cycle(c), closed=Fraction(c, (c - 1) // 2))
        m, k = shape.choice(((5, 2), (6, 2), (7, 2), (8, 2)))
        ops += self._pair(lambda: kneser(m, k), closed=Fraction(m, k))
        n = shape.randint(10, 20)
        jumps = shape.sample(range(1, n // 2 + 1), 2)
        ops += self._pair(lambda: circulant(n, jumps), vertex_transitive=True)
        return ops


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------


def _edge_list(graph) -> str:
    n, edges = graph
    return "".join([f"n {n}\n"] + [f"{u} {v}\n" for u, v in edges])


def _dimacs(graph) -> str:
    n, edges = graph
    return "".join([f"p edge {n} {len(edges)}\n"] + [f"e {u + 1} {v + 1}\n" for u, v in edges])


def _dist_text(p) -> str:
    return "".join(f"{v} {w}\n" for v, w in enumerate(p) if w)


def _members(entries, key):
    return [(frozenset(e["set"]), e[key]) for e in entries]


class CliMix(Workload):
    name = "cli-mix"
    round_seconds = 0.155
    trace_rounds = 40

    def __init__(self, gl, seed, workdir):
        super().__init__(gl, seed, workdir)
        import jsonschema

        with open(os.path.join(gl.root, "docs", "cli-json-schema.json"), encoding="utf-8") as fh:
            schema = json.load(fh)
        self.validators = {
            name: jsonschema.Draft202012Validator({"$ref": f"#/$defs/{name}", "$defs": schema["$defs"]})
            for name in ("entropy", "chif", "symmetric", "maximizer", "graph")
        }
        self.files = 0

    # -- inputs ------------------------------------------------------------

    def _write(self, text: str) -> str:
        self.files += 1
        path = os.path.join(self.workdir, f"in{self.files}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _graph_file(self, graph) -> tuple[str, str]:
        fmt = self.draw.rng.choice(("edge-list", "dimacs"))
        text = _edge_list(graph) if fmt == "edge-list" else _dimacs(graph)
        return self._write(text), fmt

    # -- operations ----------------------------------------------------------

    def _cli(self, command, argv, key, n, check, prepare=None) -> Op:
        gl = self.gl
        validator = self.validators["graph" if command in ("gadget", "blowup", "substitute", "union") else command]
        op = Op(f"cli.{command}", key, n, None, None, prepare)

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = gl.cli.main([command] + argv + ["--json"])
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            text = out.getvalue()
            op.stdout_bytes = len(text.encode())
            return code, text

        def full_check(res):
            code, text = res
            try:
                payload = json.loads(text)
            except ValueError:
                return [f"exit {code}, output is not JSON: {text[:80]!r}"]
            errs = [f"schema: {e.message}" for e in validator.iter_errors(payload)]
            return errs or check(code, payload)

        op.run, op.check = run, full_check
        return op

    def _chif(self, graph):
        path, fmt = self._graph_file(graph)
        g = self._graph(graph)

        def check(code, out):
            chi = Fraction(out["chi_f"])
            errs = [] if code == 0 else [f"exit {code}"]
            if abs(out["decimal"] - float(chi)) > 1e-12 * float(chi):
                errs.append("decimal differs from chi_f")
            sets = [(m, Fraction(w)) for m, w in _members(out["coloring"], "weight")]
            return errs + checks.coloring_errors(graph, chi, sets, alpha=self.gl.oracle.brute_alpha(g))

        return self._cli("chif", [path], _key("chif", graph, fmt), graph[0], check)

    def _entropy(self, graph, p):
        path, fmt = self._graph_file(graph)
        argv = [path] if p is None else [path, self._write(_dist_text(p))]
        weights = p or uniform(graph[0])
        g, dist = self._graph(graph), self._dist(weights)

        def check(code, out):
            errs = [] if code == 0 else [f"exit {code}"]
            coords = [out["minimizer"][str(v)] for v in range(graph[0])]
            return errs + checks.entropy_errors(
                graph, weights, value=out["value"], gap=out["gap"], converged=out["converged"],
                coords=coords, decomposition=_members(out["decomposition"], "weight"),
                tol=ENTROPY_TOL, brute=lambda: self.gl.oracle.brute_entropy(g, dist),
            )

        return self._cli("entropy", argv, _key("entropy", graph, fmt, p), graph[0], check)

    def _symmetric_check(self, holder, expect=None):
        """Check a `symmetric` answer for the graph in holder["graph"]."""
        oracle = self.gl.oracle

        def check(code, out):
            graph = holder["graph"]
            n = graph[0]
            g = self._graph(graph)
            yes = out["symmetric"]
            errs = [] if code == (0 if yes else 1) else [f"exit {code} with symmetric={yes}"]
            n_over_alpha = Fraction(n, oracle.brute_alpha(g))
            chi = Fraction(out["chi_f"])
            if Fraction(out["n_over_alpha"]) != n_over_alpha:
                errs.append(f"n/alpha reported {out['n_over_alpha']}, is {n_over_alpha}")
            if yes != (chi == n_over_alpha) or chi < n_over_alpha:
                errs.append(f"verdict {yes} with chi_f {chi} and n/alpha {n_over_alpha}")
            if expect is not None and yes != expect:
                errs.append(f"verdict {yes}, expected {expect}")
            if yes:
                cert = out["certificate"]
                errs += checks.certificate_errors(
                    oracle, g, self._dist(uniform(n)), cert["covered"], cert["fold"],
                    _members(cert["sets"], "multiplicity"))
            return errs

        return check

    def _maximizer_check(self, holder, expect=None):
        """Check a `maximizer` answer for holder["graph"] and holder["p"]."""
        oracle = self.gl.oracle

        def check(code, out):
            graph, p = holder["graph"], holder["p"]
            g, dist = self._graph(graph), self._dist(p)
            yes = out["maximizer"]
            errs = [] if code == (0 if yes else 1) else [f"exit {code} with maximizer={yes}"]
            alpha_p = oracle.brute_max_weight(g, p)[0]
            if Fraction(out["alpha_p"]) != alpha_p:
                errs.append(f"alpha_P reported {out['alpha_p']}, is {alpha_p}")
            # P maximizes H(G, .) iff chi_f(G[supp P]) * alpha_P = 1
            if yes != (Fraction(out["chi_f_support"]) * alpha_p == 1):
                errs.append(f"verdict {yes} with chi_f(supp) {out['chi_f_support']}, alpha_P {alpha_p}")
            if expect is not None and yes != expect:
                errs.append(f"verdict {yes}, expected {expect}")
            if yes:
                cert = out["certificate"]
                errs += checks.certificate_errors(
                    oracle, g, dist, cert["covered"], cert["fold"],
                    _members(cert["sets"], "multiplicity"))
            return errs

        return check

    def _symmetric(self, graph, expect=None):
        path, fmt = self._graph_file(graph)
        check = self._symmetric_check({"graph": graph}, expect)
        return self._cli("symmetric", [path], _key("symmetric", graph, fmt), graph[0], check)

    def _maximizer(self, graph, p, expect=None):
        path, fmt = self._graph_file(graph)
        argv = [path, self._write(_dist_text(p))]
        check = self._maximizer_check({"graph": graph, "p": p}, expect)
        return self._cli("maximizer", argv, _key("maximizer", graph, fmt, p), graph[0], check)

    def _construction(self, command, argv, key, n, ref, follow, follow_key, p=None, expect=None):
        """A construction op and a decision op run on the graph it printed."""
        built = self._cli(command, argv, key, n, lambda code, out: (
            [] if code == 0 else [f"exit {code}"]) + (
            [] if (out["n"], tuple(map(tuple, out["edges"]))) == ref
            else [f"{command} output differs from the reference construction"]))
        path = os.path.join(self.workdir, f"built{self.files}.txt")
        self.files += 1
        holder = {"graph": ref, "p": p}

        def prepare():
            # feed the program's own output back, as a user piping commands would
            code, text = built.result
            out = json.loads(text)
            holder["graph"] = (out["n"], tuple(map(tuple, out["edges"])))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_edge_list(holder["graph"]))

        if follow == "symmetric":
            check, argv2 = self._symmetric_check(holder, expect), [path]
        else:
            check, argv2 = self._maximizer_check(holder, expect), [path, self._write(_dist_text(p))]
        fed = self._cli(follow, argv2, f"{follow} <- {key} {follow_key}", ref[0], check, prepare)
        return [built, fed]

    def warmup_ops(self):
        return self.round_ops(-2) + self.round_ops(-1)

    def round_ops(self, r):
        d, rng = self.draw, self.draw.rng
        yes_round = r % 2 == 0
        ops = []

        def small(lo, hi, p=0.4):
            return d.fresh(lambda: gnp(rng, rng.randint(lo, hi), p))

        ops.append(self._chif(small(5, 12)))
        g = small(5, 12)
        ops.append(self._entropy(g, None if yes_round else weights(rng, g[0], zeros=g[0] // 4)))

        if yes_round:  # vertex-transitive or matched bipartite: symmetric
            family = rng.choice(("cycle", "kneser", "bipartite"))
            if family == "cycle":
                cycle = d.fresh(lambda: odd_cycle(rng.choice((7, 9, 11))))
                ops.append(self._symmetric(cycle, expect=True))
            elif family == "kneser":
                ops.append(self._symmetric(d.fresh(lambda: kneser(5, 2)), expect=True))
            else:
                h = rng.randint(3, 6)
                ops.append(self._symmetric(d.fresh(lambda: matched_bipartite(rng, 2 * h, 0.3)), expect=True))
        else:
            ops.append(self._symmetric(small(5, 12)))

        if yes_round:  # equal weight across a perfect matching of a bipartite graph
            h = rng.randint(3, 6)
            g = d.fresh(lambda: matched_bipartite(rng, 2 * h, 0.3))
            p = d.carry(paired(rng, 2 * h, rng.randint(2 * h, 24)))
            ops.append(self._maximizer(g, p, expect=True))
        else:
            g = small(5, 12)
            ops.append(self._maximizer(g, weights(rng, g[0], zeros=rng.randint(0, 2))))

        # gadget of f with k = 3: symmetric iff alpha(f) <= 2
        f = small(5, 5, 0.5)
        f_path, fmt = self._graph_file(f)
        f_alpha = self.gl.oracle.brute_alpha(self._graph(f))
        ops += self._construction(
            "gadget", [f_path, "--k", "3"], _key("gadget", f, fmt, 3), f[0],
            checks.gadget_ref(f, 3), "symmetric", "", expect=f_alpha <= 2)

        # blow-up along a maximizing P (matched bipartite) or a random one
        if yes_round:
            g = d.fresh(lambda: matched_bipartite(rng, 6, 0.4))
            p = d.carry(paired(rng, 6, rng.randint(6, 12)))
        else:
            g = small(4, 6)
            p = counts(rng, g[0], rng.randint(g[0], 12))
        g_path, fmt = self._graph_file(g)
        ops += self._construction(
            "blowup", [g_path, self._write(_dist_text(p))], _key("blowup", g, fmt, p), g[0],
            checks.blowup_ref(g, p), "symmetric", "", expect=True if yes_round else None)

        # substitution, then the substituted distribution on the result
        g, f = small(4, 7), small(5, 5)
        v = rng.randrange(g[0])
        p, q = weights(rng, g[0]), weights(rng, f[0])
        g_path, g_fmt = self._graph_file(g)
        f_path, f_fmt = self._graph_file(f)
        ref = checks.substitute_ref(g, v, f)[:2]
        pq = checks.substitute_dist_ref(p, v, q)
        ops += self._construction(
            "substitute", [g_path, str(v), f_path], _key("substitute", g, g_fmt, v, f, f_fmt), g[0] + f[0],
            ref, "maximizer", repr(pq), p=pq)

        # union of two sparse graphs on one vertex set
        n = rng.randint(5, 10)
        f = d.fresh(lambda: gnp(rng, n, 0.25))
        g = d.fresh(lambda: gnp(rng, n, 0.25))
        f_path, f_fmt = self._graph_file(f)
        g_path, g_fmt = self._graph_file(g)
        p = weights(rng, n)
        ops += self._construction(
            "union", [f_path, g_path], _key("union", f, f_fmt, g, g_fmt), n,
            checks.union_ref(f, g), "maximizer", repr(p), p=p)
        return ops


WORKLOADS = {w.name: w for w in (EntropySweep, ChifSweep, CliMix)}
