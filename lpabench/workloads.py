"""Inputs of the three workloads and the per-input calls that mirror the CLI.

Every input carries a key into ``golden.json``, where the real CLI's output
digest for that input was recorded.  Seeded parts draw a subset of a fixed,
recorded pool, so any ``--seed`` gives inputs whose expected bytes are known;
the ladders and roses are the same in every run.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Optional

# Pools.  Their generator seeds are the test suite's campaign seeds, so the
# pools extend campaign500 and campaign100.  Each run draws about four
# fifths of a pool: two seeds share most inputs, which keeps the spread of a
# workload's figures across seeds within the benchmark's bounds.
CAMPAIGN_POOL = dict(seed=20260823, count=2500, max_vertices=6, max_edges=12)
ORACLE_POOL = dict(seed=7, count=240, max_vertices=5, max_edges=10)
SPARSE_POOL = dict(seed=20260824, count=13, vertices=100, edges=125)

# Per-run composition.  The number of inputs is fixed per workload so that
# the tail percentile (highest with at least ten inputs beyond it) never
# changes with speed.
CAMPAIGN_N = 2000
ORACLE_RANDOM_N = 190
ROSE_SIZES = (3, 4, 5)
ROSE_MAX_LEN = 4
ROSE_FIELDS = ("q", "p:7")
LINE_SIZES = (2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 25, 32, 40, 50, 64, 80, 100, 128, 160, 200)
CYCLE_SIZES = tuple(range(1, 15))
SPARSE_N = 10

# The smallest size of each family, for the smoke test.
SMALLEST = dict(campaign=20, oracle_random=10, rose=(3,), line=(2,), cycle=(1,), sparse=1)


@dataclass(frozen=True)
class Input:
    """One input of a workload and the CLI invocation it stands for."""

    key: str  # golden.json key
    family: str  # row label in the per-size table
    size: int
    graph: object  # lpa.graphs.Graph
    text: Optional[str] = None  # serialized document for the `center` paths
    index: Optional[int] = None  # `lpa random` stream index
    oracle: bool = False
    field: str = "q"
    max_len: Optional[int] = None

    def cli_args(self, path: str) -> list[str]:
        """Arguments of `lpa center` for this input read from `path`."""
        args = ["center", path, "--verify"]
        if self.oracle:
            args.append("--oracle")
        if self.max_len is not None:
            args += ["--max-len", str(self.max_len)]
        if self.field != "q":
            args += ["--field", self.field]
        return args


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- graph families ------------------------------------------------------------


def line_graph(lpa, n: int):
    """L_n: v1 -> v2 -> ... -> vn."""
    Edge, Graph = lpa.graphs.Edge, lpa.graphs.Graph
    vs = [f"v{i}" for i in range(1, n + 1)]
    return Graph(vs, [Edge(f"e{i}", vs[i - 1], vs[i]) for i in range(1, n)])


def cycle_graph(lpa, n: int):
    """C_n: a no-exit n-cycle plus one entry edge from a tail vertex t."""
    Edge, Graph = lpa.graphs.Edge, lpa.graphs.Graph
    vs = [f"v{i}" for i in range(1, n + 1)]
    es = [Edge(f"e{i}", vs[i - 1], vs[i % n]) for i in range(1, n + 1)]
    return Graph(vs + ["t"], es + [Edge("f", "t", "v1")])


def rose_graph(lpa, n: int):
    """R_n: one vertex with n loops."""
    Edge, Graph = lpa.graphs.Edge, lpa.graphs.Graph
    return Graph(["v"], [Edge(f"e{i}", "v", "v") for i in range(1, n + 1)])


def _stream(lpa, p) -> list:
    return list(
        lpa.randomgen.graph_stream(p["seed"], p["count"], p["max_vertices"], p["max_edges"])
    )


def sparse_pool(lpa) -> list:
    """Random multigraphs with fixed vertex and edge counts, endpoints uniform."""
    Edge, Graph = lpa.graphs.Edge, lpa.graphs.Graph
    p = SPARSE_POOL
    rng = random.Random(p["seed"])
    vs = [f"v{i}" for i in range(1, p["vertices"] + 1)]
    return [
        Graph(vs, [Edge(f"e{j}", rng.choice(vs), rng.choice(vs)) for j in range(1, p["edges"] + 1)])
        for _ in range(p["count"])
    ]


def serialize(graph) -> str:
    return json.dumps(graph.to_document(), indent=2) + "\n"


def _picks(seed: int, salt: str, pool: list, n: int, smallest: Optional[int]) -> list[int]:
    """Pool indices of a run: n drawn by seed, stratified by (vertices, edges).

    Every (vertex count, edge count) cell gives its share of the n picks
    (largest remainders get the odd ones), so every seed runs the same mix of
    sizes and the seed only varies which graphs of each size.
    """
    if smallest is not None:
        return list(range(smallest))
    cells: dict[tuple, list[int]] = {}
    for i, g in enumerate(pool):
        cells.setdefault((len(g.vertices), len(g.edges)), []).append(i)
    quota = {k: n * len(v) / len(pool) for k, v in cells.items()}
    count = {k: int(q) for k, q in quota.items()}
    for k in sorted(cells, key=lambda k: (count[k] - quota[k], k))[: n - sum(count.values())]:
        count[k] += 1
    rng = random.Random(f"{salt}:{seed}")
    return sorted(i for k in sorted(cells) for i in rng.sample(cells[k], count[k]))


# -- inputs ----------------------------------------------------------------------


def _center_input(key, family, size, graph, **kw) -> Input:
    return Input(key, family, size, graph, text=serialize(graph), **kw)


def _campaign(i, g) -> Input:
    return Input(f"campaign/{i}", "random", len(g.vertices), g, index=i)


def _oracle_random(i, g) -> Input:
    return _center_input(f"oracle/random/{i}", "random", len(g.vertices), g, oracle=True)


def _sparse(i, g) -> Input:
    return _center_input(f"structure/sparse/{i}", "sparse", len(g.vertices), g)


def _roses(lpa, sizes) -> list[Input]:
    return [
        _center_input(
            f"oracle/rose/R{n}/L{ROSE_MAX_LEN}/{field}", f"rose L={ROSE_MAX_LEN} {field}", n,
            rose_graph(lpa, n), oracle=True, field=field, max_len=ROSE_MAX_LEN,
        )
        for n in sizes
        for field in ROSE_FIELDS
    ]


def _ladders(lpa, lines, cycles) -> list[Input]:
    return [
        _center_input(f"structure/line/{n}", "line", n, line_graph(lpa, n)) for n in lines
    ] + [
        _center_input(f"structure/cycle/{n}", "cycle", n, cycle_graph(lpa, n)) for n in cycles
    ]


def campaign_inputs(lpa, seed: int, smallest: bool = False) -> list[Input]:
    pool = _stream(lpa, CAMPAIGN_POOL)
    picks = _picks(seed, "campaign", pool, CAMPAIGN_N, SMALLEST["campaign"] if smallest else None)
    return [_campaign(i, pool[i]) for i in picks]


def oracle_inputs(lpa, seed: int, smallest: bool = False) -> list[Input]:
    pool = _stream(lpa, ORACLE_POOL)
    picks = _picks(seed, "oracle", pool, ORACLE_RANDOM_N,
                   SMALLEST["oracle_random"] if smallest else None)
    return [_oracle_random(i, pool[i]) for i in picks] + _roses(
        lpa, SMALLEST["rose"] if smallest else ROSE_SIZES
    )


def structure_inputs(lpa, seed: int, smallest: bool = False) -> list[Input]:
    pool = sparse_pool(lpa)
    picks = _picks(seed, "sparse", pool, SPARSE_N, SMALLEST["sparse"] if smallest else None)
    if smallest:
        ladders = _ladders(lpa, SMALLEST["line"], SMALLEST["cycle"])
    else:
        ladders = _ladders(lpa, LINE_SIZES, CYCLE_SIZES)
    return ladders + [_sparse(i, pool[i]) for i in picks]


BUILDERS = {"campaign": campaign_inputs, "oracle": oracle_inputs, "structure": structure_inputs}


def all_pool_inputs(lpa) -> list[Input]:
    """Every input any seed can draw, for recording golden digests."""
    return (
        [_campaign(i, g) for i, g in enumerate(_stream(lpa, CAMPAIGN_POOL))]
        + [_oracle_random(i, g) for i, g in enumerate(_stream(lpa, ORACLE_POOL))]
        + _roses(lpa, ROSE_SIZES)
        + _ladders(lpa, LINE_SIZES, CYCLE_SIZES)
        + [_sparse(i, g) for i, g in enumerate(sparse_pool(lpa))]
    )


# -- the calls the CLI makes -------------------------------------------------------


class CheckFailed(Exception):
    """An output that ran to completion but is wrong."""


def parse_field(lpa, text: str):
    if text == "q":
        return lpa.fields.QQ
    return lpa.fields.PrimeField(int(text.removeprefix("p:")))


def _require_central(env) -> None:
    failing = [label for label, res in env.verification or [] if not res.central]
    if failing:
        raise CheckFailed(f"basis elements not central: {failing}")


def run_campaign(lpa, inp: Input, span) -> str:
    """One graph of `lpa random`: build_envelope(verify=True), then its JSON."""
    env = lpa.reports.build_envelope(inp.graph, with_center=True, verify=True)
    doc = env.to_json()
    doc["index"] = inp.index
    with span("reports", "dumps"):
        text = json.dumps(doc, indent=2) + "\n"
    _require_central(env)
    return text


def run_center(lpa, inp: Input, span) -> str:
    """`lpa center <file> --verify [--oracle] [--max-len L] [--field F]`.

    The oracle steps repeat `lpa.cli._run_oracle` through the public
    functions of `lpa.center`, so the benchmark depends on no private name.
    """
    center = lpa.center
    g = lpa.graphs.parse_graph(inp.text)
    env = lpa.reports.build_envelope(
        g, field=parse_field(lpa, inp.field), with_center=True, verify=True
    )
    if inp.oracle:
        by_degree = {0: list(env.center.basis_zero)}
        for n, elems in env.center.basis_nonzero.items():
            by_degree.setdefault(n, []).extend(elems)
        env.oracle_checks = []
        for n in sorted(by_degree):
            elems = by_degree[n]
            bound = inp.max_len if inp.max_len is not None else center.required_oracle_bound(elems)
            center.check_oracle_bound(elems, bound)
            commutant = center.oracle_commutant(env.algebra, n, bound)
            ok = center.same_span(env.algebra, [b.element for b in elems], commutant)
            env.oracle_checks.append((n, bound, ok))
    text = env.dumps() + "\n"
    _require_central(env)
    if inp.oracle and not all(ok for _, _, ok in env.oracle_checks):
        raise CheckFailed("oracle span disagrees")
    return text


RUNNERS = {"campaign": run_campaign, "oracle": run_center, "structure": run_center}
