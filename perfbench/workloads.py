"""Workload definitions: the two verify commands and the query-mix catalogue.

The catalogue is a fixed list of CLI queries built from ``CATALOGUE_SEED``;
its golden outputs are recorded in ``golden/query-mix.json``.  A run's seed
only chooses which queries are sent, in which order (``iter_query_order``),
so every seed draws from queries whose outputs are known.  One query in
``LARGE_EVERY`` carries, on sector 0, an exponent between ``LARGE_MIN`` and
``LARGE_POW_MAX`` or an Adams index between ``LARGE_MIN`` and
``LARGE_ADAMS_MAX``: the paths on which ``sector_monomial`` and
``sector_adams`` take time linear in the index.  The rest are README-sized.
The caps keep every large query near the 300 ms that the largest take today.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterator

#: Placeholder in a verify argv that the child replaces with its report path.
OUT_PLACEHOLDER = "{out}"

VERIFY_WORKLOADS = {
    # n=5 is the largest weight whose line-elements suite derives lambda
    # operations; n=7 (phi(7) = 6) has the heaviest irrational scalar products.
    "verify-all-text": ("verify", "--n-min", "5", "--n-max", "7"),
    # n=8 has the largest dense n x n localized tables.
    "verify-oracle-json": (
        "verify", "--n-min", "8", "--n-max", "8",
        "--suite", "product-oracle", "--suite", "adams-oracle",
        "--json", "--out", OUT_PLACEHOLDER,
    ),
}
WORKLOADS = ("verify-all-text", "verify-oracle-json", "query-mix")

CATALOGUE_SEED = 20130214
CATALOGUE_SIZE = 2400
LARGE_EVERY = 10
LARGE_STRATUM = 8
LARGE_MIN, LARGE_POW_MAX, LARGE_ADAMS_MAX = 200, 2000, 3000
N_RANGE = range(2, 9)


@dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    large: bool


def _scalar(rng: random.Random, n: int) -> str:
    return rng.choice(
        ["2", "3", "(-1)", "1/2", "(-3/2)", "zeta", "(1 - zeta)", "zeta^%d" % rng.randrange(1, n)]
    )


def _term(rng: random.Random, atom: str, n: int) -> str:
    if rng.random() < 0.5:
        return atom
    return "%s*%s" % (_scalar(rng, n), atom)


def _sum(rng: random.Random, atoms: list[str], n: int) -> str:
    text = _term(rng, rng.choice(atoms), n)
    for _ in range(rng.randrange(3)):
        text += rng.choice([" + ", " - "]) + _term(rng, rng.choice(atoms), n)
    return text


def _sector_expr(rng: random.Random, n: int) -> str:
    def atom() -> str:
        m = rng.randrange(n)
        kind = rng.randrange(4)
        if kind == 0:
            return "one[%d]" % m
        if kind == 1:
            return "x[%d]" % m
        if kind == 2:
            return "x[%d]^%d" % (m, rng.choice([-2, -1, 2, 3, n, n + 1]))
        return "x[%d]*x[%d]" % (m, rng.randrange(n))

    return _sum(rng, [atom() for _ in range(3)], n)


def _line_atom(rng: random.Random, n: int) -> str:
    kind = rng.randrange(3)
    if kind == 0:
        return "sigma[%d]" % rng.randrange(n)
    if kind == 1:
        return "nu[%d]" % rng.randrange(n)
    f = ",".join(str(rng.randrange(n)) for _ in range(n))
    beta = ",".join(rng.choice(["0", "1", "2", "1/2", "zeta"]) for _ in range(n))
    return "L(%s; %s)" % (f, beta)


def _loc_expr(rng: random.Random, n: int) -> str:
    def atom() -> str:
        kind = rng.randrange(5)
        if kind == 0:
            return "e[%d,%d]" % (rng.randrange(n), rng.randrange(n))
        if kind == 1:
            return "xe[0,0]"
        if kind == 2:
            return "u[%d,%d]" % (rng.randrange(n), rng.randrange(n))
        if kind == 3:
            return _line_atom(rng, n)
        return "e[%d,%d]*e[%d,%d]" % (
            rng.randrange(n), rng.randrange(n), rng.randrange(n), rng.randrange(n))

    return _sum(rng, [atom() for _ in range(3)], n)


def _line_product(rng: random.Random, n: int) -> str:
    return "*".join(_line_atom(rng, n) for _ in range(rng.randrange(1, 4)))


def _flags(rng: random.Random, n: int, loc_value: bool) -> tuple[str, ...]:
    flags = ["--n", str(n)]
    if rng.random() < 0.15:
        flags.append("--json")
    if loc_value and rng.random() < 0.15:
        flags += ["--basis", "u"]
    return tuple(flags)


def _small_query(rng: random.Random) -> tuple[str, ...]:
    n = rng.choice(N_RANGE)
    verb = rng.choice(["eval", "eval", "mul", "adams", "localize", "delocalize", "line"])
    sector = rng.random() < 0.5
    side = _sector_expr if sector else _loc_expr
    if verb == "eval":
        text = side(rng, n)
        wrap = rng.randrange(4)
        if wrap == 1:
            text = "psi[%d](%s)" % (rng.randrange(2 * n + 1), text)
        elif wrap == 2:
            text = "(%s)^%d" % (text, rng.randrange(2, 4))
        elif wrap == 3:
            text = "%s(%s)" % ("gamma" if sector else "gammainv", text)
            sector = not sector
        return ("eval", text) + _flags(rng, n, not sector)
    if verb == "mul":
        return ("mul", side(rng, n), side(rng, n)) + _flags(rng, n, not sector)
    if verb == "adams":
        k = rng.randrange(1, 2 * n + 1)
        return ("adams", str(k), side(rng, n)) + _flags(rng, n, not sector)
    if verb == "localize":
        return ("localize", _sector_expr(rng, n)) + _flags(rng, n, True)
    if verb == "delocalize":
        return ("delocalize", _loc_expr(rng, n)) + _flags(rng, n, False)
    text = _line_product(rng, n) if rng.random() < 0.7 else _loc_expr(rng, n)
    return ("line", text) + _flags(rng, n, False)


def _large_query(rng: random.Random) -> tuple[str, ...]:
    n = rng.choice(N_RANGE)
    kind = rng.randrange(5)
    big = rng.randrange(LARGE_MIN, (LARGE_POW_MAX if kind in (0, 4) else LARGE_ADAMS_MAX) + 1)
    if kind == 0:
        return ("eval", "x[0]^%d" % big) + _flags(rng, n, False)
    if kind == 1:
        return ("eval", "psi[%d](x[0])" % big) + _flags(rng, n, False)
    if kind == 2:
        other = "%s*x[%d]" % (_scalar(rng, n), rng.randrange(n))
        return ("eval", "psi[%d](x[0] + %s)" % (big, other)) + _flags(rng, n, False)
    if kind == 3:
        return ("adams", str(big), "x[0]") + _flags(rng, n, False)
    return ("localize", "x[0]^%d" % big) + _flags(rng, n, True)


def catalogue(seed: int = CATALOGUE_SEED, size: int = CATALOGUE_SIZE) -> list[Query]:
    """The deterministic query catalogue; entry i is large iff i % LARGE_EVERY == 0."""
    rng = random.Random(seed)
    out = []
    for i in range(size):
        large = i % LARGE_EVERY == 0
        out.append(Query(_large_query(rng) if large else _small_query(rng), large))
    return out


def iter_query_order(seed: int, queries: list[Query]) -> Iterator[int]:
    """Catalogue indices, endlessly, in the order a run with ``seed`` sends them.

    Every block of ``LARGE_EVERY`` consecutive queries holds one large query.
    Large queries vary in cost by two orders of magnitude, so that every run
    sends the same mix of costs they are sorted by (verb, n, index) into
    strata of ``LARGE_STRATUM`` neighbours; each round sends one query from
    every stratum, in a shuffled order.  The small queries are shuffled, and
    reshuffled each time they are exhausted.
    """
    rng = random.Random(seed)
    large = sorted((i for i, q in enumerate(queries) if q.large), key=lambda i: _cost_key(queries[i]))
    strata = [large[k:k + LARGE_STRATUM] for k in range(0, len(large), LARGE_STRATUM)]
    small = [i for i, q in enumerate(queries) if not q.large]
    small_iter = iter(())
    while True:
        for stratum in strata:
            rng.shuffle(stratum)
        for r in range(LARGE_STRATUM):
            round_ = [stratum[r] for stratum in strata if r < len(stratum)]
            rng.shuffle(round_)
            for big in round_:
                yield big
                for _ in range(LARGE_EVERY - 1):
                    index = next(small_iter, None)
                    if index is None:
                        rng.shuffle(small)
                        small_iter = iter(small)
                        index = next(small_iter)
                    yield index


def _cost_key(q: Query) -> tuple:
    """Sort key that puts large queries of similar cost next to each other:
    the query's shape with numbers masked, then n, then the large index."""
    n_at = q.argv.index("--n")
    head = " ".join(q.argv[:n_at])
    return (re.sub(r"\d+", "#", head), int(q.argv[n_at + 1]), max(map(int, re.findall(r"\d+", head))))
