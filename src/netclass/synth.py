"""Erdős–Rényi and Barabási–Albert generators plus corpus assembly.

Both generators follow Batagelj & Brandes (Phys. Rev. E 71, 036113, 2005)
and take O(n + m) time and memory: Erdős–Rényi jumps from one kept node
pair to the next by geometric skips, and Barabási–Albert picks each target
from the array of every edge end so far.

Randomness follows the package seeding contract: graph index i under a
spec's master seed consumes derive_seed(master, 2*i) for its parameters and
derive_seed(master, 2*i + 1) for its edges, so corpora are reproducible
graph-by-graph and independent of generation order.

parse_generator_spec checks a spec file's syntax, GeneratorSpec its family
rules (FAMILY_RANGES) and values; no rule is checked in both.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graph import MAX_NODES, Graph, _build_graph, _starts
from .seeding import derive_seed, make_rng

# Each family and the parameter ranges it takes; a spec sets exactly one.
FAMILY_RANGES = {"ER": ("p", "avg_degree"), "BA": ("m",)}


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each of the C(n, 2) pairs kept independently with probability p.

    The pairs (i, j), i < j, are numbered k = 0 .. C(n, 2) - 1 in row-major
    order.  As in Batagelj & Brandes (Phys. Rev. E 71, 036113, 2005), the
    next kept pair lies a Geometric(p) gap after the last one, so the method
    draws one number per edge (plus one) and takes O(n + m) time and memory.
    p = 0 and p = 1 draw nothing.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    pairs = n * (n - 1) // 2
    if p == 1.0:
        k = np.arange(pairs, dtype=np.int64)
    elif p == 0.0 or pairs == 0:
        k = np.zeros(0, dtype=np.int64)
    else:
        k = _skip_pairs(pairs, p, make_rng(seed))
    lengths = np.arange(n - 1, 0, -1, dtype=np.int64)  # row i holds pairs (i, j > i)
    offsets = np.cumsum(lengths) - lengths  # number of row i's first pair
    u = np.searchsorted(offsets, k, side="right") - 1
    return _build_graph(n, u, k - offsets[u] + u + 1)


def _skip_pairs(pairs: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted numbers of the kept pairs among `pairs`, each kept with 0 < p < 1.

    `Generator.geometric` runs numpy's scalar C sampler, so the gaps hold
    their bits under every SIMD target numpy may dispatch to.
    """
    kept = []
    last = -1  # number of the last kept pair
    while last < pairs:
        # Enough gaps, nearly always, to pass the end in one batch, but no
        # more than can be summed in int64: each gap is clipped at the
        # distance past the end, at most pairs + 1.  Batching moves no byte,
        # since the gaps come from the stream in order either way.
        mean = p * (pairs - 1 - last)
        size = int(mean + 4.0 * math.sqrt(mean)) + 1
        size = min(size, np.iinfo(np.int64).max // (pairs + 1))
        k = np.cumsum(np.minimum(rng.geometric(p, size), pairs - last)) + last
        kept.append(k[k < pairs])
        last = int(k[-1])
    return np.concatenate(kept)


def barabasi_albert(n: int, m: int, seed: int) -> Graph:
    """Preferential attachment starting from a complete graph on m nodes.

    Each new node takes m distinct targets, each drawn with probability
    proportional to current degree (repeats are rejected), so the edge count
    is C(m, 2) + m*(n - m).  As in Batagelj & Brandes (Phys. Rev. E 71,
    036113, 2005), a target is a uniform pick from the array of every edge
    end so far.  The missing targets are drawn in one call: random(k) gives
    the same doubles as k scalar calls and a draw adds at most one new
    target, so this is the one-at-a-time rejection loop.
    """
    if m < 1 or m >= n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    rng = make_rng(seed)
    us, vs = np.triu_indices(m, 1)
    # The clique's ends, then per new node its sorted targets and m copies
    # of itself; ends[:size] is filled.
    ends = np.concatenate([us, vs, np.empty(2 * m * (n - m), dtype=np.int64)])
    size = 2 * len(us)
    for t in range(m, n):
        # Only node 1 of m = 1 finds no ends: it takes node 0, with no draw.
        chosen = ends[:0] if size else np.zeros(1, dtype=np.int64)
        while len(chosen) < m:
            drawn = ends[(rng.random(m - len(chosen)) * size).astype(np.int64)]
            chosen = np.sort(np.concatenate([chosen, drawn]))
            chosen = chosen[_starts(chosen)]
        ends[size:size + m] = chosen
        ends[size + m:size + 2 * m] = t
        size += 2 * m
    rows = ends[2 * len(us):].reshape(n - m, 2, m)
    u = np.concatenate([us, rows[:, 0].ravel()])
    v = np.concatenate([vs, rows[:, 1].ravel()])
    del ends, rows
    return _build_graph(n, u, v)


@dataclass(frozen=True)
class GeneratorSpec:
    """One batch of same-family graphs with parameter ranges and a master seed.

    ER specs take either an explicit probability range or an expected
    average-degree range (p is then min(degree/(n-1), 1)); BA specs take an
    attachment-count range.  Exactly one of its family's FAMILY_RANGES is
    set, and no other.  Node counts are drawn log-uniformly.  A spec is
    checked when it is built, so an invalid one cannot exist.
    """

    family: str
    count: int
    nodes_range: tuple[int, int]
    master_seed: int
    p_range: "tuple[float, float] | None" = None
    avg_degree_range: "tuple[float, float] | None" = None
    m_range: "tuple[int, int] | None" = None

    def __post_init__(self):
        if self.family not in FAMILY_RANGES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.count < 0:
            raise ValueError("count must be non-negative")
        lo, hi = self.nodes_range
        if not 1 <= lo <= hi:
            raise ValueError(f"bad node range [{lo}, {hi}]")
        if hi > MAX_NODES:
            raise ValueError(f"{hi} nodes exceed the limit of {MAX_NODES}")
        takes = FAMILY_RANGES[self.family]
        given = [key for keys in FAMILY_RANGES.values() for key in keys
                 if getattr(self, f"{key}_range") is not None]
        if len(given) != 1 or given[0] not in takes:
            raise ValueError(f"{self.family} spec needs exactly one range of "
                             f"{' or '.join(takes)} and no other, got {given or 'none'}")
        if self.p_range is not None:
            plo, phi = self.p_range
            if not 0.0 <= plo <= phi <= 1.0:
                raise ValueError(f"bad probability range [{plo}, {phi}]")
        if self.avg_degree_range is not None:
            dlo, dhi = self.avg_degree_range
            if not (0.0 <= dlo <= dhi and math.isfinite(dhi)):
                raise ValueError(f"bad degree range [{dlo}, {dhi}]")
        if self.m_range is not None:
            mlo, mhi = self.m_range
            if not 1 <= mlo <= mhi < lo:
                raise ValueError(f"need 1 <= m_lo <= m_hi < n_lo, got [{mlo}, {mhi}]")


@dataclass(frozen=True)
class CorpusEntry:
    """One generated graph plus the manifest metadata describing it."""

    name: str
    category: str
    graph: Graph
    params: str
    seed: int


def _draw_nodes(rng: np.random.Generator, lo: int, hi: int) -> int:
    n = int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))
    return min(max(n, lo), hi)


def generate_entry(spec: GeneratorSpec, local_index: int, global_index: int) -> CorpusEntry:
    """Realize one graph of a spec.

    Graph i of a spec draws its parameters with derive_seed(master, 2i) and
    builds the graph with derive_seed(master, 2i+1), so entries can be
    produced independently and in any order.
    """
    prng = make_rng(derive_seed(spec.master_seed, 2 * local_index))
    graph_seed = derive_seed(spec.master_seed, 2 * local_index + 1)
    n = _draw_nodes(prng, *spec.nodes_range)
    if spec.family == "ER":
        if spec.p_range is not None:
            p = float(prng.uniform(*spec.p_range))
        else:
            d = float(prng.uniform(*spec.avg_degree_range))
            p = min(d / (n - 1), 1.0) if n > 1 else 0.0
        graph = erdos_renyi(n, p, graph_seed)
        params = f"p={format(p, '.17g')}"
    else:
        mlo, mhi = spec.m_range
        m = int(prng.integers(mlo, mhi + 1))
        graph = barabasi_albert(n, m, graph_seed)
        params = f"m={m}"
    return CorpusEntry(
        name=f"{spec.family.lower()}_{global_index:04d}",
        category=spec.family,
        graph=graph,
        params=params,
        seed=graph_seed,
    )


def generate_corpus(specs: Iterable[GeneratorSpec]) -> list[CorpusEntry]:
    """Realize every spec in order, naming graphs by global corpus index."""
    entries: list[CorpusEntry] = []
    index = 0
    for spec in specs:
        for i in range(spec.count):
            entries.append(generate_entry(spec, i, index))
            index += 1
    return entries


def default_corpus_specs(master_seed: int) -> list[GeneratorSpec]:
    """The stock 125-graph corpus: 50 BA then 75 ER graphs."""
    return [
        GeneratorSpec(
            family="BA",
            count=50,
            nodes_range=(100, 2000),
            m_range=(2, 10),
            master_seed=derive_seed(master_seed, 0),
        ),
        GeneratorSpec(
            family="ER",
            count=75,
            nodes_range=(100, 2000),
            avg_degree_range=(4.0, 50.0),
            master_seed=derive_seed(master_seed, 1),
        ),
    ]


# The <key>_min/<key>_max pairs a section may hold, and their value type.
_RANGES = {"nodes": int, "p": float, "avg_degree": float, "m": int}


def parse_generator_spec(text: str, default_master: int) -> list[GeneratorSpec]:
    """Parse a sectioned key=value corpus spec file.

    An optional [corpus] section sets master_seed (falling back to
    `default_master`); each [ba]/[er] section describes one GeneratorSpec.
    A family section without an explicit seed gets one derived from the
    corpus master and its position in the file.  Only the syntax is checked
    here (section names, keys, count and nodes present, ranges as _min/_max
    pairs); the family rules and values are GeneratorSpec's, whose errors
    read "bad [<section>] section: ...".
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"malformed generator spec: {exc}") from None

    master = default_master
    if parser.has_section("corpus"):
        extra = set(parser["corpus"]) - {"master_seed"}
        if extra:
            raise ValueError(f"unknown [corpus] keys: {sorted(extra)}")
        if "master_seed" in parser["corpus"]:
            master = parser.getint("corpus", "master_seed")

    specs = []
    family_sections = [s for s in parser.sections() if s != "corpus"]
    for idx, section in enumerate(family_sections):
        # Sections are "[ba]"/"[er]", optionally qualified ("[er sparse]")
        # since a file may describe several corpora of one family.
        family = section.split()[0].upper() if section.split() else section
        if family not in FAMILY_RANGES:
            raise ValueError(f"unknown generator section [{section}]")
        get = parser[section]
        extra = set(get) - {"count", "seed", *(f"{key}_{end}" for key in _RANGES
                                               for end in ("min", "max"))}
        if extra:
            raise ValueError(f"unknown keys in [{section}]: {sorted(extra)}")
        missing = {"count", "nodes_min", "nodes_max"} - set(get)
        if missing:
            raise ValueError(f"[{section}] missing keys: {sorted(missing)}")
        for key in _RANGES:
            if (f"{key}_min" in get) != (f"{key}_max" in get):
                raise ValueError(f"[{section}] needs both {key}_min and {key}_max")
        try:
            spec = GeneratorSpec(
                family=family,
                count=get.getint("count"),
                **{
                    f"{key}_range": (kind(get[f"{key}_min"]), kind(get[f"{key}_max"]))
                    for key, kind in _RANGES.items()
                    if f"{key}_min" in get
                },
                master_seed=get.getint("seed") if "seed" in get else derive_seed(master, idx),
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad [{section}] section: {exc}") from None
        specs.append(spec)
    return specs
