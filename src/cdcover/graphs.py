"""Undirected simple graphs with dense integer vertex ids.

Provides the plain graph value type, cycles in canonical form, parsing and
serialization (graph6 and edge-list text), and the topological primitives the
rest of the package is built on. One lowpoint search, `lowpoint_search`,
is the package's one search for connectivity and cuts: connectivity and
bridges here, and the components and Type X cut vertices of a colored
graph in the coloring module, are read from it.

All values are immutable after construction; every operation returns new
values. The package's public records are plain classes on `_Record`, which
makes them values: compared, hashed and shown by their fields. A fact
derived from a value, such as a graph's neighbor tuples, is computed on
its first read and kept by `cached_property`, which takes no lock.
"""
from __future__ import annotations

import math

Edge = tuple[int, int]


class GraphError(ValueError):
    """Malformed graph input or an illegal graph operation."""


def edge(u: int, v: int) -> Edge:
    """Canonical unordered edge (u, v) with u < v."""
    if u == v:
        raise GraphError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def check_edge(e: object, n: int) -> None:
    """Raise GraphError unless e is a canonical edge (u, v), u < v, of a
    graph on vertices 0..n-1."""
    if not (isinstance(e, tuple) and len(e) == 2):
        raise GraphError(f"bad edge {e!r}")
    u, v = e
    if not (0 <= u < v < n):
        raise GraphError(f"edge {e} out of range for n={n}")


class cached_property:
    """A fact of a value, computed on its first read and stored under the
    function's name in the instance `__dict__`, where every later read
    finds it before this descriptor. Unlike `functools.cached_property` on
    Python 3.11, it takes no lock: the values it caches are immutable, and
    a fact computed twice is the same fact."""

    def __init__(self, func) -> None:
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, cls):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class _Record:
    """The base of the package's public records. A record's fields are the
    parameters of its class's `__init__`, in order, which sets them once,
    by name, through `_set`. Records of one class with equal fields are equal and hash
    alike, as the tuple of their fields does; records of two classes are
    never equal. The repr is `Name(field=value, ...)`, and assigning or
    deleting an attribute raises AttributeError. The fields sit in the
    instance `__dict__`, beside the values of cached properties."""

    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _set(self, **fields) -> None:
        self.__dict__.update(fields)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(_Record):
    """Simple undirected graph on vertices 0..n-1.

    Isolated vertices are representable: `n` may exceed the number of
    vertices that appear in `edges`.
    """

    def __init__(self, n: int, edges: frozenset[Edge]) -> None:
        if n < 0:
            raise GraphError(f"negative vertex count {n}")
        for e in edges:
            check_edge(e, n)
        self._set(n=n, edges=edges)

    @staticmethod
    def from_edges(n: int, pairs) -> "Graph":
        """The graph on n vertices with the edges of `pairs`, each in either
        order: a plain `Graph`, also when called on a subclass."""
        return Graph(n, frozenset(edge(u, v) for u, v in pairs))

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(b)) for b in nbrs)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return edge(u, v) in self.edges

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def connectivity(self) -> tuple[bool, frozenset[Edge]]:
        """(connected, bridges), both from one `lowpoint_search`: whether
        the graph has at most one component, counting isolated vertices,
        and the edges whose removal disconnects their component, the tree
        edges (u, c) with low[c] > disc[u]."""
        adj = self.adj
        disc, low, _, trees, split = lowpoint_search(adj)
        connected = len(trees) + sum(not nbrs for nbrs in adj) <= 1
        return connected, frozenset(edge(u, c) for u, kids in split.items()
                                    for c in kids if low[c] > disc[u])


class Cycle(_Record):
    """A vertex-simple cycle, stored canonically.

    Canonical form: rotated so the minimum vertex is first, oriented so the
    second entry is the smaller of the first vertex's two cycle neighbors.
    This makes equality and set membership well defined.
    """

    def __init__(self, vertices: tuple[int, ...]) -> None:
        seq = tuple(vertices)
        if len(seq) < 3:
            raise GraphError(f"cycle needs at least 3 vertices, got {seq}")
        if len(set(seq)) != len(seq):
            raise GraphError(f"repeated vertex in cycle {seq}")
        i = seq.index(min(seq))
        rot = seq[i:] + seq[:i]
        if rot[1] > rot[-1]:
            rot = (rot[0],) + tuple(reversed(rot[1:]))
        self._set(vertices=rot)

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, v: int) -> bool:
        return v in self.vertices

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The cycle's edges in order, edge i joining vertices i and i+1.

        Cached like `Graph.adj`; equality and hashing use `vertices` only."""
        vs = self.vertices
        return tuple(edge(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))

    def is_cycle_of(self, g: Graph) -> bool:
        return all(e in g.edges for e in self.edges)


# ---------------------------------------------------------------------------
# basic structure queries


def is_cubic(g: Graph) -> bool:
    """True iff every vertex has degree exactly 3."""
    return all(g.degree(v) == 3 for v in range(g.n))


def lowpoint_search(adj: tuple[tuple[int, ...], ...]) -> tuple[
        list[int], list[int], list[int], list[list[int]], dict[int, list[int]]]:
    """One iterative lowpoint depth-first search (Tarjan 1972) of the graph
    with neighbor tuples `adj`, in O(V+E): the package's one search for
    connectivity and cuts. It starts one DFS tree at the least vertex of
    each edge-bearing component, so the trees are the components, in order
    of least vertex.

    Returns (disc, low, last, trees, split):
      * disc[v], v's discovery time, -1 for an isolated vertex;
      * low[v], the least of disc[v] and the discovery times that v's
        subtree reaches by one back edge;
      * last[v], the latest discovery time in v's subtree, so that the
        subtree is the range [disc[v], last[v]];
      * trees, each tree's vertices in discovery order;
      * split[u], for each vertex u that has one, the children c whose
        subtrees u separates, low[c] >= disc[u]. Such a tree edge (u, c) is
        a bridge when low[c] > disc[u].
    """
    n = len(adj)
    disc = [-1] * n
    low = [0] * n
    last = [0] * n
    split: dict[int, list[int]] = {}
    trees = []
    timer = 0
    for root in range(n):
        if disc[root] != -1 or not adj[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        tree = [root]
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, parent, it = stack[-1]
            for w in it:
                dw = disc[w]
                if dw == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    tree.append(w)
                    stack.append((w, v, iter(adj[w])))
                    break
                if dw < low[v] and w != parent:  # graphs are simple
                    low[v] = dw
            else:
                stack.pop()
                last[v] = timer - 1
                if stack:
                    u = stack[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] >= disc[u]:
                        split.setdefault(u, []).append(v)
        trees.append(tree)
    return disc, low, last, trees, split


def is_connected(g: Graph) -> bool:
    """At most one component, counting isolated vertices. Read from
    `Graph.connectivity`, which `find_bridges` shares, so the input checks
    search a graph once."""
    return g.connectivity[0]


def find_bridges(g: Graph) -> frozenset[Edge]:
    """All edges whose removal disconnects their component, read from
    `Graph.connectivity`."""
    return g.connectivity[1]


# ---------------------------------------------------------------------------
# graph6 format (McKay's encoding), one graph per line. Bit k of the body,
# 6 bits to a byte from the high bit down, is edge (u, v), u < v, for
# k = v(v-1)/2 + u; each byte holds 63 plus its 6 bits.

_G6_DIGITS = bytes.maketrans(bytes(range(64)), bytes(range(63, 127)))


def _g6_decode_n(data: bytes) -> tuple[int, int]:
    """Return (n, offset of first adjacency byte)."""
    if not data:
        raise GraphError("graph6 parse error at byte 0: empty input (truncated)")
    b0 = data[0]
    if b0 != 126:
        if not (63 <= b0 <= 125):
            raise GraphError(f"graph6 parse error at byte 0: bad header byte {b0}")
        return b0 - 63, 1
    if len(data) < 4:
        raise GraphError(f"graph6 parse error at byte {len(data)}: truncated extended header")
    if data[1] == 126:
        raise GraphError("graph6 parse error at byte 1: vertex counts above 258047 unsupported")
    n = 0
    for i in (1, 2, 3):
        b = data[i]
        if not (63 <= b <= 126):
            raise GraphError(f"graph6 parse error at byte {i}: out-of-range character {b}")
        n = (n << 6) | (b - 63)
    return n, 4


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 line into a Graph.

    Accepts an optional ">>graph6<<" prefix and trailing whitespace.
    Errors carry the byte offset of the offending character; a non-ASCII
    character is refused, not replaced.
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as err:  # every character before it is one byte
        raise GraphError(
            f"graph6 parse error at byte {err.start}: non-ASCII character") from None
    n, off = _g6_decode_n(data)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[off:]
    if len(body) < nbytes:
        raise GraphError(
            f"graph6 parse error at byte {off + len(body)}: truncated bit-vector "
            f"(need {nbytes} bytes, got {len(body)})")
    if len(body) > nbytes:
        raise GraphError(f"graph6 parse error at byte {off + nbytes}: trailing data")
    edges = []
    for i, b in enumerate(body):
        if b == 63:  # "?", no bit set
            continue
        if not (63 < b <= 126):
            raise GraphError(f"graph6 parse error at byte {off + i}: out-of-range character {b}")
        x = b - 63
        for j in range(6):
            k = 6 * i + j
            if x & (32 >> j) and k < nbits:  # padding bits are ignored
                v = (1 + math.isqrt(8 * k + 1)) // 2
                edges.append((k - v * (v - 1) // 2, v))
    return Graph(n, frozenset(edges))


def serialize_graph6(g: Graph) -> str:
    """Encode a Graph as a graph6 string (no trailing newline)."""
    n = g.n
    if n <= 62:
        head = [63 + n]
    elif n <= 258047:
        head = [126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)]
    else:
        raise GraphError(f"graph too large for supported graph6 headers: n={n}")
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for u, v in g.edges:
        k = v * (v - 1) // 2 + u
        body[k // 6] |= 32 >> (k % 6)
    return (bytes(head) + body.translate(_G6_DIGITS)).decode("ascii")


# ---------------------------------------------------------------------------
# edge-list text: an optional first line "n <count>", then one edge per line,
# "u v" or "u v color"; blank lines and "#" comments are skipped


def read_edge_lines(text: str, fields: str) -> tuple[int, list[tuple]]:
    """The vertex count and the rows of edge-list text whose lines hold the
    whitespace-separated `fields`, the first two the integer ends u and v.
    Each row is (u, v, *the other tokens). Without a header, n is one past
    the largest vertex id. Malformed input raises GraphError naming its
    line."""
    body = [(i, s) for i, ln in enumerate(text.splitlines(), 1)
            if (s := ln.strip()) and not s.startswith("#")]
    declared_n: int | None = None
    if body and body[0][1].split()[0] == "n":
        i, line = body.pop(0)
        toks = line.split()
        if len(toks) != 2:
            raise GraphError(f"line {i}: malformed vertex-count header")
        try:
            declared_n = int(toks[1])
        except ValueError:
            raise GraphError(f"line {i}: non-integer vertex count in {line!r}") from None
        if declared_n < 0:
            raise GraphError(f"line {i}: negative vertex count {declared_n}")
    width = len(fields.split())
    rows: list[tuple] = []
    seen: set[Edge] = set()
    for i, line in body:
        toks = line.split()
        if len(toks) != width:
            raise GraphError(f"line {i}: expected '{fields}', got {line!r}")
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise GraphError(f"line {i}: non-integer vertex id in {line!r}") from None
        if u < 0 or v < 0:
            raise GraphError(f"line {i}: negative vertex id in {line!r}")
        if u == v:
            raise GraphError(f"line {i}: self-loop at vertex {u}")
        e = edge(u, v)
        if declared_n is not None and e[1] >= declared_n:
            raise GraphError(
                f"line {i}: edge {e} out of range for declared n={declared_n}")
        if e in seen:
            raise GraphError(f"line {i}: duplicate edge {e}")
        seen.add(e)
        rows.append((u, v, *toks[2:]))
    if declared_n is None:
        declared_n = 1 + max((max(u, v) for u, v, *_ in rows), default=-1)
    return declared_n, rows


def parse_edge_list(text: str) -> Graph:
    """The graph of edge-list text with `u v` lines (`read_edge_lines`)."""
    return Graph.from_edges(*read_edge_lines(text, "u v"))
