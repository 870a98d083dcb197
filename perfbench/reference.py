"""A fixed piece of pure-Python work that gauges the machine's current speed.

The benchmark times `run()` just before every op and scales each op's wall
time by how fast the reference ran around it (see `run.Timeline`). The work
is modelled on the program's hot loops but uses none of its code, so a change
to `cdcover` cannot change it: it enumerates the simple cycles of one fixed
cubic graph by depth-first search over paths, building tuples, lists and
sets as the program does. One call takes about 4 ms.
"""
from __future__ import annotations

import random

N = 16
SEED = 0
# The graph built from N and SEED has this many simple cycles.
CYCLES = 295


def cubic_graph(n: int, seed: int) -> list[list[int]]:
    """Adjacency lists of a simple cubic graph, from a seeded pairing of stubs."""
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        adj: list[set[int]] = [set() for _ in range(n)]
        for a, b in zip(stubs[::2], stubs[1::2]):
            if a == b or b in adj[a]:
                break
            adj[a].add(b)
            adj[b].add(a)
        else:
            return [sorted(nb) for nb in adj]


ADJ = cubic_graph(N, SEED)


def run() -> int:
    """Enumerate the cycles of ADJ; return how many there are."""
    out = []
    for s in range(len(ADJ)):
        stack = [([s], {s})]
        while stack:
            path, on_path = stack.pop()
            for w in ADJ[path[-1]]:
                if w == s and len(path) >= 3 and path[1] < path[-1]:
                    out.append(tuple(path))
                elif w > s and w not in on_path:
                    stack.append((path + [w], on_path | {w}))
    out.sort(key=lambda c: (len(c), c))
    return len(out)
