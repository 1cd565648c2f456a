"""Chordless odd cycles, bridges between cycles, and the odd cycle
condition that characterizes normality of the edge ring.

A minimal (chordless) odd cycle is stored as a canonical vertex tuple:
smallest vertex first, then its smaller cycle-neighbor, so each cycle
appears exactly once regardless of rotation or direction.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph, bits, mask_neighbors, to_mask

OddCycle = tuple[int, ...]


class ExceptionalPair(NamedTuple):
    """Two vertex-disjoint minimal odd cycles with no connecting edge."""

    first: OddCycle
    second: OddCycle


def _extend(masks, s, path, path_mask, chords, out) -> None:
    # Invariants: path[0] == s is the smallest vertex, interior vertices
    # are pairwise non-adjacent except consecutively, no interior vertex
    # other than path[1] is adjacent to s, and ``chords`` is the union of
    # the neighbour masks of path[1:-1], so a vertex x with its bit set
    # there would close a chord with an interior vertex.
    last = path[-1]
    for x in bits(masks[last] & ~path_mask & ~chords & -(2 << s)):
        if masks[s] >> x & 1:
            # closing edge; a longer cycle through x would have chord {x, s}
            if len(path) % 2 == 0 and path[1] < x:
                out.append(tuple(path) + (x,))
            continue
        path.append(x)
        _extend(masks, s, path, path_mask | 1 << x, chords | masks[last], out)
        path.pop()


def minimal_odd_cycles(g: Graph) -> tuple[OddCycle, ...]:
    """All chordless odd cycles, canonical tuples sorted by (length, tuple).

    DFS path extension from each smallest-vertex anchor with chordless
    pruning.  Returns the empty tuple iff G has no odd cycle.
    """
    masks = g.masks
    out: list[OddCycle] = []
    for s in g.vertices:
        for u in bits(masks[s] & -(2 << s)):
            _extend(masks, s, [s, u], 1 << s | 1 << u, 0, out)
    return tuple(sorted(out, key=lambda c: (len(c), c)))


def exceptional_pairs(g: Graph) -> tuple[ExceptionalPair, ...]:
    """All unordered pairs of vertex-disjoint minimal odd cycles with no
    bridge, each pair ordered (smaller cycle first), sorted.

    Cycle j misses cycle i and every edge out of it exactly when no
    vertex of j lies in the closed neighbourhood of i.  Not cached here:
    ``semigroup.Cone.pairs`` keeps the scan for the stages of ``classify``.
    """
    cycles = minimal_odd_cycles(g)
    own = [to_mask(c) for c in cycles]
    closed = [mask | mask_neighbors(g, mask) for mask in own]
    return tuple(
        ExceptionalPair(cycles[i], cycles[j])
        for i in range(len(cycles))
        for j in range(i + 1, len(cycles))
        if not own[j] & closed[i]
    )


def satisfies_odd_cycle_condition(g: Graph) -> bool:
    """Normality test for the edge ring: no exceptional pair exists.

    Vacuously true for graphs without odd cycles.
    """
    return not exceptional_pairs(g)
