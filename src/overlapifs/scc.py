"""Iterative Tarjan strongly connected components. No command runs this module
(``codings`` runs its own pass); the benchmark's tracer and the tests' reference do."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


def strongly_connected_components(successors: Sequence[Iterable[int]]) -> list[list[int]]:
    """SCCs of the graph on nodes 0..n-1, emitted in reverse topological order.

    ``successors[v]`` lists the heads of v's edges, n = len(successors).
    Iterative so deep graphs do not hit the interpreter recursion limit; the
    per-node state lives in flat lists and a bytearray.
    """
    n = len(successors)
    index = [-1] * n
    lowlink = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    work: list[tuple[int, Iterator[int]]] = []
    sccs: list[list[int]] = []
    counter = 0

    def visit(v: int) -> None:
        nonlocal counter
        index[v] = lowlink[v] = counter
        counter += 1
        stack.append(v)
        on_stack[v] = 1
        work.append((v, iter(successors[v])))

    for root in range(n):
        if index[root] < 0:
            visit(root)
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    visit(w)
                    break
                if on_stack[w] and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            else:
                work.pop()
                if work and lowlink[v] < lowlink[work[-1][0]]:
                    lowlink[work[-1][0]] = lowlink[v]
                if lowlink[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = 0
                        component.append(w)
                        if w == v:
                            break
                    sccs.append(component)
    return sccs
