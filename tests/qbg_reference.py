"""Reference queries on quantum Bruhat graphs for the tests: plain searches
over the adjacency lists that share no code with the graph's BFS cache."""

from collections import deque


def distances(graph, x):
    """The BFS distance from x to every vertex it reaches."""
    dist = {x: 0}
    queue = deque([x])
    while queue:
        w = queue.popleft()
        for e in graph.adjacency[w]:
            if e.target not in dist:
                dist[e.target] = dist[w] + 1
                queue.append(e.target)
    return dist


def distance(graph, x, y):
    return distances(graph, x)[y]


def is_strongly_connected(graph):
    n = len(graph.vertices)
    return all(len(distances(graph, x)) == n for x in graph.vertices)


def shortest_paths(graph, x, y):
    """All shortest directed paths from x to y, as edge tuples."""
    dist = distances(graph, x)
    out = []

    def grow(w, acc):
        if w == y:
            out.append(tuple(acc))
            return
        for e in graph.adjacency[w]:
            if dist.get(e.target) == len(acc) + 1 <= dist[y]:
                acc.append(e)
                grow(e.target, acc)
                acc.pop()

    grow(x, [])
    return out
