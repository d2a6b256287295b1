"""Straightforward Pareto routines that the array kernels are tested against.

Each function is the plain, quadratic or per-row form of a library routine:
a dominance matrix for the non-dominated sort, a set and a sort for the
front, a running total over the front for the hypervolume, a per-front
argsort for the crowding distance, and ``np.unique`` over one opaque item per
row for repeats. ``group_crowding_distance`` is the vectorised crowding
distance over any group labels and any number of objectives; it is the one
reference whose NaN bits match the kernel's when coordinates are +inf.
"""

import numpy as np

from fogforge.model import ObjectivePoint


def nondominated_sort(points):
    """Rank of every point (0 = non-dominated) by peeling a dominance matrix."""
    if len(points) == 0:
        return np.zeros(0, dtype=np.int64)
    pts = np.asarray(points, dtype=np.float64).reshape(len(points), -1)
    n = len(pts)
    le = np.all(pts[:, None, :] <= pts[None, :, :], axis=2)
    lt = np.any(pts[:, None, :] < pts[None, :, :], axis=2)
    dom = le & lt  # dom[i, j]: i dominates j
    counts = dom.sum(axis=0)
    ranks = np.full(n, -1, dtype=np.int64)
    assigned = np.zeros(n, dtype=bool)
    rank = 0
    current = counts == 0
    while current.any():
        ranks[current] = rank
        assigned |= current
        counts = counts - dom[current].sum(axis=0)
        current = (counts == 0) & ~assigned
        rank += 1
    return ranks


def pareto_front(points):
    """Non-dominated subset, deduplicated, sorted by (time, cost) ascending."""
    unique = sorted(set(ObjectivePoint(float(p[0]), float(p[1])) for p in points))
    front = []
    best_cost = np.inf
    for p in unique:
        if p.cost < best_cost:
            front.append(p)
            best_cost = p.cost
    return front


def hypervolume_2d(points, ref):
    """Area the front dominates inside ``ref``, one slab per front point,
    added to a running total from 0.0 in time order."""
    hv = 0.0
    prev_cost = ref.cost
    for p in pareto_front(points):
        if p.time < ref.time and p.cost < ref.cost:
            hv += (ref.time - p.time) * (prev_cost - p.cost)
            prev_cost = p.cost
    return hv


def crowding_distance(points, ranks):
    """Per-front crowding distance; boundary points of each front get +inf."""
    if len(points) == 0:
        return np.zeros(0, dtype=np.float64)
    pts = np.asarray(points, dtype=np.float64).reshape(len(points), -1)
    dist = np.zeros(len(pts), dtype=np.float64)
    for rank in np.unique(ranks):
        idx = np.where(ranks == rank)[0]
        if len(idx) <= 2:
            dist[idx] = np.inf
            continue
        for m in range(pts.shape[1]):
            order = idx[np.argsort(pts[idx, m], kind="stable")]
            span = pts[order[-1], m] - pts[order[0], m]
            if span <= 0.0:
                dist[idx] = np.inf
                continue
            dist[order[0]] = np.inf
            dist[order[-1]] = np.inf
            vals = pts[order, m]
            dist[order[1:-1]] += (vals[2:] - vals[:-2]) / span
    return dist


def group_crowding_distance(points, groups):
    """Per-group crowding distance; boundary points of each group get +inf.

    An interior point adds, per objective in turn, the gap between its two
    neighbours on that objective divided by its group's span. Groups of at
    most two points, and groups with zero span on some objective (collapsed
    onto a single point), are all boundary. The groups may be any labels,
    not only non-dominated fronts, and each objective takes its own sort.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return np.zeros(0, dtype=np.float64)
    pts = pts.reshape(len(pts), -1)
    groups = np.asarray(groups)
    dist = np.zeros(len(pts), dtype=np.float64)
    boundary = np.zeros(len(pts), dtype=bool)
    for m in range(pts.shape[1]):
        # stable: equal values keep index order inside each group
        order = np.lexsort((pts[:, m], groups))
        vals = pts[order, m]
        sorted_groups = groups[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = sorted_groups[1:] != sorted_groups[:-1]
        last = np.ones(len(order), dtype=bool)
        last[:-1] = first[1:]
        group = np.cumsum(first) - 1
        lo = np.flatnonzero(first)[group]
        hi = np.flatnonzero(last)[group]
        span = vals[hi] - vals[lo]
        edge = first | last | (span <= 0.0)
        boundary[order[edge]] = True
        inner = np.flatnonzero(~edge)
        dist[order[inner]] += (vals[inner + 1] - vals[inner - 1]) / span[inner]
    dist[boundary] = np.inf
    return dist


def repeats(rows):
    """True for each row whose bytes equal an earlier row's."""
    rows = np.ascontiguousarray(rows)
    items = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(items, return_index=True, return_inverse=True)
    return first[inverse] != np.arange(len(rows))
