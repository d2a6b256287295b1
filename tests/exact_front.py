"""Exact Pareto fronts of pools too large to enumerate, by dropping dominated devices.

Suppose device d' is no worse than device d in speed, latency and cost. Then
moving every service that d hosts onto d' worsens neither objective:
execution time, cost and row-head latency can only fall; an edge into a
moved service is charged the lower latency of d', or nothing once both ends
share d'; edges inside the moved group stay on one device. The same argument
merges two devices of one (speed, latency, cost) class into one. So the
exact front needs only the first device of each non-dominated class, the
usual dominance reduction of multi-objective combinatorial optimisation
(Ehrgott, *Multicriteria Optimization*, 2nd ed., 2005). The 21 devices of
each desk scenario of seeds 0-4 reduce to at most four.

Only the front points carry over. A placement on a dropped device can tie a
front point, so front placements may differ from the full enumeration's, and
weighted argmins need the full pool's ``analytic_bounds``.
"""

from fogforge.model import brute_force_oracle


def reduced_pool(devices):
    """The first device of each (speed, latency, cost) class that no other
    class dominates, in pool order."""
    firsts = {}
    for d in devices:
        firsts.setdefault((d.speed, d.latency, d.cost), d)

    def dominated(key):
        speed, latency, cost = key
        return any(
            other != key and other[0] >= speed and other[1] <= latency and other[2] <= cost
            for other in firsts
        )

    return [d for key, d in firsts.items() if not dominated(key)]


def exact_front(app, devices):
    """``brute_force_oracle`` over the reduced pool; its ``front`` is the
    full pool's exact front."""
    return brute_force_oracle(app, reduced_pool(devices))
