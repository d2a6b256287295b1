"""The test-local exact-front helper against the full enumeration."""

from exact_front import exact_front, reduced_pool
from hypothesis import given, settings
from hypothesis import strategies as st

from fogforge.model import Application, Device, brute_force_oracle, evaluate

small = st.sampled_from([0.0, 1.0, 2.5])


@st.composite
def pools(draw):
    """Up to 4 services on up to 6 devices whose speed, latency and cost come
    from three values each, so dominated devices and shared classes are
    common, and speeds other than 1 are too."""
    rows = draw(st.integers(1, 2))
    cols = draw(st.integers(1, 2))
    ops = tuple(tuple(draw(small) for _ in range(cols)) for _ in range(rows))
    edges = Application.chain_edges(rows, cols)
    if rows == 2 and draw(st.booleans()):
        edges += (((0, 0), (1, cols - 1)),)
    app = Application(rows=rows, ops=ops, edges=edges, cols=cols)
    specs = draw(st.lists(
        st.tuples(st.sampled_from([0.5, 1.0, 2.0]), small, st.sampled_from([0.5, 1.0, 3.0])),
        min_size=1, max_size=6,
    ))
    if draw(st.booleans()):  # a twin of the first device: one class, two devices
        specs.append(specs[0])
    ids = draw(st.permutations(range(0, 3 * len(specs), 3)))
    return app, [Device(i, *spec) for i, spec in zip(ids, specs)]


@settings(max_examples=150, deadline=None)
@given(pools())
def test_reduced_enumeration_finds_the_full_front(pool):
    app, devices = pool
    reduced = reduced_pool(devices)
    assert 1 <= len(reduced) <= len({(d.speed, d.latency, d.cost) for d in devices})
    result = exact_front(app, devices)
    assert result.front == brute_force_oracle(app, devices).front
    for placement, point in zip(result.front_placements, result.front):
        assert evaluate(app, placement, devices) == point
