"""Property net for cluster lattices up to ``MAX_POINTS`` centers.

Clusters grow the way the enumerators grow them: each new center is free
on an existing component or a satellite on a surviving intersection.
Every drawn cluster is checked; none is filtered out.  The run is
derandomized with a fixed example budget, so it is reproducible.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from nasharc import (
    BlowupCluster,
    ClusterPoint,
    cluster_matrix,
    curvette_order_rows,
    intersection_from_proximity,
    proximity_matrix,
)
from nasharc.clusters import MAX_POINTS


@st.composite
def clusters(draw):
    size = draw(st.integers(1, MAX_POINTS))
    cluster = BlowupCluster((ClusterPoint(),))
    while cluster.n < size:
        free = [ClusterPoint(parent) for parent in range(cluster.n)]
        satellites = [ClusterPoint(hi, lo) for lo, hi in cluster.geometry().edges]
        point = draw(st.sampled_from(free + satellites))
        cluster = BlowupCluster(cluster.points + (point,))
    return cluster


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(clusters())
def test_cluster_lattices(cluster):
    M = cluster_matrix(cluster)
    assert M.rows == intersection_from_proximity(proximity_matrix(cluster)).rows
    assert M.determinant() in (1, -1)
    rows = curvette_order_rows(cluster)
    assert rows == M.inverse().neg().rows
    assert all(v > 0 for row in rows for v in row)
