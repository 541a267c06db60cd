"""Self time and busy time on a hand-built span tree."""

import pytest

from perfbench import layers
from perfbench.spans import Span, Tracer, covered, fold, self_times


def _tree():
    return [
        Span(1, None, "bench.window", 0.0, 10.0),
        Span(2, 1, "a", 1.0, 4.0),
        Span(3, 1, "b", 3.0, 6.0),       # overlaps a: union 1..6
        Span(4, 2, "c", 2.0, 3.0),       # grandchild
        Span(5, 1, "b", 9.0, 12.0),      # outlives its parent: clipped to 9..10
        Span(6, 3, "b", 4.0, 5.0),       # b nested in b
    ]


def test_covered_merges_overlaps():
    assert covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert covered([]) == 0.0


def test_self_time():
    selfs = self_times(_tree())
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)  # children cover 1..6 and 9..10
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0 - 1.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(3.0)
    assert selfs[6] == pytest.approx(1.0)


def test_fold_busy_is_union_and_self_is_summed():
    rows = {r.name: r for r in fold(_tree(), wall_s=10.0)}
    b = rows["b"]
    assert b.count == 3
    assert b.busy_s == pytest.approx(3.0 + 3.0)      # 3..6 and 9..12; 4..5 nested
    assert b.self_s == pytest.approx(2.0 + 3.0 + 1.0)
    assert b.share == pytest.approx(0.6)
    assert rows["bench.window"].self_s == pytest.approx(4.0)


def test_unattributed_is_window_self_time():
    m = layers.layer_metrics(_tree(), {}, wall_s=10.0, plancache={"hits": 0, "misses": 0},
                             serve_stats={}, trace_overhead_pct=0.0)
    assert m["unattributed_s"] == (pytest.approx(4.0), 1)


def test_wrapper_records_parent_and_request_id():
    class Box:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Box.inner(x) * 2

    tracer = Tracer()
    tracer.wrap(Box, "inner", "inner")
    tracer.wrap(Box, "outer", "outer", rid=lambda args, kwargs: f"req-{args[0]}")
    assert Box.outer(3) == 8
    tracer.uninstall()
    assert Box.outer(3) == 8 and len(tracer.spans) == 2
    inner, outer = tracer.spans
    assert inner.parent == outer.id and outer.parent is None
    assert inner.rid == outer.rid == "req-3"
    assert outer.start <= inner.start <= inner.end <= outer.end
