"""Tests of the span tracer on the library in this checkout.

Run from the checkout root: python3 -m pytest perfbench/test_spans.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import quadperfect as qp  # noqa: E402
import spans  # noqa: E402


def test_spans_nest_and_uninstall_restores():
    original = qp.factorize.factor_element
    tracer = spans.Tracer()
    tracer.install()
    try:
        ctx = qp.ring(-1)
        value = qp.index_n(ctx, qp.QuadInt(-1, 9, 3), 2).value
    finally:
        tracer.uninstall()
    assert value == qp.SurdSum.from_rational(2)
    assert qp.factorize.factor_element is original
    assert qp.abundancy.factor_element is original
    summary = tracer.summarize()
    assert summary["abundancy.index_n"]["calls"] == 1
    assert summary["factorize.factor_element"]["calls"] == 1
    index_span = next(i for i, s in enumerate(tracer.spans) if s[0] == "abundancy.index_n")
    assert tracer.children(index_span, "factorize.factor_element")
    assert summary["abundancy.surd_mul"]["calls"] > 0
    assert not tracer.missing


def test_missing_target_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(
        spans, "SPAN_TARGETS",
        spans.SPAN_TARGETS + (("quadperfect.scan", "_build_contrib_gone", "scan.gone"),),
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        qp.search_powerfully(qp.ring(-7), 2, 2, 2000, workers=1)
    finally:
        tracer.uninstall()
    assert tracer.missing == ["quadperfect.scan._build_contrib_gone"]
    assert tracer.summarize()["scan.shard"]["calls"] >= 1
