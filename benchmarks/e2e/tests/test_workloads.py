"""The request sequences are functions of ``(corpus, seed)`` alone."""

from __future__ import annotations

import itertools

import pytest

import workloads


@pytest.fixture(scope="module")
def corpus():
    return workloads.build_corpus()


def test_self_test_passes(corpus):
    workloads.self_test(corpus)


def test_miss_workloads_never_repeat_a_query_or_touch_the_verify_set(corpus):
    for workload in ("cold_topk", "deep_topk"):
        reserved = {op.query_key for op in workloads.warmup(corpus, workload)}
        keys = [
            op.query_key
            for client in range(workloads.CLIENTS[workload])
            for op in itertools.islice(workloads.operations(corpus, workload, 3, client), 300)
        ]
        assert len(set(keys)) == len(keys)
        assert not reserved & set(keys)


def test_hot_zipf_stays_inside_the_prefilled_pool(corpus):
    filled = {op.query_key for op in workloads.warmup(corpus, "hot_zipf")}
    drawn = {
        op.query_key
        for op in itertools.islice(workloads.operations(corpus, "hot_zipf", 5, 0), 500)
    }
    assert drawn <= filled and len(filled) == workloads.HOT_POOL


def test_mixed_rw_writes_every_sixth_and_only_touches_live_papers(corpus):
    ops = list(itertools.islice(workloads.operations(corpus, "mixed_rw", 1, 1), 600))
    writes = [index for index, op in enumerate(ops) if op.query_key is None]
    assert writes == list(range(5, 600, 6))
    live = set()
    for op in ops:
        if op.kind == "insert":
            assert op.doc not in live
            live.add(op.doc)
        elif op.kind in ("replace", "delete"):
            assert op.doc in live
            if op.kind == "delete":
                live.remove(op.doc)
    assert {op.kind for op in ops} == {"search", "insert", "replace", "delete"}
    state_live, gone = workloads.final_state(ops)
    assert set(state_live) == live
    assert not {op.token for op in state_live.values()} & set(gone)


def test_the_seed_changes_names_not_shape(corpus):
    first = list(itertools.islice(workloads.operations(corpus, "mixed_rw", 1, 0), 120))
    second = list(itertools.islice(workloads.operations(corpus, "mixed_rw", 2, 0), 120))
    assert [op.kind for op in first] == [op.kind for op in second]
    assert [op.wire() for op in first] != [op.wire() for op in second]
