"""Tests of the benchmark's seeded input generator and its own flag-graph
code. Run with: python3 -m pytest bench/test_workloads.py"""

import hashlib
import random
from pathlib import Path

import pytest

import flags
import workloads


def _documents(workload, seed, tmp_path):
    workdir = tmp_path / f"{workload}-{seed}"
    workdir.mkdir(parents=True)
    ops = workloads.plan(workload, seed, workdir)
    docs = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(workdir.iterdir())}
    return ops, docs


@pytest.mark.parametrize("workload", ["analyze-symmetric",
                                      "analyze-asymmetric", "transform"])
def test_seed_fixes_documents(workload, tmp_path):
    ops, docs = _documents(workload, 7, tmp_path / "a")
    _, docs_again = _documents(workload, 7, tmp_path / "b")
    _, other = _documents(workload, 8, tmp_path / "c")
    assert len(ops) >= 100
    assert docs == docs_again
    assert sorted(docs) == sorted(other)
    assert all(docs[name] != other[name] for name in docs)


def test_census_ignores_seed(tmp_path):
    assert (workloads.plan("census", 1, tmp_path)
            == workloads.plan("census", 2, tmp_path))


@pytest.mark.parametrize("workload", ["analyze-symmetric",
                                      "analyze-asymmetric"])
def test_analyze_documents_are_maps(workload, tmp_path):
    for op in workloads.plan(workload, 3, tmp_path):
        text = Path(op["argv"][-1]).read_text(encoding="ascii")
        if text.startswith("map"):
            s = flags.from_walks([list(map(int, line.split()))
                                  for line in text.splitlines()[1:]])
        else:
            s = flags.parse_flg(text)
        assert flags.is_map(s)
        assert flags.counts(s) == tuple(op["counts"])


def test_transform_rejects_are_spread(tmp_path):
    ops = workloads.plan("transform", 5, tmp_path)
    rejects = [op["reject"] for op in ops if op["reject"]]
    assert len(rejects) == 10
    assert set(rejects) == {
        "NotInvolution", "FixedPointPresent", "Zero2NotCommuting",
        "Disconnected", "EdgeOccurrenceCount", "ParseError"}
    assert {op["argv"][2] for op in ops} == set(workloads.TRANSFORM_OPS)


@pytest.mark.parametrize("a, b, rect", [(3, 3, True), (5, 4, True),
                                        (2, 1, False), (8, -5, False)])
def test_torus_walks(a, b, rect):
    s = flags.from_walks(flags.torus_walks(a, b, rect))
    squares = a * b if rect else a * a + b * b
    assert flags.is_map(s)
    assert flags.counts(s) == (8 * squares, squares, 2 * squares, squares)
    me = flags.medial(s)
    assert flags.is_map(me)
    assert flags.counts(me) == (16 * squares, 2 * squares, 4 * squares,
                                2 * squares)


def test_relabel_keeps_counts():
    s = flags.from_walks(flags.PLATONIC["cube"])
    perm = list(range(48))
    random.Random(0).shuffle(perm)
    t = flags.relabel(s, perm)
    assert flags.is_map(t)
    assert flags.counts(t) == flags.counts(s) == (48, 8, 12, 6)
    assert flags.counts(flags.dual(t)) == (48, 6, 12, 8)
