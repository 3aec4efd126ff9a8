"""Acceptance suite: one test per shipped guarantee.

Run `pytest tests/test_acceptance.py -v` to get a pass/fail line per
criterion. Each test prints a one-line summary of the measured values,
visible with -s or -rA.
"""

import time

import pytest

from commdetect import (
    HslSpec,
    agglomerate,
    connected_components,
    cut,
    edge_betweenness,
    euclidean_distance,
    fastgreedy,
    girvan_newman,
    girvan_newman_static,
    louvain,
    modularity,
    neighbor_matrix,
)
from commdetect.cli import bench
from commdetect.louvain import CommunityState
from helpers import (
    bridged_cliques,
    cycle_graph,
    move_gain_checks,
    path_graph,
    random_suite,
    star_graph,
    triangles_with_bridge,
    two_triangles,
)
from oracles import (
    delta_q_insert,
    edge_betweenness_direct,
    greedy_merge_direct,
    insert,
    modularity_direct,
    remove,
)


def test_criterion_1_louvain_benchmark_scores_and_speed(karate):
    report = bench(karate, "louvain", ("normal",), runs=100, base_seed=0)
    record = report["records"][0]
    assert record["max"] == pytest.approx(0.41979, abs=1e-4)
    assert record["min"] >= 0.30
    worst_ms = 0.0
    for seed in range(100):
        start = time.perf_counter()
        louvain(karate, "normal", seed=seed)
        worst_ms = max(worst_ms, (time.perf_counter() - start) * 1000.0)
    assert worst_ms < 50.0
    print(f"criterion 1: max={record['max']:.5f} min={record['min']:.5f} "
          f"worst run {worst_ms:.2f} ms")


def _record(g, variant, runs):
    return bench(g, "louvain", (variant,), runs=runs, base_seed=0)["records"][0]


def test_criterion_2_variant_quality_ordering(karate):
    stats = {
        variant: _record(karate, variant, runs=100)
        for variant in ("normal", "total", "noMerge", "totalNoMerge")
    }
    assert stats["normal"]["mean"] >= stats["noMerge"]["mean"]
    assert stats["total"]["mean"] >= stats["totalNoMerge"]["mean"]
    assert stats["totalNoMerge"]["min"] <= stats["normal"]["min"]
    print("criterion 2: means "
          + " ".join(f"{v}={s['mean']:.5f}" for v, s in stats.items())
          + f"; min totalNoMerge={stats['totalNoMerge']['min']:.5f}"
          + f" vs normal={stats['normal']['min']:.5f}")


def test_criterion_3_exp_variant_is_seed_independent(karate):
    results = [louvain(karate, "Exp", seed=seed) for seed in range(100)]
    first_partition, first_q, _ = results[0]
    assert all(part == first_partition for part, _, _ in results)
    assert all(q == first_q for _, q, _ in results)
    assert 0.32 <= first_q <= 0.42
    exp_ms = _record(karate, "Exp", runs=100)["mean_runtime_ms"]
    normal_ms = _record(karate, "normal", runs=100)["mean_runtime_ms"]
    assert exp_ms <= 1.2 * normal_ms
    print(f"criterion 3: q={first_q!r} over 100 seeds, runtime "
          f"{exp_ms:.3f} ms vs normal {normal_ms:.3f} ms")


def test_criterion_4_move_gain_equals_modularity_difference():
    checked = 0
    for index, g in enumerate(random_suite(200, 3, 12, (0.2, 0.5), 40000)):
        for gain, direct in move_gain_checks(g, seed=index):
            assert gain == pytest.approx(direct, abs=1e-9)
            checked += 1
    # scoring a node against its own community without removing it first
    # reports a bogus change; the remove-then-insert procedure scores the
    # stay option as exactly the true change, zero
    g = path_graph(4)
    state = CommunityState(g, [0, 0, 0, 1])
    naive = delta_q_insert(state, 2, 0)
    assert naive == pytest.approx(-2.0 / 9.0, abs=1e-12)
    labels = [0, 0, 0, 1]
    assert modularity_direct(g, labels) - modularity_direct(g, labels) == 0.0
    c_old = remove(state, 2)
    stay_gain = delta_q_insert(state, 2, c_old) - delta_q_insert(state, 2, c_old)
    assert stay_gain == 0.0
    insert(state, 2, c_old)
    print(f"criterion 4: {checked} candidate moves matched at 1e-9; "
          f"naive self-score {naive:.6f} != true 0.0")


def test_criterion_5_divisive_clustering_against_oracle(karate):
    suite = list(random_suite(100, 2, 12, (0.2, 0.5), 50000, require_edges=False))
    suite += [path_graph(n) for n in range(2, 13)]
    suite += [star_graph(k) for k in range(2, 12)]
    suite += [cycle_graph(n) for n in range(3, 13)]
    suite += [bridged_cliques(k) for k in (3, 4, 5, 6)]
    suite.append(triangles_with_bridge())
    compared = 0
    for g in suite:
        got = edge_betweenness(g)
        want = edge_betweenness_direct(g)
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert got[key] == pytest.approx(value, abs=1e-9)
            compared += 1
        comps = len(connected_components(g))
        if comps < g.node_count:
            iterative = girvan_newman(g, comps + 1)[1]
            static = girvan_newman_static(g, comps + 1)[1]
            assert static[0][:2] == iterative[0][:2]

    part, _ = girvan_newman(karate, 8)
    assert part.num_communities == 8

    iterative_ms = min(_timed(girvan_newman, karate, 8) for _ in range(3))
    static_ms = min(_timed(girvan_newman_static, karate, 8) for _ in range(3))
    assert static_ms < iterative_ms
    print(f"criterion 5: {compared} betweenness values matched; 8 groups; "
          f"static {static_ms:.2f} ms < iterative {iterative_ms:.2f} ms")


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return (time.perf_counter() - start) * 1000.0


def test_criterion_6_greedy_merging_against_oracle(karate):
    matched = 0
    for g in random_suite(100, 2, 10, (0.2, 0.5), 60000):
        dend, _, best_q = fastgreedy(g)
        joins, q_after, oracle_best_q, _ = greedy_merge_direct(g)
        label_of = {i: i for i in range(g.node_count)}
        got = []
        for merge in dend.merges:
            left = label_of.pop(merge.left)
            right = label_of.pop(merge.right)
            got.append((left, right))
            label_of[merge.merged] = right
        assert got == joins
        for merge, expected in zip(dend.merges, q_after):
            assert merge.q == pytest.approx(expected, abs=1e-9)
        assert best_q == pytest.approx(oracle_best_q, abs=1e-9)
        matched += 1

    _, best, best_q = fastgreedy(karate)
    assert best_q == pytest.approx(0.3806706114398422, abs=1e-9)
    assert 3 <= best.num_communities <= 5
    print(f"criterion 6: {matched} merge sequences matched; "
          f"best q={best_q!r} with {best.num_communities} groups")


def test_criterion_7_self_neighboring_distance_shift(karate):
    checked = 0
    for g in random_suite(100, 2, 10, (0.2, 0.5), 70000, require_edges=False):
        plain = neighbor_matrix(g, self_neighboring=False)
        own = neighbor_matrix(g, self_neighboring=True)
        for i in range(g.node_count):
            for j in range(i + 1, g.node_count):
                shift = -2.0 if g.has_edge(i, j) else 2.0
                plain_d = euclidean_distance(plain, i, j)
                own_d = euclidean_distance(own, i, j)
                assert own_d - plain_d == pytest.approx(shift, abs=1e-9)
                checked += 1

    spec = HslSpec("relative", 0.3)
    plain_count = cut(agglomerate(karate, "complete", False), spec).num_communities
    own_count = cut(agglomerate(karate, "complete", True), spec).num_communities
    assert own_count <= plain_count
    print(f"criterion 7: {checked} pair distances shifted by exactly 2; "
          f"clusters {own_count} <= {plain_count}")


def test_criterion_8_modularity_anchors_and_range(karate):
    assert modularity(karate, [0] * karate.node_count) == pytest.approx(0.0, abs=1e-12)
    assert modularity(two_triangles(), [0, 0, 0, 1, 1, 1]) == pytest.approx(0.5, abs=1e-12)

    produced = 0
    suite = list(random_suite(20, 3, 12, (0.2, 0.5), 80000))
    suite += [two_triangles(), bridged_cliques(4), karate]
    spec = HslSpec("relative", 0.5)
    for g in suite:
        partitions = [cut(agglomerate(g, "single", True), spec)]
        comps = len(connected_components(g))
        if comps < g.node_count:
            partitions.append(girvan_newman(g, comps + 1)[0])
        for variant in ("normal", "total", "noMerge", "totalNoMerge", "Exp"):
            partitions.append(louvain(g, variant, seed=1)[0])
        partitions.append(fastgreedy(g)[1])
        for part in partitions:
            q = modularity(g, part)
            assert -0.5 < q <= 1.0
            produced += 1
    print(f"criterion 8: anchors exact; {produced} produced partitions "
          f"inside (-0.5, 1]")
