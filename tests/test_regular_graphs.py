"""The in-repo random-regular-graph generator.

``random_regular_edges`` must give exactly the edge set NetworkX 3.x's
``random_regular_graph`` gives for the same ``(degree, n, seed)``: the
QAOA-regular circuits, their digests, cache keys and program digests
all derive from it.  The differential tests run where NetworkX is
installed; the hash table and the pinned cases run everywhere.
"""

import hashlib
import os
import random
import subprocess
import sys
import textwrap

import pytest

import repro.circuits.generators.qaoa as qaoa
from repro.benchsuite import SUITE
from repro.circuits.generators.qaoa import qaoa_regular, random_regular_edges

SMALL_N = range(4, 61)
LARGE_N = (100, 1024, 4096)
SMALL_SEEDS = range(20)
LARGE_SEEDS = range(2)

#: SHA-256 of ``repr(sorted(edges))`` for the suite's QAOA-regular rows
#: (seed 0), R3-1024/4096 at seed 0 and at the benchmark harness's
#: seed-0 graph seeds.  Recorded from NetworkX 3.6.1.
EDGE_HASHES = {
    (3, 30, 0): "8618db96c3bce01c05cc731d5a19758dea8a4c3e2358bcfead9303a6192408b5",
    (3, 40, 0): "b5e836992a80dcfca7b7c074fdab2cb9fe166e0eea5c30758aa989e4f102ff5b",
    (3, 50, 0): "412eac09e9b483b884f28d44c5e2988fd32be9db1d4ccdedae17e387535c491c",
    (3, 60, 0): "f20e85b3268135dee76f71ad4ee000a6ac5af88cd0629e06c561543493b39f1f",
    (3, 80, 0): "0884fb4fe886ebb3578f5772e44f92c0eb0ce9413b02493dcffab58f998aa117",
    (3, 100, 0): "98e6a46ba87110804b6c518f48d2f321ffdeff1a365739a0f84d401a35997183",
    (4, 30, 0): "84bd0dd2e55b20072871bff71d940cc53c5bc3507c105c2c215813e413574af8",
    (4, 40, 0): "e902c2f32f75948f0fbcce6bff6271fd90755a800b165f448657988735bf2faf",
    (4, 50, 0): "edcea10681d7649d2f0b7b5f25bb7756a54ec52356ea4f4eb5560f4a4f5bd4b3",
    (4, 60, 0): "8fbe60ecf0ef8580300e17a6014b7da07d9208d71980f3e3f784d3999b5628be",
    (4, 80, 0): "e26bc20f4f4c1bb4ddbd6d2263e7f9d8b0811a399071ddb362cb3c399cdabcba",
    (3, 1024, 0): "2e0e82f520ce4258c34b3b7dd5e8a2d02b6a3549d44037c0c2605517c83a17b1",
    (3, 4096, 0): "27dea60c2c33c45eb9391979cd3281faca984ad354eb1d04fe333d0fda1f8aab",
    (3, 1024, 615214): "f61d6b208de825550c755562aef6728573eeb8ccb9eb78461c0e4022724eeaef",
    (3, 4096, 433109): "04cda2b50858ac593643fcefd87c2b9bebe2c83a877bd6dff0994b054fd617e1",
}

#: ``(degree, n, seed)`` cases, called as ``random_regular_edges(*case)``.
#: This one fails six pairing attempts before the seventh succeeds.
RETRY_CASE = (3, 6, 0)
RETRY_EDGES = [
    (0, 1), (0, 4), (0, 5), (1, 2), (1, 4), (2, 3), (2, 5), (3, 4), (3, 5),
]
#: Here NetworkX's stuck check differs from a test over every leftover
#: pair, and the two give different graphs.
QUIRK_CASE = (4, 10, 14)
QUIRK_EDGES = [
    (0, 1), (0, 3), (0, 5), (0, 7), (1, 3), (1, 4), (1, 9), (2, 5),
    (2, 6), (2, 8), (2, 9), (3, 6), (3, 9), (4, 5), (4, 7), (4, 8),
    (5, 8), (6, 7), (6, 8), (7, 9),
]


def _edge_hash(edges) -> str:
    return hashlib.sha256(repr(sorted(edges)).encode()).hexdigest()


def _networkx_edges(nx, degree, n, seed):
    graph = nx.random_regular_graph(degree, n, seed=seed)
    return {(min(a, b), max(a, b)) for a, b in graph.edges()}


def _valid_degrees(n):
    return [d for d in range(6) if d < n and (n * d) % 2 == 0]


class TestDifferentialAgainstNetworkx:
    @pytest.mark.parametrize("n", [*SMALL_N, *LARGE_N])
    def test_same_edges_for_every_degree_and_seed(self, n):
        nx = pytest.importorskip("networkx")
        seeds = SMALL_SEEDS if n in SMALL_N else LARGE_SEEDS
        for degree in _valid_degrees(n):
            for seed in seeds:
                assert random_regular_edges(
                    degree, n, seed
                ) == _networkx_edges(nx, degree, n, seed), (n, degree, seed)

    def test_none_seed_draws_from_the_global_stream(self):
        nx = pytest.importorskip("networkx")
        state = random.getstate()
        try:
            random.seed(123)
            ours = random_regular_edges(3, 20, None)
            ours_next = random_regular_edges(3, 20, None)
            random.seed(123)
            theirs = _networkx_edges(nx, 3, 20, None)
            theirs_next = _networkx_edges(nx, 3, 20, None)
        finally:
            random.setstate(state)
        assert (ours, ours_next) == (theirs, theirs_next)

    @pytest.mark.parametrize("case", [RETRY_CASE, QUIRK_CASE])
    def test_pinned_cases_match_networkx(self, case):
        nx = pytest.importorskip("networkx")
        assert random_regular_edges(*case) == _networkx_edges(nx, *case)


class TestPinnedEdges:
    @pytest.mark.parametrize(
        "case", sorted(EDGE_HASHES), ids=lambda c: "d{}-n{}-s{}".format(*c)
    )
    def test_edge_list_hash(self, case):
        assert _edge_hash(random_regular_edges(*case)) == EDGE_HASHES[case]

    def test_suite_rows_are_in_the_table(self):
        rows = {
            (int(spec.family[-1]), spec.num_qubits, 0)
            for spec in SUITE.values()
            if spec.family.startswith("QAOA-regular")
        }
        assert rows and rows <= set(EDGE_HASHES)

    def test_qaoa_regular_uses_the_generator(self):
        pairs = qaoa_regular(30, degree=4, seed=0).interaction_pairs()
        assert _edge_hash(pairs) == EDGE_HASHES[(4, 30, 0)]

    def test_retry_after_failed_first_attempt(self, monkeypatch):
        attempts = []
        original = qaoa._pairing_attempt

        def counting(*args):
            result = original(*args)
            attempts.append(result is not None)
            return result

        monkeypatch.setattr(qaoa, "_pairing_attempt", counting)
        assert sorted(random_regular_edges(*RETRY_CASE)) == RETRY_EDGES
        assert attempts == [False] * 6 + [True]

    def test_networkx_stuck_check_is_kept(self):
        assert sorted(random_regular_edges(*QUIRK_CASE)) == QUIRK_EDGES

    @pytest.mark.parametrize("n", [5, 8, 13])
    def test_every_node_has_the_degree(self, n):
        for degree in _valid_degrees(n):
            edges = random_regular_edges(degree, n, 7)
            assert all(a < b for a, b in edges)
            counts = [0] * n
            for a, b in edges:
                counts[a] += 1
                counts[b] += 1
            assert counts == [degree] * n


class TestArguments:
    @pytest.mark.parametrize(
        "degree,n",
        [(-2, 10), (-1, 4), (3, 3), (4, 3), (3, 7), (1, 0)],
    )
    def test_out_of_range_raises_value_error(self, degree, n):
        with pytest.raises(ValueError):
            random_regular_edges(degree, n, 0)

    def test_qaoa_regular_negative_degree_is_value_error(self):
        with pytest.raises(ValueError):
            qaoa_regular(10, degree=-2)

    def test_degree_zero_has_no_edges(self):
        assert random_regular_edges(0, 5, 0) == set()
        assert qaoa_regular(5, degree=0).num_two_qubit_gates == 0


def test_service_import_and_suite_rows_do_not_load_networkx():
    script = textwrap.dedent(
        """
        import sys
        import repro.service.server
        from repro.benchsuite import SUITE
        for spec in SUITE.values():
            if spec.family.startswith("QAOA-regular"):
                spec.build(0)
        assert "networkx" not in sys.modules, "networkx was imported"
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(os.path.dirname(__file__), "..", "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
