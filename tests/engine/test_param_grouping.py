"""Parameterized plan identity: two (C, sigma) cells must never collide.

The same matrix tuned at two SELL-C-sigma settings forms two independent
plan groups everywhere an identity is keyed: the engine's fingerprint
grouping, the plan cache's memo and on-disk tier, and migration redirects.
"""

import numpy as np
import pytest

from repro.engine import Engine, SpmmRequest
from repro.kernels.plan import MigrationTarget, PlanCache, params_token
from repro.matrices.generators import powerlaw_matrix
from repro.tune.store import TuneDecision


@pytest.fixture(scope="module")
def triplets():
    return powerlaw_matrix(80, avg_nnz=5, max_nnz=40, seed=11)


CELL_A = {"chunk": 4, "sigma": 8}
CELL_B = {"chunk": 16, "sigma": 80}


class TestPlanCacheSeparation:
    def test_memo_keys_distinct(self, triplets):
        cache = PlanCache(maxsize=8)
        plan_a, prov_a = cache.get_or_build_plan(
            triplets, "sell", variant="serial", k=4, format_params=CELL_A
        )
        plan_b, prov_b = cache.get_or_build_plan(
            triplets, "sell", variant="serial", k=4, format_params=CELL_B
        )
        assert prov_a == prov_b == "built"  # second cell must NOT hit the memo
        assert plan_a.key != plan_b.key
        assert plan_a.key.format_params != plan_b.key.format_params
        assert plan_a.matrix.chunk != plan_b.matrix.chunk

    def test_disk_tier_tokens_distinct(self, triplets, tmp_path):
        cache = PlanCache(maxsize=8, directory=tmp_path)
        plan_a, _ = cache.get_or_build_plan(
            triplets, "sell", variant="serial", k=4, format_params=CELL_A
        )
        plan_b, _ = cache.get_or_build_plan(
            triplets, "sell", variant="serial", k=4, format_params=CELL_B
        )
        assert plan_a.key.token != plan_b.key.token
        # A sibling cache over the same directory resolves each cell to its
        # own artifact — provenance "disk", with the cell's own geometry.
        sibling = PlanCache(maxsize=8, directory=tmp_path)
        got_a, prov = sibling.get_or_build_plan(
            triplets, "sell", variant="serial", k=4, format_params=CELL_A
        )
        assert prov == "disk"
        assert got_a.matrix.chunk == 4
        got_b, prov = sibling.get_or_build_plan(
            triplets, "sell", variant="serial", k=4, format_params=CELL_B
        )
        assert prov == "disk"
        assert got_b.matrix.chunk == 16

    def test_migration_redirect_does_not_leak_across_cells(self, triplets):
        cache = PlanCache(maxsize=8)
        key_a = PlanCache.migration_key("fp", "sell", "serial", 4, 1, format_params=CELL_A)
        key_b = PlanCache.migration_key("fp", "sell", "serial", 4, 1, format_params=CELL_B)
        assert key_a != key_b
        cache.install_migration(
            key_a, format_name="sell", variant="optimized", threads=1,
            format_params=CELL_A,
        )
        assert cache.resolve_migration(key_a) is not None
        assert cache.resolve_migration(key_b) is None

    def test_migration_key_json_round_trip(self):
        key = PlanCache.migration_key(
            "fp", "sell", "serial", 8, 2, "mixed", format_params=CELL_B
        )
        assert len(key) == 7
        assert PlanCache._key_from_json(PlanCache._key_to_json(key)) == key

    def test_migration_persistence_keeps_params(self, triplets, tmp_path):
        cache = PlanCache(maxsize=8, directory=tmp_path)
        key_a = PlanCache.migration_key("fp", "sell", "serial", 4, 1, format_params=CELL_A)
        cache.install_migration(
            key_a, format_name="sell", variant="optimized", threads=1,
            format_params=CELL_A,
        )
        sibling = PlanCache(maxsize=8, directory=tmp_path)
        target = sibling.resolve_migration(key_a)
        assert isinstance(target, MigrationTarget)
        assert dict(target.format_params) == CELL_A
        key_b = PlanCache.migration_key("fp", "sell", "serial", 4, 1, format_params=CELL_B)
        assert sibling.resolve_migration(key_b) is None

    def test_params_token_spelling_invariance(self):
        assert params_token({"sigma": 8, "chunk": 4}) == params_token(
            (("chunk", 4), ("sigma", 8))
        )
        assert params_token(None) == params_token({}) == ()


class TestEngineGrouping:
    def test_two_cells_build_two_plans(self, triplets):
        # Plan sharing within a batch is a thread-backend property: process
        # workers each build cell A in their own cache.
        with Engine(workers=2, max_in_flight=8, backend="thread") as engine:
            reqs = [
                SpmmRequest(matrix=triplets, k=4, fmt="sell", fmt_params=CELL_A,
                            variant="serial", repeats=1),
                SpmmRequest(matrix=triplets, k=4, fmt="sell", fmt_params=CELL_A,
                            variant="serial", repeats=1),
                SpmmRequest(matrix=triplets, k=4, fmt="sell", fmt_params=CELL_B,
                            variant="serial", repeats=1),
            ]
            results = engine.map_batch(reqs)
            provenances = [r.plan_provenance for r in results]
            # Cell A builds once and shares within the batch; cell B is its
            # own group and must build its own plan.
            assert provenances.count("built") == 2
            assert provenances.count("shared") == 1
            assert provenances[2] == "built"
            # Every cell sums each row left to right, so both agree bitwise.
            assert np.array_equal(results[0].output, results[1].output)
            assert np.array_equal(results[0].output, results[2].output)

    def test_spec_shorthand_equivalent_to_mapping(self, triplets):
        with Engine(workers=1, max_in_flight=4) as engine:
            r1 = engine.run(SpmmRequest(
                matrix=triplets, k=4, fmt="sell:c=4,s=8", variant="serial", repeats=1
            ))
            r2 = engine.run(SpmmRequest(
                matrix=triplets, k=4, fmt="sell", fmt_params=CELL_A,
                variant="serial", repeats=1
            ))
            assert np.array_equal(r1.output, r2.output)


class TestTuneDecisionParams:
    def test_format_params_round_trip(self):
        decision = TuneDecision(
            fingerprint="fp", matrix="m", format_name="sell",
            variant="parallel", threads=2, chunk_elements=1024, k=8,
            score_mflops=10.0, mode="model",
            format_params=(("sigma", 512), ("chunk", 32)),
        )
        # __post_init__ sorts; to_dict/from_dict preserve exactly.
        assert decision.format_params == (("chunk", 32), ("sigma", 512))
        back = TuneDecision.from_dict(decision.to_dict())
        assert back.format_params == decision.format_params
        assert dict(back.format_params) == {"chunk": 32, "sigma": 512}
