"""The oracle's exact contract catches summation-order bugs.

Every non-``grouped`` path must equal ``exact_reference`` byte for byte
(``tests/kernels/test_sum_order.py`` pins the reference to a Python loop).
A kernel that adds a row's products in another order therefore fails the
oracle instead of hiding inside a tolerance band.  A ``grouped`` cell's
paths must equal its direct kernel result byte for byte.
"""

import numpy as np

from repro.kernels import planner
from repro.verify import DifferentialOracle
from repro.verify.adversarial import degenerate_zoo
from tests.conftest import make_random_triplets


def _zoo_discrepancies(**oracle_options):
    found = []
    # Paths that plan afresh, so no mutated plan outlives the test.
    with DifferentialOracle(paths=("direct", "plan_uncached"), **oracle_options) as oracle:
        for t in degenerate_zoo(3).values():
            found += oracle.check(t, k=8, seed=3).discrepancies
    return found


def _reverse_thin(fragment):
    """The fragment with its thin slots in reverse order."""
    rows, wide, thin = fragment
    if thin is None:
        return fragment
    widths, idx, val = thin
    starts = np.cumsum([0] + widths[:-1])
    order = np.concatenate([np.arange(s, s + m) for s, m in zip(starts, widths)][::-1])
    return rows, wide, (widths[::-1], idx[order], val[order])


def test_reversed_thin_slots_fail_the_oracle(monkeypatch):
    real = planner._slot_unit

    def reversed_thin_slots(fragments, B, C):
        real([_reverse_thin(f) for f in fragments], B, C)

    monkeypatch.setattr(planner, "_slot_unit", reversed_thin_slots)
    found = _zoo_discrepancies()
    assert found
    assert {(d.kind, d.tolerance) for d in found} == {("value", 0.0)}


def test_dirty_rows_summed_at_once_fail_the_oracle(monkeypatch):
    def merge_with_sum(C, partials):
        for r_first, r_last, local, head in partials:
            if len(head):
                C[r_first] += head.sum(axis=0)
            C[r_first : r_last + 1] += local
        return C

    monkeypatch.setattr(planner, "_merge_dirty_rows", merge_with_sum)
    found = _zoo_discrepancies(formats=("csr5",))
    assert found
    assert {(d.variant, d.kind) for d in found} == {("parallel", "value")}


def test_migration_path_probes_every_covered_format():
    with DifferentialOracle(formats=("csr", "ell"), variants=("serial",),
                            paths=("migration",)) as oracle:
        report = oracle.check(make_random_triplets(30, 24, density=0.3, seed=2), k=4)
        policy = oracle._get_migration_engine()._migrations.policy
    assert report.checks == 2
    assert report.ok, [d.describe() for d in report.discrepancies]
    assert policy.candidate_formats == ("csr", "ell")


def test_grouped_paths_must_match_the_direct_bytes(monkeypatch):
    """One ulp off sits inside the dense band, but not on the direct bytes."""
    real = DifferentialOracle._run_plan_path

    def nudged(self, path, *args):
        out = real(self, path, *args)
        if path != "plan_cached":
            return out
        return [np.nextafter(r, np.inf) if isinstance(r, np.ndarray) else r for r in out]

    monkeypatch.setattr(DifferentialOracle, "_run_plan_path", nudged)
    with DifferentialOracle(formats=("csr",), variants=("grouped",),
                            paths=("direct", "plan_uncached", "plan_cached")) as oracle:
        report = oracle.check(make_random_triplets(17, 13, density=0.3, seed=5), k=6, seed=5)
    assert report.checks == 3
    assert {(d.path, d.kind, d.tolerance) for d in report.discrepancies} == {
        ("plan_cached", "value", 0.0)
    }
