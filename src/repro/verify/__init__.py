"""Cross-format/variant correctness subsystem.

The suite multiplies one logical SpMM through 8 sparse formats, ~10 kernel
variants, a plan cache, an autotuned dispatcher, and a batched engine — a
combinatorial surface where silent numerical divergence hides.  The paper's
credibility rests on all formats computing the same product (§4.3), and
related correctness harnesses (SELL-C-sigma, run-time format transformation)
show padding/permutation/chunking each bring distinct failure modes.  This
package is the machine that hunts them:

* :mod:`repro.verify.reference` — the exact left-to-right reference, the
  COO/dense reference multiplies and the tolerance model;
* :mod:`repro.verify.oracle` — the **differential oracle**: one logical
  multiply through every execution path (direct kernel, ``api.multiply``,
  plan-cached/uncached, engine-batched/direct,
  ``variant="auto"``), asserted bit-identical to the exact reference
  (the ``grouped`` variants: bit-identical to their direct kernel result,
  which must sit within tolerance of the dense reference);
* :mod:`repro.verify.metamorphic` — oracle-free relations: permutation
  equivariance, scalar scaling, transpose duality, k-slicing, format
  round-trips;
* :mod:`repro.verify.adversarial` — the degenerate-matrix zoo (empty rows,
  single dense row, nnz=0, 1xn, duplicate COO entries, ...);
* :mod:`repro.verify.fuzz` — the deterministic seeded fuzzer
  (``spmm-bench fuzz --seed --budget --corpus``);
* :mod:`repro.verify.shrink` — the greedy shrinker that minimizes failing
  cases before they are persisted;
* :mod:`repro.verify.corpus` — the replayable JSON failure corpus.
"""

from .adversarial import ADVERSARIAL_BUILDERS, degenerate_zoo
from .corpus import load_corpus, replay_corpus, save_failure
from .fuzz import FuzzReport, generate_case, run_fuzz
from .metamorphic import METAMORPHIC_RELATIONS, run_metamorphic, run_relation
from .oracle import (
    DEFAULT_FORMAT_PARAMS,
    PATH_NAMES,
    DifferentialOracle,
    Discrepancy,
    OracleReport,
    supported_variants,
)
from .reference import (
    dense_reference, exact_reference, reference_spmm, result_tolerance, verify_result
)
from .shrink import ShrinkResult, shrink_case

__all__ = [
    "ADVERSARIAL_BUILDERS",
    "DEFAULT_FORMAT_PARAMS",
    "METAMORPHIC_RELATIONS",
    "PATH_NAMES",
    "DifferentialOracle",
    "Discrepancy",
    "FuzzReport",
    "OracleReport",
    "ShrinkResult",
    "degenerate_zoo",
    "dense_reference",
    "exact_reference",
    "generate_case",
    "load_corpus",
    "reference_spmm",
    "replay_corpus",
    "result_tolerance",
    "run_fuzz",
    "run_metamorphic",
    "run_relation",
    "save_failure",
    "shrink_case",
    "supported_variants",
    "verify_result",
]
