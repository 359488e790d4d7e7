"""The deterministic seeded fuzzer: ``spmm-bench fuzz``.

Every case is a pure function of ``(master_seed, index)`` — the generator
draws from ``np.random.default_rng([master_seed, index])`` — so any run is
replayable from two integers and a failure report names everything needed
to reproduce it.  Cases rotate through three populations:

* the adversarial zoo (:mod:`repro.verify.adversarial`) — every boundary
  geometry, visited round-robin so a small budget still covers all of it;
* the structured generators (banded, FEM, power-law, stencil,
  diagonal-band, plus the DLMC-style magnitude-pruned and block-sparse
  families) at fuzz-sized dimensions;
* unstructured random matrices, including rectangular and near-empty ones.

Each case runs through the differential oracle (rotating execution-path
subsets so the cheap paths cover every case and the engine/server paths
sample every few cases) and one rotating metamorphic relation sweep.  A
failure is shrunk (:mod:`repro.verify.shrink`) against the exact check
that failed, then persisted to the corpus (:mod:`repro.verify.corpus`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import FormatError
from ..formats.registry import format_names
from ..matrices import generators
from ..matrices.coo_builder import CooBuilder, Triplets
from .adversarial import ADVERSARIAL_BUILDERS
from .corpus import save_failure
from .metamorphic import METAMORPHIC_RELATIONS, run_relation
from .oracle import PATH_NAMES, QUICK_PATHS, DifferentialOracle
from .shrink import shrink_case

__all__ = ["FuzzReport", "generate_case", "run_fuzz"]

_K_CHOICES = (1, 2, 3, 5, 8, 16)

#: Paths exercised beyond QUICK_PATHS every few cases (engine spin-up and
#: the deprecation-warning shim are too slow to pay on every tiny matrix).
_SLOW_PATH_PERIOD = 5


@dataclass
class FuzzCase:
    """One generated fuzz input."""

    index: int
    name: str
    case_seed: int
    triplets: Triplets
    k: int


@dataclass
class FuzzReport:
    """Outcome of a fuzz run."""

    master_seed: int
    budget: int
    cases: int = 0
    oracle_checks: int = 0
    metamorphic_checks: int = 0
    failures: list[dict] = field(default_factory=list)
    corpus_paths: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURE(S)"
        return (
            f"fuzz seed={self.master_seed} budget={self.budget}: "
            f"{self.cases} cases, {self.oracle_checks} oracle checks, "
            f"{self.metamorphic_checks} metamorphic checks — {status}"
        )


def _random_triplets(rng: np.random.Generator) -> Triplets:
    """Unstructured random matrix, possibly rectangular, possibly empty."""
    nrows = int(rng.integers(1, 33))
    ncols = int(rng.integers(1, 33))
    density = float(rng.uniform(0.0, 0.45))
    mask = rng.random((nrows, ncols)) < density
    r, c = np.nonzero(mask)
    builder = CooBuilder(nrows, ncols)
    if r.size:
        values = rng.uniform(0.25, 4.0, r.size) * rng.choice([-1.0, 1.0], r.size)
        builder.add_batch(r, c, values)
    return builder.finish()


def _structured_triplets(rng: np.random.Generator, case_seed: int) -> tuple[str, Triplets]:
    """A fuzz-sized instance of one of the paper's matrix families."""
    n = int(rng.integers(4, 28))
    family = int(rng.integers(7))
    if family == 0:
        return "banded", generators.banded_matrix(
            n, int(rng.integers(1, min(n, 6) + 1)), seed=case_seed
        )
    if family == 1:
        return "fem", generators.fem_matrix(n, 3.0, min(n, 7), seed=case_seed)
    if family == 2:
        return "powerlaw", generators.powerlaw_matrix(n, 2.0, min(n, 9), seed=case_seed)
    if family == 3:
        nx = int(rng.integers(2, 6))
        ny = int(rng.integers(2, 6))
        return "stencil", generators.stencil_matrix(nx, ny, seed=case_seed)
    if family == 4:
        # DLMC-style magnitude pruning, deliberately rectangular: the
        # batch-heavy regime (ncols >> nrows) at fuzz scale.
        ncols = int(rng.integers(4, 40))
        density = float(rng.uniform(0.02, 0.35))
        return "magnitude_pruned", generators.magnitude_pruned_matrix(
            n, ncols, density, seed=case_seed
        )
    if family == 5:
        block = int(rng.integers(2, 6))
        return "block_sparse", generators.block_sparse_matrix(
            n, int(rng.integers(4, 40)), block_size=block,
            block_density=float(rng.uniform(0.05, 0.5)), seed=case_seed,
        )
    diags = sorted({int(d) for d in rng.integers(-(n - 1), n, size=3)})
    return "diagonal_band", generators.diagonal_band_matrix(n, diags, seed=case_seed)


def generate_case(master_seed: int, index: int) -> FuzzCase:
    """Deterministically build fuzz case ``index`` of a seeded run."""
    rng = np.random.default_rng([master_seed, index])
    case_seed = int(rng.integers(1, 2**31))
    k = int(_K_CHOICES[int(rng.integers(len(_K_CHOICES)))])
    zoo = tuple(ADVERSARIAL_BUILDERS)
    if index % 3 == 0:
        name = zoo[(index // 3) % len(zoo)]
        triplets = ADVERSARIAL_BUILDERS[name](case_seed)
        return FuzzCase(index, f"adversarial:{name}", case_seed, triplets, k)
    if index % 3 == 1:
        name, triplets = _structured_triplets(rng, case_seed)
        return FuzzCase(index, f"generator:{name}", case_seed, triplets, k)
    return FuzzCase(index, "random", case_seed, _random_triplets(rng), k)


def _check_nonfinite_rejection(rng: np.random.Generator) -> str | None:
    """Non-finite values must be rejected at the builder, not propagate."""
    bad = float(rng.choice([np.nan, np.inf, -np.inf]))
    builder = CooBuilder(3, 3)
    try:
        builder.add_batch([0, 1], [1, 2], [1.0, bad])
    except FormatError:
        return None
    except Exception as exc:  # noqa: BLE001
        return f"non-finite value raised {type(exc).__name__}, expected FormatError"
    return f"non-finite value {bad!r} was accepted by CooBuilder"


def _persist(corpus_dir, case, check, error, shrunk, report) -> None:
    if corpus_dir is None:
        return
    path = save_failure(
        corpus_dir,
        triplets=shrunk.triplets,
        k=shrunk.k,
        check=check,
        error=error,
        master_seed=report.master_seed,
        case_seed=case.case_seed,
        case_index=case.index,
        case_name=case.name,
        original_shape=(case.triplets.nrows, case.triplets.ncols),
        original_nnz=case.triplets.nnz,
        shrink_steps=shrunk.steps,
    )
    report.corpus_paths.append(str(path))


def run_fuzz(
    seed: int = 0,
    budget: int = 200,
    corpus_dir=None,
    *,
    formats=None,
    variants=("serial", "parallel"),
    tracer=None,
    shrink: bool = True,
    max_shrink_attempts: int = 300,
    max_failures: int = 10,
) -> FuzzReport:
    """Run ``budget`` deterministic fuzz cases; returns a :class:`FuzzReport`.

    Failures are shrunk and persisted to ``corpus_dir`` (when given); the
    run stops early after ``max_failures`` distinct failing cases — a tree
    that broken needs a developer, not more cases.
    """
    report = FuzzReport(master_seed=int(seed), budget=int(budget))
    fmts = tuple(formats) if formats is not None else tuple(format_names())
    relations = tuple(METAMORPHIC_RELATIONS)
    oracle = DifferentialOracle(
        formats=fmts, variants=tuple(variants), paths=PATH_NAMES, tracer=tracer
    )
    with oracle:
        for index in range(int(budget)):
            case = generate_case(int(seed), index)
            report.cases += 1
            if tracer is not None:
                tracer.count("fuzz_cases")

            if index % 25 == 0:
                message = _check_nonfinite_rejection(np.random.default_rng(case.case_seed))
                if message is not None:
                    report.failures.append(
                        {"case": "nonfinite_rejection", "index": index,
                         "check": {"kind": "validation"}, "error": message,
                         "shrunk_shape": (3, 3), "shrunk_nnz": 2, "shrink_steps": 0}
                    )

            slow = index % _SLOW_PATH_PERIOD == 0
            case_paths = PATH_NAMES if slow else QUICK_PATHS
            case_variants = tuple(variants) if index % 2 == 0 else (tuple(variants)[0],)
            result = oracle.check(
                case.triplets, k=case.k, seed=case.case_seed, paths=case_paths,
                variants=case_variants,
            )
            report.oracle_checks += result.checks
            for d in result.discrepancies[:3]:  # shrink a few, not a flood
                shrunk = _shrink_oracle_failure(
                    oracle, case, d, shrink, max_shrink_attempts
                )
                check = {"kind": "oracle", "path": d.path, "fmt": d.fmt, "variant": d.variant}
                report.failures.append(
                    {"case": case.name, "index": case.index, "check": check,
                     "error": d.describe(), "shrunk_shape": shrunk.shape,
                     "shrunk_nnz": shrunk.triplets.nnz, "shrink_steps": shrunk.steps}
                )
                _persist(corpus_dir, case, check, d.describe(), shrunk, report)

            # One rotating metamorphic sweep per case: all relations, one
            # (format, variant) cell — the budget walks the whole matrix.
            meta_fmt = fmts[index % len(fmts)]
            meta_failures = []
            for name in relations:
                report.metamorphic_checks += 1
                try:
                    msgs = run_relation(
                        name, case.triplets, k=case.k, seed=case.case_seed,
                        fmt=meta_fmt, variant=case_variants[0],
                    )
                except Exception as exc:  # noqa: BLE001 - a crash is a failure
                    msgs = [f"relation raised {type(exc).__name__}: {exc}"]
                meta_failures.extend((name, m) for m in msgs)
            for name, message in meta_failures[:3]:
                shrunk = _shrink_relation_failure(
                    case, name, meta_fmt, case_variants[0], shrink, max_shrink_attempts
                )
                check = {"kind": "metamorphic", "relation": name, "fmt": meta_fmt,
                         "variant": case_variants[0]}
                report.failures.append(
                    {"case": case.name, "index": case.index, "check": check,
                     "error": message, "shrunk_shape": shrunk.shape,
                     "shrunk_nnz": shrunk.triplets.nnz, "shrink_steps": shrunk.steps}
                )
                _persist(corpus_dir, case, check, message, shrunk, report)

            if tracer is not None and (result.discrepancies or meta_failures):
                tracer.count("fuzz_failures", len(result.discrepancies) + len(meta_failures))
                tracer.warn(
                    f"fuzz case {index} ({case.name}) failed "
                    f"{len(result.discrepancies) + len(meta_failures)} check(s)"
                )
            if len(report.failures) >= max_failures:
                break
    if tracer is not None:
        # The oracle already streamed fuzz_oracle_checks; the metamorphic
        # sweep calls run_relation directly, so its total is counted here
        # under the same name run_metamorphic would use.
        tracer.count("fuzz_metamorphic_checks", report.metamorphic_checks)
    return report


def _shrink_oracle_failure(oracle, case, discrepancy, shrink, max_attempts):
    def predicate(t, kk):
        return bool(
            oracle.check_single(
                t, kk, discrepancy.fmt, discrepancy.variant, discrepancy.path,
                seed=case.case_seed,
            )
        )

    if not shrink:
        return shrink_case(case.triplets, case.k, lambda t, kk: False, max_attempts=0)
    return shrink_case(case.triplets, case.k, predicate, max_attempts=max_attempts)


def _shrink_relation_failure(case, relation, fmt, variant, shrink, max_attempts):
    def predicate(t, kk):
        try:
            return bool(
                run_relation(
                    relation, t, k=kk, seed=case.case_seed, fmt=fmt, variant=variant
                )
            )
        except Exception:  # noqa: BLE001 - a crashing relation is still failing
            return True

    if not shrink:
        return shrink_case(case.triplets, case.k, lambda t, kk: False, max_attempts=0)
    return shrink_case(case.triplets, case.k, predicate, max_attempts=max_attempts)
