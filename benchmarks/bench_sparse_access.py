"""Sparse top-K access A/B — the large-N scaling benchmark.

A/Bs ``access_policy="sparse"`` (top-K content addressing with K-row
sparse write/linkage updates, O(K*N) per step) against the dense
baseline (O(N^2)) at memory sizes where the difference matters, and
writes a machine-readable record to ``BENCH_sparse_access.json`` at the
repo root.  Schema (see ``repro.eval.bench_schema.validate_sparse_access``
for the authoritative contract)::

    {
      "memory_size": 2048, "access_policy": "sparse", ...,  # headline point
      "variants": {
        "dense_n384":        {...},   # dense reference at each N
        "sparse_k64_n384":   {...},
        "dense_n1024":       {...},
        "sparse_k64_n1024":  {...},
        "dense_n2048":       {...},
        "sparse_k128_n2048": {...},   # the headline sparse point
        "dense_n2048_r4w64_reference":       {...},   # paper-shape lanes
        "sparse_k128_n2048_r4w64_reference": {...},   # (R=4, W=64), one
        "dense_n2048_r4w64_tuned":           {...},   # per kernel backend
        "sparse_k128_n2048_r4w64_tuned":     {...}
      }
    }

Every entry carries its measured ``steps_per_sec``, the dense baseline
at the same ``N``, the resulting ``speedup_vs_dense``, and the explicit
accuracy cost (``max/mean_abs_delta_vs_dense``) of a same-seed,
same-input unbatched trajectory against the dense float64 path.  The
asserted floor is the ROADMAP item-2 target: at ``N=2048`` sparse must
beat dense by >= 5x.  Smaller sizes record their measured ratios with
no floor — at ``N=384`` the O(N^2) phases are not yet dominant and the
ratio is informational.
"""

import json
import os
import pathlib

from repro.eval.bench_schema import merge_artifact, validate_sparse_access
from repro.eval.runners import measure_sparse_access

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
ARTIFACT = REPO_ROOT / "BENCH_sparse_access.json"

#: Accuracy-delta ceiling for the recorded sparse points: top-K
#: truncation is an approximation, but a delta at O(1) would mean the
#: policy is computing a different function, not an approximate one.
DELTA_CEILING = 0.5


def _merge_artifact(update: dict) -> None:
    """Read-modify-write the artifact JSON, preserving other entries."""
    merge_artifact(ARTIFACT, update)


def bench_sparse_access_n384():
    """N=384: smallest size in the sweep; ratio is informational."""
    results = measure_sparse_access(384, top_ks=(64,), repeats=3)
    _merge_artifact(
        {"variants": {name: r.to_json() for name, r in results.items()}}
    )
    sparse = results["sparse_k64_n384"]
    assert sparse.max_abs_delta_vs_dense <= DELTA_CEILING
    assert results["dense_n384"].speedup_vs_dense == 1.0


def bench_sparse_access_n1024():
    """N=1024: the large-N serve scenario's memory size."""
    results = measure_sparse_access(1024, top_ks=(64,), repeats=3)
    _merge_artifact(
        {"variants": {name: r.to_json() for name, r in results.items()}}
    )
    sparse = results["sparse_k64_n1024"]
    assert sparse.max_abs_delta_vs_dense <= DELTA_CEILING
    # By N=1024 the N^2 phases dominate the dense step; sparse must at
    # minimum not lose to dense (measured ratios are far higher).
    assert sparse.speedup_vs_dense >= 1.0


def bench_sparse_access_n2048():
    """N=2048 headline point: sparse must beat dense by >= 5x.

    The floor is backend-aware: the ROADMAP item-2 target (>= 5x) is
    against the *reference* dense baseline.  Under ``REPRO_BACKEND=
    tuned`` (the sparse-tuned CI lane) the dense baseline itself runs
    the fused cache-blocked kernels and gets ~1.6x faster at N=2048
    while the gather-bound sparse path gains little, so the honest
    floor there is the compressed one — sparse must still beat the
    *tuned* dense baseline by >= 3x (measured ~3.8x).
    """
    backend = os.environ.get("REPRO_BACKEND", "reference")
    results = measure_sparse_access(2048, top_ks=(128,), repeats=2)
    sparse = results["sparse_k128_n2048"]
    # Always leave the artifact on disk, even if the floor fails below:
    # a regressing run should still record what it measured.  The
    # headline sparse point doubles as the artifact's top-level entry.
    _merge_artifact({
        **sparse.to_json(),
        "variants": {name: r.to_json() for name, r in results.items()},
    })
    assert sparse.max_abs_delta_vs_dense <= DELTA_CEILING
    assert sparse.speedup_vs_dense >= (5.0 if backend == "reference" else 3.0)


def bench_sparse_access_paper_shape():
    """N=2048, K=128 at the paper's R=4, W=64, under both CPU backends.

    The R=1, W=16 points above understate the read phase: with four
    heads the reference kernel's strided support-column gather dominates
    the sparse step, which the tuned backend replaces with one streaming
    pass over the linkage.  The lanes record both backends side by side;
    the floor pins that the tuned sparse step beats the reference one.
    """
    results = {}
    for backend in ("reference", "tuned"):
        results.update(measure_sparse_access(
            2048, top_ks=(128,), repeats=2, backend=backend, lane=(4, 64)
        ))
    _merge_artifact(
        {"variants": {name: r.to_json() for name, r in results.items()}}
    )
    ref = results["sparse_k128_n2048_r4w64_reference"]
    tuned = results["sparse_k128_n2048_r4w64_tuned"]
    for sparse in (ref, tuned):
        assert sparse.max_abs_delta_vs_dense <= DELTA_CEILING
    assert tuned.steps_per_sec > ref.steps_per_sec


def bench_sparse_tuned_backend():
    """Sparse-vs-dense under the tuned backend's fused kernels.

    The tuned backend accelerates the *dense* baseline more than the
    sparse path (the K-row sparse kernels are gather-bound and mostly
    shared), so the dense-vs-sparse ratio compresses — this lane pins
    that the sparse policy still pays off with the fused kernels
    engaged at N=1024.  No artifact writes: ``SPARSE_ENTRY_KEYS``
    carries no backend field, so tuned numbers merged into
    ``BENCH_sparse_access.json`` would be indistinguishable from (and
    clobber) the reference-backend entries.  CI additionally runs the
    whole file under ``REPRO_BACKEND=tuned`` (the sparse-tuned bench
    lane), which exercises the recorded floors end-to-end on the tuned
    backend.
    """
    results = measure_sparse_access(
        1024, top_ks=(64,), repeats=3, backend="tuned"
    )
    sparse = results["sparse_k64_n1024"]
    assert sparse.max_abs_delta_vs_dense <= DELTA_CEILING
    assert sparse.speedup_vs_dense >= 1.0


def bench_sparse_artifact_schema_valid():
    """The artifact written above satisfies the published contract."""
    problems = validate_sparse_access(json.loads(ARTIFACT.read_text()))
    assert problems == [], "\n".join(problems)
