"""Where the suite lives, the environment it pins, and its problem sizes.

Two sizes: the recorded ``full`` one and the ``smoke`` one.

Work is fixed by *count* here, never by time or by convergence: ensemble
sizes, observation periods, request and publish counts are constants,
and the workloads set the convergence tolerance out of reach so every
member always runs.  ``--seconds`` only decides for how long the fixed
body is repeated.  Smoke numbers are never recorded.

Durations in the comments were measured on the 2-core reference box with
the pinned environment of :mod:`harness`.
"""

from __future__ import annotations

from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent

#: Harness environment (README.md, "What makes the numbers repeat").  glibc
#: and OpenBLAS read these at start-up, so ``run.py`` re-executes itself with
#: them in place before the interpreter that imports numpy begins.  The
#: program reads none of them.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 36),
    "MALLOC_TOP_PAD_": str(1 << 28),
}

#: Convergence tolerance no similarity coefficient reaches: all N members run.
UNREACHABLE_TOLERANCE = 0.99999

FULL = {
    # Bodies run with, and as many without, the program's TraceRecorder in
    # the traced pass; the tracing overhead is the ratio of the two medians.
    "trace_pairs": 9,
    "cycle_ref": {
        # ~1.2 s per body: 2 periods x (32 members + central + truth) x 7
        # steps of the n = 9856 model, 2 TL tasks per period, one publish per
        # period and the web read-back.  The first body of a process is
        # slower (imports inside the program, cold caches): one warm-up.
        "grid": (32, 28, 4),
        "spinup_days": 12.0,
        "initial_rank": 16,
        "subspace_rank": 24,
        "period_hours": 0.75,
        "n_periods": 2,
        "ensemble": (16, 32),
        "acoustic_slices": 1,
        "acoustic_frequencies": (100.0, 200.0),
        "warmups": 1,
        "min_reps": 7,
    },
    "mtc_pool": {
        # ~0.55 s per body on the one CPU it is confined to: a 2-worker
        # parallel workflow (~0.4 s, about what the serial shepherd takes on
        # the same members) plus one default-backend engine run (~0.15 s).
        # Members are 4 steps long so that the pipeline around them (pool,
        # differ, covariance files, SVD loop: ~0.17 s of the body) is a third
        # of it.  Spread over both CPUs the pool run takes twice as long and
        # moves by 20 % from run to run (README.md).
        "grid": (32, 28, 4),
        "spinup_days": 9.0,
        "initial_rank": 16,
        "subspace_rank": 24,
        "member_days": 0.02,
        "ensemble": (12, 24),
        "n_workers": 2,
        "one_cpu": True,
        "fault_crash_rate": 0.1,
        "retry_attempts": 4,
        "warmups": 1,
        "min_reps": 7,
    },
    "analysis_dense": {
        # ~1.4 s per body: global 0.34 + tiled 0.22 + cold SVD 0.62 + warm
        # SVD 0.21.  The first two full-size bodies grow the heap and run
        # up to 2x slower, hence two warm-ups.
        "field_shape": (128, 100),
        "rank": 192,
        "bump_radius": 6.0,
        "tile_shape": (16, 16),
        "taper_radius": 8.0,
        "energy_floor": 0.02,
        "noise_std": 0.3,
        "anomaly_columns": 256,
        "warm_columns": 64,
        "svd_rank": 60,
        "warmups": 2,
        "min_reps": 7,
    },
    "serve_hot": {
        # ~0.45 s per body (4000-5000 requests/s).
        "field_shape": (128, 160),
        "tile_size": 16,
        "levels": 3,
        "retain": 8,
        "seed_versions": 288,
        "clients": 2,
        "one_cpu": True,
        "requests": 2000,
        "publish_every": 0,
        "warmups": 1,
        "min_reps": 9,
    },
    "serve_publish": {
        # ~0.5 s per body (1500-1800 requests/s, 4 publishes of ~8 ms).
        "field_shape": (128, 160),
        "tile_size": 16,
        "levels": 3,
        "retain": 8,
        "seed_versions": 288,
        "clients": 2,
        "one_cpu": True,
        "requests": 800,
        "publish_every": 200,
        "warmups": 1,
        "min_reps": 9,
    },
    "probes": {
        # The whole battery takes ~4 s.
        "grid": (32, 28, 4),
        "member_days": 0.1,
        "members": 4,
        "analysis_shape": (64, 50),
        "analysis_rank": 96,
        "anomaly_columns": 128,
        "product_versions": 12,
        "handle_hits": 2000,
        "replaces": 24,
        "acoustic_tasks": 4,
    },
}

SMOKE = {
    "trace_pairs": 1,
    "cycle_ref": {
        **FULL["cycle_ref"],
        "grid": (16, 14, 3),
        "spinup_days": 1.0,
        "initial_rank": 6,
        "subspace_rank": 8,
        "ensemble": (4, 8),
        "acoustic_slices": 1,
        "acoustic_frequencies": (100.0,),
        "warmups": 0,
        "min_reps": 2,
    },
    "mtc_pool": {
        **FULL["mtc_pool"],
        "grid": (16, 14, 3),
        "spinup_days": 0.5,
        "initial_rank": 6,
        "subspace_rank": 8,
        "ensemble": (4, 8),
        "warmups": 0,
        "min_reps": 2,
    },
    "analysis_dense": {
        **FULL["analysis_dense"],
        "field_shape": (40, 40),
        "rank": 32,
        "tile_shape": (8, 8),
        "anomaly_columns": 48,
        "warm_columns": 12,
        "svd_rank": 16,
        "warmups": 0,
        "min_reps": 2,
    },
    "serve_hot": {
        **FULL["serve_hot"],
        "field_shape": (32, 48),
        "tile_size": 8,
        "seed_versions": 12,
        "requests": 2000,
        "warmups": 0,
        "min_reps": 2,
    },
    "serve_publish": {
        **FULL["serve_publish"],
        "field_shape": (32, 48),
        "tile_size": 8,
        "seed_versions": 12,
        "requests": 2000,
        "warmups": 0,
        "min_reps": 2,
    },
    "probes": {
        **FULL["probes"],
        "grid": (16, 14, 3),
        "members": 2,
        "analysis_shape": (24, 20),
        "analysis_rank": 16,
        "anomaly_columns": 24,
        "product_versions": 4,
        "handle_hits": 200,
        "replaces": 4,
        "acoustic_tasks": 1,
    },
}


def sizes_for(smoke: bool) -> dict:
    """The size table for one mode."""
    return SMOKE if smoke else FULL
