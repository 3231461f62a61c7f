"""Every output check passes on a good output and fails on a corrupted one."""

import copy

import pytest

import verify


def good_cycle():
    return {
        "error_reduction": [0.7, 0.1],
        "ensemble_size": [32, 32],
        "finite": [True, True],
        "published": [1, 2],
        "store_version": 2,
        "head_checksum": "abc",
        "reads": {
            "cold_statuses": [200, 200, 200],
            "manifest_checksum": "abc",
            "manifest_version": 2,
            "fields": ["sst_nowcast", "sst_sigma"],
            "revalidation_status": 304,
        },
        "acoustic": {"tasks": 16, "failed": 0},
    }


def corrupt(digest, path, value):
    bad = copy.deepcopy(digest)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return bad


def test_cycle_check_accepts_good_output():
    assert verify.check_cycle([good_cycle()] * 3, n_periods=2, ensemble_size=32) == []


@pytest.mark.parametrize(
    "path, value",
    [
        (("error_reduction",), [0.7, float("nan")]),
        (("error_reduction",), [0.7]),
        (("finite",), [True, False]),
        (("ensemble_size",), [32, 31]),
        (("store_version",), 1),
        (("published",), [1]),
        (("reads", "cold_statuses"), [200, 503, 200]),
        (("reads", "manifest_checksum"), "zzz"),
        (("reads", "manifest_version"), 1),
        (("reads", "revalidation_status"), 200),
        (("reads", "fields"), []),
        (("acoustic", "failed"), 1),
    ],
)
def test_cycle_check_rejects_corruption(path, value):
    bad = corrupt(good_cycle(), path, value)
    assert verify.check_cycle([good_cycle(), bad], n_periods=2, ensemble_size=32)


def test_cycle_check_rejects_unrepeatable_output():
    drifted = corrupt(good_cycle(), ("error_reduction",), [0.7, 0.1 + 1e-6])
    failures = verify.check_cycle([good_cycle(), drifted], n_periods=2, ensemble_size=32)
    assert any("differs from repetition 0" in f for f in failures)


def good_pool_run():
    return {
        "ensemble_size": 24, "n_completed": 24, "n_failed": 0, "n_cancelled": 0,
        "n_retried": 0, "wall_s": 3.0, "overlap": 1.0, "rho": 1.0, "checks": 2,
    }


def good_pool():
    engine = {"ensemble_size": 24, "n_failed": 0, "wall_s": 0.6, "rho": 0.9999, "checks": 2}
    return {"parallel": good_pool_run(), "engine": engine}


def test_pool_check_accepts_good_output():
    assert verify.check_pool([good_pool()] * 3, ensemble_size=24) == []


@pytest.mark.parametrize(
    "path, value",
    [
        (("parallel", "ensemble_size"), 23),
        (("parallel", "n_failed"), 1),
        (("parallel", "rho"), 0.99),
        (("parallel", "rho"), float("nan")),
        (("engine", "ensemble_size"), 12),
        (("engine", "n_failed"), 2),
        (("engine", "rho"), 0.5),
    ],
)
def test_pool_check_rejects_corruption(path, value):
    assert verify.check_pool([corrupt(good_pool(), path, value)], ensemble_size=24)


def test_faulted_check():
    retried = {**good_pool_run(), "n_retried": 3}
    assert verify.check_faulted(retried, ensemble_size=24) == []
    assert verify.check_faulted(good_pool_run(), ensemble_size=24)  # nothing retried
    assert verify.check_faulted({**retried, "rho": 0.9}, ensemble_size=24)
    assert verify.check_faulted({**retried, "n_failed": 1}, ensemble_size=24)


def good_analysis():
    return {
        "finite": True, "svd_finite": True,
        "global_ref_rel_err": 1e-12, "rmse_ratio_global": 0.30, "rmse_ratio_tiled": 0.31,
        "tiled_rel_err": 0.06, "tiled_variance_excess": -0.2, "svd_warm_rel_err": 0.001,
    }


def test_analysis_check_accepts_good_output():
    assert verify.check_analysis([good_analysis()] * 9) == []


@pytest.mark.parametrize(
    "key, value",
    [
        ("finite", False),
        ("svd_finite", False),
        ("global_ref_rel_err", 1e-3),
        ("rmse_ratio_global", 0.6),
        ("rmse_ratio_tiled", float("nan")),
        ("tiled_rel_err", 0.2),
        ("tiled_variance_excess", 0.01),
        ("svd_warm_rel_err", 0.3),
    ],
)
def test_analysis_check_rejects_corruption(key, value):
    assert verify.check_analysis([{**good_analysis(), key: value}])


def good_serving():
    return {
        "requests": 1000, "ok": 1000, "failed": 0, "attempts": 1000,
        "status": {200: 820, 304: 180}, "wrong_bodies": 0, "unparsable": 0,
        "stale": 0, "backwards": 0, "publishes": 5, "publishes_expected": 5,
        "publish_error": None, "elapsed_s": 0.5,
    }


def test_serving_check_accepts_good_output():
    assert verify.check_serving([good_serving()] * 3) == []


@pytest.mark.parametrize(
    "key, value",
    [
        ("ok", 999),
        ("failed", 1),
        ("wrong_bodies", 1),
        ("unparsable", 2),
        ("stale", 1),
        ("backwards", 1),
        ("publishes", 4),
        ("publish_error", "OSError: disk full"),
        ("status", {304: 1000}),
    ],
)
def test_serving_check_rejects_corruption(key, value):
    assert verify.check_serving([{**good_serving(), key: value}])
