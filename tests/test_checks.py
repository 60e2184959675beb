import math

import pytest

import sparsetok.autodiff as ad
from sparsetok.checks import (check_catalog, check_gumbel_max_frequencies, check_gumbel_mean,
                              check_multimodal_end_to_end, check_ste_soft_path,
                              check_topk_selection_frequencies, format_sample_report,
                              run_gradcheck, run_sample_check)
from sparsetok.errors import ContractError


def test_gradcheck_all_suites_pass():
    reports, ok = run_gradcheck()
    assert ok
    names = [r.name for r in reports]
    assert names == ["autodiff_catalog", "ste_soft_path", "multimodal_end_to_end"]
    for r in reports:
        assert r.worst <= 1e-4, r.line()


def test_gradcheck_detects_injected_bad_adjoint():
    reports, ok = run_gradcheck(corrupt_op="gelu")
    assert not ok
    failing = [r for r in reports if not r.ok]
    assert failing
    assert any("gelu" in r.detail for r in failing)


def test_corrupted_straight_through_fails_both_ste_suites():
    reports, ok = run_gradcheck(corrupt_op="straight_through")
    assert not ok
    failing = {r.name for r in reports if not r.ok}
    assert {"ste_soft_path", "multimodal_end_to_end"} <= failing


def test_corrupted_attention_fails_catalog_and_multimodal():
    reports, ok = run_gradcheck(corrupt_op="attention")
    assert not ok
    failing = {r.name for r in reports if not r.ok}
    assert {"autodiff_catalog", "multimodal_end_to_end"} <= failing
    assert "attention" in reports[0].detail


def test_corrupted_linear_fails_catalog_and_multimodal():
    reports, ok = run_gradcheck(corrupt_op="linear")
    assert not ok
    failing = {r.name for r in reports if not r.ok}
    # the scorer's two layers are linear too, so the STE suite fails as well
    assert failing == {"autodiff_catalog", "ste_soft_path", "multimodal_end_to_end"}
    assert "linear" in reports[0].detail


def test_corrupted_matmul_still_fails_every_suite():
    """With the biased projections fused into `linear`, matmul remains in the
    catalog, the q | k | v projection and the scorer's keep column."""
    reports, ok = run_gradcheck(corrupt_op="matmul")
    assert not ok
    assert [r.name for r in reports if not r.ok] == [
        "autodiff_catalog", "ste_soft_path", "multimodal_end_to_end"]
    assert "matmul" in reports[0].detail


@pytest.mark.parametrize("suite, op", [
    pytest.param(check_catalog, "exp", id="catalog-exp"),
    pytest.param(check_catalog, "gelu", id="catalog-gelu"),
    pytest.param(check_ste_soft_path, "gelu", id="ste_soft_path-gelu"),
    pytest.param(check_multimodal_end_to_end, "gelu", id="multimodal_end_to_end-gelu"),
])
def test_nan_adjoint_fails_the_suite(suite, op):
    """A NaN gradient must fail, however small the other errors are."""
    with ad.corrupt_adjoint(op, float("nan")):
        report = suite()
    assert math.isnan(report.worst) and not report.ok, report.line()


# ROADMAP item 2: a 1e-5 step rounds to about 1e-4 relative error on a
# coordinate whose gradient is about 1e-7 (1.449e-4 at seed 3, 2.837e-4 at 7)
_ROUNDING_FLOOR = pytest.mark.xfail(strict=True, reason="ROADMAP item 2: central-difference "
                                    "rounding at FD_STEP on a tiny gradient")


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2, pytest.param(3, marks=_ROUNDING_FLOOR), 4, 5,
                                  pytest.param(7, marks=_ROUNDING_FLOOR), 8, 10, 11, 12])
def test_multimodal_end_to_end_over_seeds(seed):
    report = check_multimodal_end_to_end(seed)
    assert report.ok, report.line()


@pytest.mark.slow
@pytest.mark.parametrize("seed", [6, 9])
def test_multimodal_end_to_end_refuses_equal_kept_counts(seed):
    with pytest.raises(ContractError, match="must differ and be non-zero"):
        check_multimodal_end_to_end(seed)


def test_gradcheck_is_deterministic():
    r1, _ = run_gradcheck()
    r2, _ = run_gradcheck()
    assert [r.line() for r in r1] == [r.line() for r in r2]


def test_sample_check_suites_individually():
    assert check_gumbel_mean(200_000).ok
    assert check_gumbel_max_frequencies(30_000).ok
    assert check_topk_selection_frequencies(20_000).ok


def test_sample_check_report_deterministic():
    r1, ok1 = run_sample_check()
    r2, ok2 = run_sample_check()
    assert ok1 and ok2
    assert format_sample_report(r1) == format_sample_report(r2)
