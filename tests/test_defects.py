"""The named defects of sampled checks and sampled quadrature, each with a
closed-form reference, as strict xfails: the fix that flips one must say
so.  Each region is normal_x on [0, 1] with lower 0, revolved about
x = -1 (``helpers.defect_region``).  A volume is confidently wrong when it
misses its reference by more than max(10 x its estimate, 10 x rel x
|reference|) (``helpers.confidently_wrong``).

The class behind the spike is pinned as counts on the seeded bump corpus
(``helpers.bump_corpus``): a fix lowers them and states the new counts.
"""

import pytest

import revolve as rv
from revolve import methods

from helpers import (DEFECT_AXIS, DIP, OSCILLATION, SPIKE, bump_corpus, bump_volume,
                     confidently_wrong, defect_region, oscillation_volume)


def test_spike_reference():
    assert bump_volume(3.0, 0.50048828125, 0.0002) == pytest.approx(9.434804213855863, rel=1e-15)


def test_oscillation_reference():
    assert oscillation_volume() == pytest.approx(9.89293850836829, rel=1e-15)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="all 15 nodes of the first panel miss the spike, so Gauss and Kronrod "
                          "agree; guarded panel acceptance (ROADMAP item 12)")
def test_spike_volume():
    # Today: 9.42477796076938, estimate 1.05e-13, in 45 evaluations.
    tol = rv.Tolerance()
    r = methods.volume_double_integral(defect_region(SPIKE), DEFECT_AXIS, tol)
    assert not confidently_wrong(r.value, r.error_estimate, bump_volume(3.0, 0.50048828125, 0.0002),
                                 tol.rel)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="narrow peaks fall between the nodes of panels whose Gauss and Kronrod "
                          "sums agree; guarded panel acceptance (ROADMAP item 12)")
@pytest.mark.parametrize("rel", [1e-6, 1e-8])
def test_oscillation_volume(rel):
    # Today: 9.834456570336412 (156 615 evaluations) at rel 1e-6,
    # 9.863697511491655 (255 075 evaluations) at rel 1e-8.
    r = methods.volume_double_integral(defect_region(OSCILLATION), DEFECT_AXIS, rv.Tolerance(rel=rel))
    assert not confidently_wrong(r.value, r.error_estimate, oscillation_volume(), rel)


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="the construction check samples the curves, and the dip below lower "
                          "falls between samples; certified construction check (ROADMAP item 2)")
def test_dip_below_lower_is_refused():
    with pytest.raises(rv.InvalidRegionError):
        defect_region(DIP)


def _misses(seed):
    """The regions of the bump corpus of ``seed`` on which double_integral
    is confidently wrong at the default tolerance."""
    tol = rv.Tolerance()
    misses = []
    for upper, reference in bump_corpus(seed):
        region = defect_region(upper)
        r = methods.volume_double_integral(region, DEFECT_AXIS, tol)
        if confidently_wrong(r.value, r.error_estimate, reference, tol.rel):
            misses.append(region)
    return misses


@pytest.mark.parametrize(("seed", "count"), [(1, 176), (2, 175)])
def test_bump_corpus_misses(seed, count):
    # All 15 nodes of the first panel miss a narrow bump (ROADMAP item 12).
    assert len(_misses(seed)) == count


def test_compare_agrees_on_the_first_misses():
    # Monte Carlo at 2e4 samples is too coarse to tell the miss from the
    # truth, so compare agrees (ROADMAP item 3).  The first 50 misses of
    # seed 1: all 176 take about 1.7 s.
    cfg = methods.McConfig(20000, 1)
    verdicts = [methods.compare_methods(region, DEFECT_AXIS, rv.Tolerance(), cfg).verdict
                for region in _misses(1)[:50]]
    assert verdicts.count("agree") == 50
