"""The named defects of sampled checks and sampled quadrature, each with a
closed-form reference, as strict xfails: the fix that flips one must say
so.  Each region is normal_x on [0, 1] with lower 0, revolved about
x = -1 (``helpers.defect_region``).  A volume is confidently wrong when it
misses its reference by more than max(10 x its estimate, 10 x rel x
|reference|) (``helpers.confidently_wrong``).
"""

import pytest

import revolve as rv
from revolve import methods

from helpers import (DEFECT_AXIS, DIP, OSCILLATION, SPIKE, bump_volume, confidently_wrong,
                     defect_region, oscillation_volume)


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
