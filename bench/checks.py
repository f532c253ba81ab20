"""Answer checks.  Each returns None when the answer is right, else a
one-line reason.

Volumes use the README rule: a value agrees with its reference when they
differ by at most 10x the summed error estimates (the reference carries
its round-off allowance).  For Monte Carlo the estimate is one standard
error, so the rule's 4-standard-error floor never binds.
Centroid reports carry no error estimate, so area and centroid are held to
10x the requested quadrature tolerance (the jobs here use the defaults,
rel 1e-10 and abs 1e-12), doubled for the centroid quotient S/A.
"""

from __future__ import annotations

import json
import math

from inputs import FIXTURES, REF_REL_ERR, FixtureRef

DEFAULT_REL, DEFAULT_ABS = 1e-10, 1e-12

# Grid points this close to a fixture's boundary are ties of the closed
# region and are not judged.
_BOUNDARY_BAND = 1e-9

EXPECTED_SAMPLE_HEADER = "x,y,inside,distance"


def volume_error(method: str, value: float, error_estimate: float,
                 ref: float, ref_err: float) -> str | None:
    # The README rule, max(10 * (sum of error estimates), 4 * MC standard
    # error), with the reference as the second value: its 10x term always
    # wins, so a Monte Carlo value is held to 10 standard errors.
    allowed = 10.0 * (error_estimate + ref_err)
    if not abs(value - ref) <= allowed:
        return (f"{method} = {value!r} +- {error_estimate!r}, reference {ref!r}, "
                f"allowed {allowed!r}")
    return None


def centroid_error(area: float, cx: float, cy: float, ref_area: float,
                   ref_centroid: tuple[float, float]) -> str | None:
    size = max(abs(ref_centroid[0]), abs(ref_centroid[1]), math.sqrt(ref_area))
    allowed_area = 10.0 * (DEFAULT_ABS + DEFAULT_REL * ref_area) + REF_REL_ERR * ref_area
    allowed_c = 10.0 * (DEFAULT_ABS + 2.0 * DEFAULT_REL * size) + REF_REL_ERR * size
    if not abs(area - ref_area) <= allowed_area:
        return f"area {area!r}, reference {ref_area!r}"
    if not (abs(cx - ref_centroid[0]) <= allowed_c and abs(cy - ref_centroid[1]) <= allowed_c):
        return f"centroid ({cx!r}, {cy!r}), reference {ref_centroid!r}"
    return None


def _expected_exit(ref: FixtureRef, command: str) -> int:
    # A crossing axis is refused (exit 3) by every command that needs the
    # axis side; centroid ignores the axis and sample does not check it.
    if ref.volume is None and command in ("compare", "volume", "check"):
        return 3
    return 0


def _check_compare(ref: FixtureRef, out: dict) -> str | None:
    if ref.volume is None:
        if out["verdict"] != "no data" or out["reports"]:
            return f"verdict {out['verdict']!r} with {len(out['reports'])} reports on a crossing axis"
        refused = {f["error"] for f in out["failures"]} - {"AxisIntersectsRegion", "UnsupportedMethod"}
        return f"unexpected failures {sorted(refused)}" if refused else None
    if out["verdict"] != "agree":
        return f"verdict {out['verdict']!r}"
    unexpected = [f for f in out["failures"] if f["error"] != "UnsupportedMethod"]
    if unexpected:
        return f"methods failed: {unexpected}"
    ref_err = REF_REL_ERR * ref.volume
    for r in out["reports"]:
        reason = volume_error(r["method"], r["value"], r["error_estimate"], ref.volume, ref_err)
        if reason:
            return reason
    return None


def _check_sample(ref: FixtureRef, stdout: str) -> str | None:
    lines = stdout.splitlines()
    if not lines or lines[0] != EXPECTED_SAMPLE_HEADER:
        return "missing CSV header"
    if len(lines) != 1 + 64 * 64:
        return f"{len(lines) - 1} grid rows, expected {64 * 64}"
    a, b, c = ref.axis
    for line in lines[1:]:
        xs, ys, inside, dist = line.split(",")
        x, y = float(xs), float(ys)
        scale = 1.0 + abs(x) + abs(y)
        if not abs(float(dist) - abs(a * x + b * y + c)) <= 1e-12 * scale:
            return f"distance {dist} at ({xs}, {ys})"
        margin = ref.margin(x, y)
        if abs(margin) > _BOUNDARY_BAND * scale and (inside == "1") != (margin > 0):
            return f"inside={inside} at ({xs}, {ys}), margin {margin!r}"
    return None


def cli_error(fixture: str, command: str, code: int, stdout: str) -> str | None:
    """Check one CLI job's exit code and output against the closed forms."""
    ref = FIXTURES[fixture]
    expected = _expected_exit(ref, command)
    if code != expected:
        return f"exit code {code}, expected {expected}"
    if command == "sample":
        return _check_sample(ref, stdout)
    if code != 0 and command != "compare":
        return None
    out = json.loads(stdout)
    if command == "compare":
        return _check_compare(ref, out)
    if command == "volume":
        return volume_error(out["method"], out["value"], out["error_estimate"],
                            ref.volume, REF_REL_ERR * ref.volume)
    if command == "centroid":
        return centroid_error(out["area"], out["centroid"]["x"], out["centroid"]["y"],
                              ref.area, ref.centroid)
    a, b, c = ref.axis
    side = 1 if a * ref.centroid[0] + b * ref.centroid[1] + c > 0 else -1
    return None if out["side"] == side else f"side {out['side']}, expected {side}"
