import json
import math
import pathlib

import numpy as np
import pytest

import revolve as rv
from revolve.config import load_job, parse_job
from revolve.errors import DomainError, IntegrandError, QuadratureNoConvergence
from revolve import methods, quadrature
from revolve import region as region_module
from revolve.quadrature import (_PANELS, _XGK, PieceIntegrand, _domain_guard, _memo, linear_sections,
                                moment_sections, sum_results)
from revolve.region import pieces

from conftest import FIXTURES
from helpers import (QUADRATURE_ROUTES, cone_triangle, quadrature_pin, quadrature_pin_cases,
                     ref_integrate_1d, ref_linear_form, ref_piece_integrand, sector_polar, straddling_disk_x,
                     straddling_disk_y, torus_normal_x, torus_normal_y)


class TestIntegrate1D:
    def test_monomial(self):
        res = rv.integrate_1d(lambda x: x * x, 0.0, 1.0)
        assert abs(res.value - 1.0 / 3.0) <= 1e-12
        assert res.error_estimate >= 0.0
        assert res.evaluations > 0

    def test_sine(self):
        res = rv.integrate_1d(math.sin, 0.0, math.pi)
        assert abs(res.value - 2.0) <= 1e-12

    def test_shell_middle_term_against_antiderivative(self):
        # Antiderivative of 2*pi*x*(x + sqrt(1-x^2)) is
        # 2*pi*(x^3 - (1-x^2)^(3/2))/3; evaluate it independently.
        def antiderivative(x):
            return 2.0 * math.pi * (x**3 - (1.0 - x * x) ** 1.5) / 3.0

        lo, hi = 0.5, math.sqrt(2.0) / 2.0
        expected = antiderivative(hi) - antiderivative(lo)
        res = rv.integrate_1d(
            lambda x: 2.0 * math.pi * x * (x + math.sqrt(1.0 - x * x)), lo, hi
        )
        assert abs(res.value - expected) <= 1e-9

    def test_endpoint_derivative_singularity(self):
        # sqrt has unbounded derivative at 0; adaptivity digs in.
        res = rv.integrate_1d(lambda x: math.sqrt(x), 0.0, 1.0)
        assert abs(res.value - 2.0 / 3.0) <= 1e-10

    def test_improper_log(self):
        # log(0) is a DomainError but the open rule never samples 0.
        res = rv.integrate_1d(math.log, 0.0, 1.0)
        assert abs(res.value - (-1.0)) <= 1e-8

    def test_interior_failure_is_integrand_error(self):
        with pytest.raises(IntegrandError):
            rv.integrate_1d(lambda x: math.sqrt(1.0 - x), 0.0, 1.5)

    def test_no_convergence(self):
        with pytest.raises(QuadratureNoConvergence):
            rv.integrate_1d(
                lambda x: math.sin(50.0 * x),
                0.0,
                10.0,
                rv.Tolerance(rel=1e-14, abs=1e-15, max_depth=3),
            )

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            rv.integrate_1d(lambda x: x, 1.0, 1.0)
        with pytest.raises(ValueError):
            rv.integrate_1d(lambda x: x, 0.0, math.inf)

    def test_nodes_stay_inside_a_span_beyond_float_range(self):
        # b - a overflows: the nodes come from the halved ends.
        seen = []

        def f(x):
            seen.append(x)
            return 1e-300

        res = rv.integrate_1d(f, -1e308, 1e308)
        assert all(-1e308 < x < 1e308 for x in seen)
        assert res.value == pytest.approx(2e8, rel=1e-12)

    def test_panels_split_inside_a_span_beyond_float_range(self):
        # a + b overflows: the panels are bisected at the halved ends' sum.
        k = 1e-307
        res = rv.integrate_1d(lambda x: math.sin(k * x), 1e308, 1.7e308)
        assert res.evaluations > 15
        assert res.value == pytest.approx((math.cos(10.0) - math.cos(17.0)) / k, rel=1e-9)

    @pytest.mark.parametrize("f", [lambda x: 1.0, lambda x: (1.0, x)], ids=["scalar", "vector"])
    def test_integral_beyond_float_range_is_refused(self, f):
        with pytest.raises(QuadratureNoConvergence, match=r"over \[-1e\+308, 1e\+308\] is not finite"):
            rv.integrate_1d(f, -1e308, 1e308)

    @pytest.mark.parametrize("f", [lambda x: 1e308, lambda x: (1.0, 1e308)], ids=["scalar", "vector"])
    def test_non_finite_running_total_is_refused_at_once(self, f):
        # Finite values whose first panel's sums overflow: the error estimate
        # is NaN, which no bisection brings below the tolerance.
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        with pytest.raises(QuadratureNoConvergence, match=r"over \[0.0, 10.0\] is not finite"):
            rv.integrate_1d(counted, 0.0, 10.0)
        assert len(calls) == 15

    def test_centroid_with_non_finite_moments_is_refused_at_once(self):
        # Sx overflows: refused from the first panel, not after bisecting to
        # the subdivision cap.
        region = rv.NormalX(1.5e308, 1.6e308, rv.curve("0", "x"), rv.curve("1", "x"))
        with pytest.raises(QuadratureNoConvergence, match=r"is not finite$"):
            rv.centroid(region)

    def test_deterministic(self):
        runs = {
            repr(rv.integrate_1d(lambda x: math.exp(-x * x), -2.0, 3.0).value)
            for _ in range(3)
        }
        assert len(runs) == 1

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            rv.Tolerance(rel=0.0)
        for bad in ({"rel": -1.0}, {"abs": 0.0}, {"rel": math.nan}):
            with pytest.raises(ValueError, match="^tolerances must be positive$"):
                rv.Tolerance(**bad)
        for bad in ({"rel": math.inf}, {"abs": math.inf}):
            with pytest.raises(ValueError, match="^tolerances must be finite$"):
                rv.Tolerance(**bad)
        with pytest.raises(ValueError):
            rv.Tolerance(max_depth=0)
        tight = rv.Tolerance().tightened()
        assert tight.rel == pytest.approx(1e-11)
        assert tight.abs == pytest.approx(1e-13)


class TestVectorIntegrand:
    def test_components_match_scalar_passes(self):
        res = rv.integrate_1d(lambda x: (1.0, x, math.exp(x)), 0.0, 2.0)
        assert isinstance(res.value, tuple) and len(res.value) == 3
        assert isinstance(res.error_estimate, tuple) and len(res.error_estimate) == 3
        expected = (2.0, 2.0, math.exp(2.0) - 1.0)
        for got, want, err in zip(res.value, expected, res.error_estimate):
            assert abs(got - want) <= max(10.0 * err, 1e-12)

    def test_one_heap_one_count(self):
        # All components are sampled at the same nodes and counted once;
        # the constant component adds no panels to the sqrt one's.
        vec = rv.integrate_1d(lambda x: (1.0, math.sqrt(x)), 0.0, 1.0)
        alone = rv.integrate_1d(lambda x: math.sqrt(x), 0.0, 1.0)
        assert vec.evaluations == alone.evaluations
        assert abs(vec.value[1] - 2.0 / 3.0) <= 1e-10

    def test_cancelling_component_is_held_to_its_absolute_mass(self):
        # The second component integrates to 0 against a mass of 2e6;
        # holding it to abs=1e-12 would never converge.
        res = rv.integrate_1d(
            lambda x: (1.0, 1e6 * x * math.sqrt(1.0 - x * x)), -1.0, 1.0,
            rv.Tolerance(max_depth=30),
        )
        assert abs(res.value[1]) <= 1e-10 * 2e6 / 3.0 * 10.0
        assert res.error_estimate[1] <= 1e-10 * 2e6 / 3.0 * 1.01

    def test_endpoint_failure_in_one_component_is_nudged(self):
        res = rv.integrate_1d(lambda x: (1.0, math.log(x)), 0.0, 1.0)
        assert abs(res.value[0] - 1.0) <= 1e-12
        assert abs(res.value[1] + 1.0) <= 1e-8

    def test_interior_failure_in_one_component_raises(self):
        with pytest.raises(IntegrandError):
            rv.integrate_1d(lambda x: (1.0, math.sqrt(1.0 - x)), 0.0, 1.5)

    def test_deterministic(self):
        runs = {
            repr(rv.integrate_1d(lambda x: (math.exp(-x * x), x), -2.0, 3.0))
            for _ in range(3)
        }
        assert len(runs) == 1


class TestRefusals:
    """The adaptive loops' two refusals, scalar and vector: the subdivision
    cap (lowered here) and the depth limit."""

    @pytest.mark.parametrize("f, shown", [
        (lambda x: math.sin(50.0 * x), r"[0-9.e+-]+"),
        (lambda x: (1.0, math.sin(50.0 * x)), r"\([0-9.e+-]+, [0-9.e+-]+\)"),
    ], ids=["scalar", "vector"])
    def test_subdivision_cap(self, monkeypatch, f, shown):
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 3)
        with pytest.raises(QuadratureNoConvergence, match=f"^exceeded 3 subdivisions with error {shown}$"):
            rv.integrate_1d(f, 0.0, 10.0, rv.Tolerance(rel=1e-14, abs=1e-15))

    def test_vector_depth_limit(self):
        tol = rv.Tolerance(rel=1e-14, abs=1e-15, max_depth=3)
        with pytest.raises(QuadratureNoConvergence,
                           match=r"^error estimate \(.*\) above tolerance \(.*\) after depth 3 near \["):
            rv.integrate_1d(lambda x: (1.0, math.sin(50.0 * x)), 0.0, 10.0, tol)


class TestMomentSections:
    @pytest.mark.parametrize("region", [
        rv.NormalX(0.5, 2.0, rv.curve("x^2-1", "x"), rv.curve("3+sin(x)", "x")),
        rv.NormalY(-1.0, 1.0, rv.curve("y^3", "y"), rv.curve("2+y/3", "y")),
        rv.PolarSector(0.2, 2.5, rv.curve("0.5+theta/10", "theta"),
                       rv.curve("2+cos(theta)/2", "theta")),
        rv.Polygon((rv.Point(0, 0), rv.Point(2, 0), rv.Point(2, 1),
                    rv.Point(1, 1), rv.Point(1, 2), rv.Point(0, 2))),
    ], ids=["normal_x", "normal_y", "polar", "polygon"])
    def test_sections_integrate_to_iterated_moments(self, region):
        # The closed-form inner integrals against the iterated 2D route.
        pieces = moment_sections(region)
        moments = sum_results([rv.integrate_1d(sec, u0, u1) for u0, u1, sec in pieces])
        for k, f in enumerate((lambda p: 1.0, lambda p: p.x, lambda p: p.y)):
            ref = rv.integrate_region(region, f)
            slack = 10.0 * (ref.error_estimate + moments.error_estimate[k])
            assert abs(moments.value[k] - ref.value) <= max(slack, 1e-12)

    def test_degenerate_section_is_zero(self):
        flat = rv.NormalX(0.0, 1.0, rv.curve("x", "x"), rv.curve("x", "x"))
        [(u0, u1, section)] = moment_sections(flat)
        assert section(0.5) == (0.0, 0.0, 0.0)

    def test_union_flattens_parts(self):
        left = rv.NormalX(0.0, 1.0, rv.curve("0", "x"), rv.curve("1", "x"))
        ell = rv.Polygon((rv.Point(2, 0), rv.Point(4, 0), rv.Point(4, 1),
                          rv.Point(3, 1), rv.Point(3, 2), rv.Point(2, 2)))
        pieces = moment_sections(rv.UnionRegion((left, ell)))
        assert [(u0, u1) for u0, u1, _ in pieces] == [(0.0, 1.0), (2.0, 3.0), (3.0, 4.0)]


class TestDomainGuard:
    def test_nudges_at_endpoints(self):
        counter = [0]

        def f(x):
            if x <= 0.0 or x >= 1.0:
                raise rv.DomainError("edge")
            return 2.0

        guard = _domain_guard(f, 0.0, 1.0, counter)
        assert guard(0.0) == 2.0
        assert guard(1.0) == 2.0
        assert counter[0] == 4  # each endpoint call retried once

    def test_interior_failure_raises(self):
        guard = _domain_guard(lambda x: math.sqrt(-1.0), 0.0, 1.0, [0])
        with pytest.raises(IntegrandError):
            guard(0.5)

    def test_nudge_stays_inside_a_span_beyond_float_range(self):
        seen = []

        def f(x):
            seen.append(x)
            if x == -1e308:
                raise rv.DomainError("edge")
            return 2.0

        guard = _domain_guard(f, -1e308, 1e308, [0])
        assert guard(-1e308) == 2.0
        assert seen[0] == -1e308 < seen[1] < -0.99e308

    def test_nan_treated_as_failure(self):
        guard = _domain_guard(lambda x: math.nan, 0.0, 1.0, [0])
        with pytest.raises(IntegrandError):
            guard(0.5)


def _panel_nodes(a, b):
    """The 15 Kronrod nodes of the panel [a, b], in the order they are
    evaluated: the centre, then each symmetric pair."""
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    nodes = [center]
    for x in _XGK:
        nodes += [center - half * x, center + half * x]
    return nodes


def _failing_at(f, points, how):
    """``f``, but raising DomainError (how="raise") or returning NaN at
    exactly these points."""
    points = set(points)

    def g(x):
        if x in points:
            if how == "raise":
                raise DomainError("fails here")
            return math.nan
        return f(x)

    return g


def _outcome(integrate, f, lo, hi, tol=None):
    try:
        res = integrate(f, lo, hi, tol)
    except IntegrandError as exc:
        return str(exc)
    return repr(res.value), repr(res.error_estimate), res.evaluations


_TIGHT = rv.Tolerance(rel=1e-13, abs=1e-15)


class TestOnePassMatchesPerNodeGuard:
    """integrate_1d evaluates a panel's nodes in one pass and guards them
    only from the first failure on; the reference guards every node
    (helpers.ref_integrate_1d).  Values, error estimates, evaluation counts
    and the first IntegrandError message agree."""

    def check(self, f, lo=0.0, hi=1.0, tol=None):
        got = _outcome(rv.integrate_1d, f, lo, hi, tol)
        assert got == _outcome(ref_integrate_1d, f, lo, hi, tol)
        return got

    def test_endpoint_nudges_of_log(self):
        # Nodes below 5e-13 raise; each is retried 1e-12 further in.
        _, _, evaluations = self.check(lambda x: math.log(x - 5e-13), tol=_TIGHT)
        assert evaluations % 15 != 0

    @pytest.mark.parametrize("how", ["raise", "nan"])
    def test_endpoint_nudge_of_sqrt(self, how):
        # The panel [0, 2^-23] has its first pair's low node within 1e-9 of 0.
        node = _panel_nodes(0.0, 2.0**-23)[1]
        assert node <= 1e-9
        _, _, evaluations = self.check(_failing_at(math.sqrt, [node], how), tol=_TIGHT)
        assert evaluations % 15 == 1

    @pytest.mark.parametrize("how", ["raise", "nan"])
    def test_nudged_node_then_interior_failure_in_one_panel(self, how):
        nodes = _panel_nodes(0.0, 2.0**-23)
        near_edge, interior = nodes[1], nodes[3]
        assert near_edge <= 1e-9 < interior
        message = self.check(_failing_at(math.log, [near_edge, interior], how))
        assert message == f"integrand undefined at {interior!r} inside [0.0, 1.0]"

    def test_raise_and_nan_in_one_panel(self):
        nodes = _panel_nodes(0.0, 2.0**-23)
        f = _failing_at(_failing_at(math.log, [nodes[1]], "raise"), [nodes[3]], "nan")
        assert isinstance(self.check(f), str)
        g = _failing_at(_failing_at(math.log, [nodes[3]], "raise"), [nodes[1]], "nan")
        assert self.check(g) == f"integrand undefined at {nodes[3]!r} inside [0.0, 1.0]"

    def test_non_finite_from_the_integrands_own_arithmetic(self):
        message = self.check(lambda x: 1e308 * (2.0 + x))
        assert message == "integrand undefined at 0.5 inside [0.0, 1.0]"

    def test_vector_with_one_non_finite_component(self):
        def f(x):
            return (x, math.log(x) if x > 5e-13 else math.inf)

        _, _, evaluations = self.check(f, tol=_TIGHT)
        assert evaluations % 15 != 0
        message = self.check(lambda x: (1.0, math.nan if x == 0.5 else x))
        assert message == "integrand undefined at 0.5 inside [0.0, 1.0]"

    @pytest.mark.parametrize("f", [lambda x: 3, lambda x: int(4 * x), lambda x: (1, int(4 * x))],
                             ids=["constant", "steps", "vector"])
    def test_integrand_returning_ints(self, f):
        self.check(f)

    @pytest.mark.parametrize("f,lo,hi", [
        (math.sin, 0.0, math.pi), (lambda x: math.exp(-x * x), -2.0, 3.0),
        (math.sqrt, 0.0, 1.0), (lambda x: (1.0, x, math.exp(x)), 0.0, 2.0),
        (lambda x: (1.0, 1e6 * x * math.sqrt(1.0 - x * x)), -1.0, 1.0),
    ], ids=["sin", "gauss", "sqrt", "vector", "cancelling"])
    def test_smooth_integrands(self, f, lo, hi):
        self.check(f, lo, hi)

    def test_no_convergence_message(self):
        tol = rv.Tolerance(rel=1e-14, abs=1e-15, max_depth=3)
        messages = []
        for integrate in (rv.integrate_1d, ref_integrate_1d):
            with pytest.raises(QuadratureNoConvergence) as err:
                integrate(lambda x: math.sin(50.0 * x), 0.0, 10.0, tol)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


class TestPanelMemoMatchesPerNodeGuard:
    """A piece's integrand reads the sections of a panel seen before from
    the memo of the piece's map and curves (``PieceIntegrand``).  On a fresh
    memo and on the memo that pass left, values, error estimates,
    evaluation counts and the first IntegrandError message are those of
    the per-node guarded reference, which evaluates the section or the
    per-map distance form afresh (``helpers.ref_piece_integrand``)."""

    @staticmethod
    def outcomes(piece, coefficients, tol=None):
        """The panel path's outcome on a fresh memo, then on the memo it
        left, and the reference's."""
        f = PieceIntegrand(piece, coefficients)
        return ([_outcome(rv.integrate_1d, f, piece.u0, piece.u1, tol) for _ in range(2)],
                _outcome(ref_integrate_1d, ref_piece_integrand(piece, coefficients),
                         piece.u0, piece.u1, tol))

    def test_sqrt_disk_endpoint_nudge(self):
        # The sqrt arcs of the disk crowd panels at x = -1; the panel
        # [-1, -1 + 2^-22] has its first pair's low node within 1e-9 * 2 of
        # the end, where the lower arc is made to fail once.
        [(u0, u1, form)] = linear_sections(straddling_disk_x(), 2.0 * math.pi, 1.0, 0.0, 2.0)
        node = _panel_nodes(-1.0, -1.0 + 2.0**-22)[1]
        assert node - u0 <= 1e-9 * (u1 - u0)
        piece = pieces(straddling_disk_x())[0]
        piece = piece._replace(near=_failing_at(piece.near, [node], "raise"))
        (first, again), ref = self.outcomes(piece, form.coefficients, _TIGHT)
        assert first == again == ref
        assert first[2] % 15 == 1  # one nudged retry
        # A fresh memo, as near is a new function; all but the nudged panel kept.
        assert len(_memo(piece.map, piece.near, piece.far)) == (first[2] - 1) // 15 - 1

    def test_interior_failure_is_never_kept(self):
        # The upper curve is undefined at one node of the panel [0.5, 1],
        # a node no construction probe meets.
        node = _panel_nodes(0.5, 1.0)[3]
        leaf = rv.NormalX(0.0, 1.0, rv.curve("0", "x"),
                          rv.curve(f"2+sin(20*x)+0*log(abs(x-{node!r}))", "x"))
        piece = pieces(leaf)[0]
        _memo.cache_clear()
        (first, again), ref = self.outcomes(piece, None)
        assert first == again == ref == f"integrand undefined at {node!r} inside [0.0, 1.0]"
        panels = _memo(piece.map, piece.near, piece.far)
        assert (0.0, 1.0) in panels and (0.5, 1.0) not in panels

    def test_messages_word_the_callers_bounds(self):
        # Equal leaves share one memo, as their curves are the same
        # evaluators, yet 0.0 and -0.0 read apart in a message.
        node = _panel_nodes(0.5, 1.0)[3]
        upper = rv.curve(f"2+sin(20*x)+0*log(abs(x-{node!r}))", "x")
        _memo.cache_clear()
        for lo in (0.0, -0.0, 0.0, -0.0):
            [(u0, u1, section)] = moment_sections(rv.NormalX(lo, 1.0, rv.curve("0", "x"), upper))
            assert (_outcome(rv.integrate_1d, section, u0, u1)
                    == f"integrand undefined at {node!r} inside [{lo!r}, 1.0]")

    @pytest.mark.parametrize("build", [straddling_disk_x, straddling_disk_y, sector_polar],
                             ids=["identity", "swap", "polar"])
    def test_kept_panel_whose_linear_form_is_not_finite(self, build):
        # The moments pass fills the memo; a distance form whose scale
        # overflows in the middle of the region then reads its first panel,
        # which goes to the guard with the kept sections' non-finite form.
        [piece] = pieces(build())
        _memo.cache_clear()
        rv.integrate_1d(PieceIntegrand(piece), piece.u0, piece.u1, _TIGHT)
        assert (piece.u0, piece.u1) in _memo(piece.map, piece.near, piece.far)
        (first, again), ref = self.outcomes(piece, (1e308, 1.0, 1.0, 4.0), _TIGHT)
        assert first == again == ref
        assert first.startswith("integrand undefined at ")

    def test_readme_oscillation_stops_at_the_cap(self):
        leaf = rv.NormalX(0.0, 1.0, rv.curve("0", "x"),
                          rv.curve("1 + 0.5*sin(1537*pi*x)^64", "x"))
        [(_, _, form)] = linear_sections(leaf, 2.0 * math.pi, 1.0, 0.0, 1.0)
        piece = pieces(leaf)[0]
        _memo.cache_clear()
        (first, again), ref = self.outcomes(piece, form.coefficients, rv.Tolerance(rel=1e-8))
        assert first == again == ref
        assert first[2] == 255075
        assert len(_memo(piece.map, piece.near, piece.far)) == _PANELS


class TestKeptSectionsAreNotRecomputed:
    """After a distance pass, the moments pass and a distance pass about a
    second exterior axis compute a section only at the nodes of panels
    not yet kept; every other panel is read from the memo.  Their
    evaluation counts are those of a cold memo."""

    @pytest.mark.parametrize("leaf,first_axis,second_axis", [
        (torus_normal_x(), (1.0, 0.0, 0.0), (0.0, 1.0, 2.0)),  # x = 0, y = -2
        (torus_normal_y(), (1.0, 0.0, -4.0), (0.0, 1.0, 1.5)),  # x = 4, y = -1.5
        (rv.PolarSector(-math.pi / 3, math.pi / 4, rv.curve("0", "theta"),
                        rv.curve("2+sin(5*theta)", "theta")),
         (1.0, 0.0, 4.0), (0.0, 1.0, 4.0)),  # x = -4, y = -4
    ], ids=["identity", "swap", "polar"])
    def test_section_calls_are_fifteen_per_new_panel(self, monkeypatch, leaf, first_axis,
                                                     second_axis):
        [piece] = pieces(leaf)
        section = quadrature._SECTIONS[piece.map]
        calls = [0]

        def spy(u, lo, hi):
            calls[0] += 1
            return section(u, lo, hi)

        monkeypatch.setitem(quadrature._SECTIONS, piece.map, spy)
        later = [moment_sections(leaf)[0], linear_sections(leaf, 2.0 * math.pi, *second_axis)[0]]
        cold = []
        for u0, u1, f in later:
            f.panels.clear()
            cold.append(rv.integrate_1d(f, u0, u1).evaluations)
        f.panels.clear()
        [(u0, u1, f)] = linear_sections(leaf, 2.0 * math.pi, *first_axis)
        rv.integrate_1d(f, u0, u1)
        for (u0, u1, f), evaluations in zip(later, cold):
            kept, calls[0] = len(f.panels), 0
            assert rv.integrate_1d(f, u0, u1).evaluations == evaluations
            assert len(f.panels) < _PANELS
            assert calls[0] == 15 * (len(f.panels) - kept)
            assert calls[0] < evaluations  # a kept panel was read


_SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, -1e-310,
             2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308, 1.0, -1.0, 0.5)


def _draw(rng):
    """A float: a special value (a third of draws), or a random sign times
    a magnitude uniform in [0, 10) or log-uniform over the whole range."""
    pick = rng.random()
    if pick < 1 / 3:
        return rng.choice(_SPECIALS)
    magnitude = rng.uniform(0.0, 10.0) if pick < 2 / 3 else 10.0 ** rng.uniform(-323.0, 308.0)
    return math.copysign(magnitude, rng.random() - 0.5)


def _same(x, y) -> bool:
    """x and y are the same float: NaN matches NaN, and the sign of a zero
    is compared."""
    if x is None or y is None:
        return x is y
    if type(x) is tuple:
        return len(x) == len(y) and all(map(_same, x, y))
    return (x != x and y != y) or (x == y and math.copysign(1.0, x) == math.copysign(1.0, y))


def _reference_values(g, nodes, lows, highs) -> list:
    """g at each node, up to the first that raised, which is None."""
    values = []
    for node, lo, hi in zip(nodes, lows, highs):
        try:
            values.append(g(node, lo, hi))
        except ValueError:
            values.append(None)
            break
    return values


class TestLinearFormOfKeptSections:
    """A distance pass's value at a node is scale * (a*Sx + b*Sy + c*A) of
    the node's moment section, fresh or kept, and equals the per-map form
    it replaced (``helpers.ref_linear_form``) bit for bit, on 100 005
    seeded draws of (scale, a, b, c, u, near, far) per map.  Every float is
    drawn among ±0, ±inf, NaN, subnormals and 1e308 as well as ordinary
    values, so that half the sections are empty (near >= far) and many
    forms overflow."""

    PANELS = 6667  # of 15 nodes: 100 005 draws

    @pytest.mark.parametrize("cmap", [region_module.IDENTITY, region_module.SWAP,
                                      region_module.POLAR])
    def test_bit_for_bit_on_seeded_draws(self, monkeypatch, cmap):
        import random

        rng = random.Random(20261019)
        drawn = {}
        piece = region_module.Piece(0.0, 1.0, lambda u: next(drawn["near"]),
                                    lambda u: next(drawn["far"]), cmap)
        # A panel's nodes are the drawn ones, whatever its centre and half-width.
        monkeypatch.setattr(quadrature, "_nodes", lambda center, half: drawn["nodes"])
        section = quadrature._SECTIONS[cmap]
        empty = 0
        for k in range(self.PANELS):
            coefficients = tuple(_draw(rng) for _ in range(4))
            nodes, lows, highs = ([_draw(rng) for _ in range(15)] for _ in range(3))
            form = PieceIntegrand(piece, coefficients)
            form.panels.clear()
            drawn.update(nodes=nodes, near=iter(lows), far=iter(highs))
            first = form.sample(0.5, 0.5, k, k + 1)
            ref = _reference_values(ref_linear_form(cmap, *coefficients), nodes, lows, highs)
            assert all(map(_same, first, ref)) and len(first) == len(ref), (k, first, ref)
            if ref[-1] is not None:  # kept: read again without drawing a bound
                kept = form.sample(0.5, 0.5, k, k + 1)
                assert all(map(_same, kept, ref)) and len(kept) == 15, (k, kept, ref)
                sections = PieceIntegrand(piece).sample(0.5, 0.5, k, k + 1)
                assert all(map(_same, sections, map(section, nodes, lows, highs)))
            for node, lo, hi, value in zip(nodes, lows, highs, ref):
                drawn.update(near=iter((lo,)), far=iter((hi,)))
                if value is None:
                    with pytest.raises(ValueError):
                        form(node)
                else:
                    assert _same(form(node), value), (k, node, lo, hi)
            empty += sum(not hi > lo for lo, hi in zip(lows, highs))
        assert empty > self.PANELS * 15 // 2


class TestIntegrateRegion:
    def test_unit_square_area(self):
        square = rv.NormalX(0.0, 1.0, rv.curve("0", "x"), rv.curve("1", "x"))
        res = rv.integrate_region(square, lambda p: 1.0)
        assert abs(res.value - 1.0) <= 1e-12

    def test_triangle_polygon_area(self):
        res = rv.integrate_region(cone_triangle(), lambda p: 1.0)
        assert abs(res.value - 0.5) <= 1e-12

    def test_sector_first_moment(self):
        # 2*pi * int rho^2 * int cos(theta): the sector's revolved volume.
        expected = math.pi * (math.sqrt(2) + math.sqrt(3)) / 3
        res = rv.integrate_region(sector_polar(), lambda p: 2.0 * math.pi * p.x)
        assert abs(res.value - expected) <= 1e-9

    def test_fubini_orders_agree(self):
        sq_x = rv.NormalX(0.0, 1.0, rv.curve("0", "x"), rv.curve("1", "x"))
        sq_y = rv.NormalY(0.0, 1.0, rv.curve("0", "y"), rv.curve("1", "y"))
        tri_x = rv.NormalX(0.0, 1.0, rv.curve("0", "x"), rv.curve("1-x", "x"))
        tri_y = rv.NormalY(0.0, 1.0, rv.curve("0", "y"), rv.curve("1-y", "y"))

        def f(p):
            return math.exp(p.x) * math.sin(p.y + 1.0)

        for first, second in [(sq_x, sq_y), (tri_x, tri_y)]:
            r1 = rv.integrate_region(first, f)
            r2 = rv.integrate_region(second, f)
            assert abs(r1.value - r2.value) <= max(
                1e-12, r1.error_estimate + r2.error_estimate
            )

    def test_linearity(self):
        rng = np.random.default_rng(23)
        region = rv.NormalX(0.0, 2.0, rv.curve("0", "x"), rv.curve("1+x/2", "x"))

        def f(p):
            return math.sin(p.x) * p.y

        def g(p):
            return math.cos(p.y) + p.x * p.x

        for _ in range(5):
            alpha, beta = rng.uniform(-2, 2, size=2)
            combined = rv.integrate_region(
                region, lambda p: alpha * f(p) + beta * g(p)
            )
            rf = rv.integrate_region(region, f)
            rg = rv.integrate_region(region, g)
            expected = alpha * rf.value + beta * rg.value
            slack = 2.0 * (
                combined.error_estimate
                + abs(alpha) * rf.error_estimate
                + abs(beta) * rg.error_estimate
            )
            assert abs(combined.value - expected) <= max(slack, 1e-12)

    def test_polar_jacobian_full_disk(self):
        disk = rv.PolarSector(0.0, 2.0 * math.pi - 1e-12,
                              rv.curve("0", "theta"), rv.curve("1", "theta"))
        res = rv.integrate_region(disk, lambda p: 1.0)
        assert abs(res.value - math.pi) <= 1e-9

    def test_degenerate_region_integrates_to_zero(self):
        flat = rv.NormalX(0.0, 1.0, rv.curve("x", "x"), rv.curve("x", "x"))
        res = rv.integrate_region(flat, lambda p: 5.0)
        assert abs(res.value) <= 1e-12

    def test_union_adds(self):
        left = rv.NormalX(0.0, 1.0, rv.curve("0", "x"), rv.curve("1", "x"))
        right = rv.NormalX(2.0, 3.0, rv.curve("0", "x"), rv.curve("2", "x"))
        union = rv.UnionRegion((left, right))
        res = rv.integrate_region(union, lambda p: 1.0)
        assert abs(res.value - 3.0) <= 1e-12

    def test_concave_polygon_slabs(self):
        ell = rv.Polygon((rv.Point(0, 0), rv.Point(2, 0), rv.Point(2, 1),
                          rv.Point(1, 1), rv.Point(1, 2), rv.Point(0, 2)))
        assert len(pieces(ell)) == 2  # one trapezoid per vertical slab
        res = rv.integrate_region(ell, lambda p: 1.0)
        assert abs(res.value - 3.0) <= 1e-12


_QUAD_PINS = json.loads((pathlib.Path(__file__).parent / "quadrature_pins.json").read_text())
_PIN_CASES = quadrature_pin_cases()


class TestQuadraturePins:
    """Every quadrature route's value, error estimate and evaluations, and
    the centroid with its moment pass, pinned bit for bit as the per-node
    guarded Gauss-Kronrod rule gave them (``helpers.quadrature_pin``): the
    12 fixtures, and a seeded corpus of all five variants about vertical,
    horizontal and oblique exterior axes."""

    @pytest.mark.parametrize("name", sorted(_QUAD_PINS["fixtures"]))
    def test_fixture(self, name):
        assert quadrature_pin(load_job(FIXTURES / name)) == _QUAD_PINS["fixtures"][name]

    def test_corpus_is_the_pinned_one(self):
        assert [case_id for case_id, _ in _PIN_CASES] == list(_QUAD_PINS["corpus"])

    @pytest.mark.parametrize("case_id,doc", _PIN_CASES, ids=[c for c, _ in _PIN_CASES])
    def test_corpus(self, case_id, doc):
        assert quadrature_pin(parse_job(doc)) == _QUAD_PINS["corpus"][case_id]


_PIN_JOBS = ([("fixtures", name) for name in sorted(_QUAD_PINS["fixtures"])]
             + [("corpus", case_id) for case_id, _ in _PIN_CASES])


class TestPinsOrderAndCacheFree:
    """The routes run in reverse order give the pins too, with every cache
    that routes share cleared first (the polygon slabs, the panel memos,
    the moments, the distance pass and the side check), and again warm: no result
    depends on which route ran first or on what is cached."""

    @pytest.mark.parametrize("section,job_id", _PIN_JOBS, ids=[j for _, j in _PIN_JOBS])
    def test_routes_reversed_cold_then_warm(self, section, job_id):
        def job():
            if section == "fixtures":
                return load_job(FIXTURES / job_id)
            return parse_job(dict(_PIN_CASES)[job_id])

        routes = QUADRATURE_ROUTES[::-1]
        region_module._polygon_pieces.cache_clear()
        _memo.cache_clear()
        methods._region_moments.cache_clear()
        methods._distance_pass.cache_clear()
        rv.axis_side_check.cache_clear()
        cold = quadrature_pin(job(), routes)
        warm = quadrature_pin(job(), routes)
        assert cold == warm == _QUAD_PINS[section][job_id]
