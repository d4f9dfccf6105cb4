"""Tariff evaluation: the masked fill over all time nodes against a per-row
loop, which prices a conjugate segment by the dense maximum over its types."""
import dataclasses
import warnings

import numpy as np
import pytest

from nltariff.errors import DomainError
from nltariff.solver_const_h import build_tariff_const_h, solve_x0_star
from nltariff.tariff import ConjugateSegment, Tariff, TariffSegment
from tests.test_solver_typed_h import emit_case


def row_price(tariff, i, c):
    """One time node's prices, each segment's formula written out: first
    segment whose range holds c, else the first segment below and the last
    above."""
    def formula(seg, cm):
        if isinstance(seg, ConjugateSegment):
            dense = seg.phi[i] * seg.gx[:, None] * cm[None, :] ** tariff.gamma / tariff.gamma
            return np.max(dense - seg.values[i][:, None], axis=0)
        out = seg.p2[i] * cm + seg.p3[i]
        return out + seg.p1[i] * cm ** tariff.gamma if seg.p1[i] != 0.0 else out

    out = np.full(c.shape, np.nan)
    filled = np.zeros(c.shape, dtype=bool)
    for seg in tariff.segments:
        mask = ~filled & (c >= seg.c_lo[i] - 1e-15) & (c <= seg.c_hi[i])
        out[mask] = formula(seg, c[mask])
        filled |= mask
    below = ~filled & (c < tariff.segments[0].c_lo[i])
    out[below] = formula(tariff.segments[0], c[below])
    above = ~filled & ~below
    out[above] = formula(tariff.segments[-1], c[above])
    return out


def assert_sample_matches_rows(tariff, c):
    rows = [row_price(tariff, i, c) for i in range(tariff.time_grid.size)]
    got = tariff.sample(c)
    assert got.tobytes() == np.vstack(rows).tobytes()
    for i, ref in enumerate(rows):
        assert tariff.price(i, c).tobytes() == ref.tobytes()
        assert tariff.price(i, c.reshape(-1, 1)).tobytes() == ref.tobytes()


def consumption_grid(tariff):
    """Every finite breakpoint of every row, with points just beside it,
    between 1e-6 (or 0) and ten times the top breakpoint."""
    edges = np.concatenate([np.r_[s.c_lo, s.c_hi] for s in tariff.segments])
    edges = edges[np.isfinite(edges) & (edges > 0)]
    top = 10.0 * max(edges.max(initial=1.0), 1.0)
    base = np.geomspace(1e-6, top, 301) if tariff.gamma < 0 else np.linspace(0.0, top, 301)
    near = np.concatenate([edges, edges * (1 - 1e-12), edges * (1 + 1e-12)])
    return np.unique(np.concatenate([base, near]))


def const_h_tariff(config, simplified=True, general=False):
    config = dataclasses.replace(config, simplified_tariff=simplified, force_general_route=general)
    return build_tariff_const_h(config, solve_x0_star(config))[0]


@pytest.mark.parametrize("simplified", [True, False])
@pytest.mark.parametrize("case", ["bench1", "bench2"])
def test_sample_matches_rows_on_closed_form_tariffs(case, simplified, request):
    tariff = const_h_tariff(request.getfixturevalue(f"{case}_config"), simplified)
    assert_sample_matches_rows(tariff, consumption_grid(tariff))


@pytest.mark.parametrize("case", ["typed_a", "typed_b"])
def test_sample_matches_rows_on_typed_tariffs(case, request):
    """typed_a serves the top types only (dead bottom component, b0 = 0),
    typed_b the bottom ones (live bottom component). The band between the
    components is priced by the two planes of its end types."""
    sol, tariff, _ = request.getfixturevalue(f"{case}_solution")
    assert (sol.b0 == 0.0) == (case == "typed_a")
    band = [s for s in tariff.segments if s.label.startswith("bridge")]
    assert len(band) == 2 and all(isinstance(s, TariffSegment) for s in band)
    assert_sample_matches_rows(tariff, consumption_grid(tariff))


@pytest.mark.parametrize("case", ["bench1", "bench2"])
def test_sample_matches_rows_on_the_sampled_general_route_tariff(case, request):
    tariff = const_h_tariff(request.getfixturevalue(f"{case}_config"), general=True)
    assert tariff.meta["route"] == "general"
    assert_sample_matches_rows(tariff, consumption_grid(tariff))


def test_residential_sampled_tariff_is_finite_above_zero_and_refuses_zero(bench2_config):
    """On the residential branch the exact conjugate falls as c -> 0, toward
    -inf unless a sampled type has zero taste, as the utility does: the
    sampled tariffs of the forced general route and of a typed single
    component are finite and nondecreasing from c = 1e-6 up to 1e4, and
    c = 0 is refused before any price is computed."""
    for tariff in (const_h_tariff(bench2_config, general=True), emit_case("residential_sampled")[1]):
        assert tariff.meta["route"] in ("general", "sampled")
        prices = tariff.sample(np.geomspace(1e-6, 1e4, 801))
        assert np.all(np.isfinite(prices)) and np.all(np.diff(prices, axis=1) >= 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="positive"):
                tariff.sample([0.0, 1.0])


def mixed_tariff():
    """Four rows, each with its own breakpoints: a polynomial piece with
    p1 = 0 on rows 0 and 2 only, a conjugate segment of nine types and a top
    polynomial piece; below the first piece and above the last the outer
    pieces extend."""
    nt = 4
    cuts = np.array([[0.5, 2.0, 4.0, 8.0], [0.3, 1.5, 3.5, 6.0], [0.7, 2.5, 4.5, 9.0], [0.4, 2.0, 4.0, 8.0]])
    low = TariffSegment(c_lo=cuts[:, 0], c_hi=cuts[:, 1], p1=np.array([0.0, 0.8, 0.0, -0.3]),
                        p2=np.array([0.4, 0.1, 0.7, 0.2]), p3=np.array([0.1, 0.0, -0.2, 0.3]))
    gx = np.linspace(0.0, 1.0, 9)
    bridge = ConjugateSegment(c_lo=cuts[:, 1], c_hi=cuts[:, 2], phi=np.arange(1.0, nt + 1), gx=gx,
                              values=np.sin(3.0 * gx) + np.arange(nt)[:, None], label="bridge")
    top = TariffSegment(c_lo=cuts[:, 2], c_hi=cuts[:, 3], p1=np.array([1.1, 0.0, 0.0, 0.6]),
                        p2=np.full(nt, 0.05), p3=np.full(nt, 0.2), label="selected")
    return Tariff(gamma=0.5, time_grid=np.linspace(0.0, 1.0, nt), segments=[low, bridge, top])


def test_sample_matches_rows_across_p1_zero_rows_and_outside_every_segment():
    tariff = mixed_tariff()
    c = consumption_grid(tariff)
    assert c.min() < 0.3 and c.max() > 9.0
    assert_sample_matches_rows(tariff, c)


def test_negative_consumption_is_refused_when_gamma_negative(bench2_solution):
    _, tariff, _ = bench2_solution
    c = np.array([0.5, -1.0, 2.0])
    with pytest.raises(DomainError):
        tariff.sample(c)
    with pytest.raises(DomainError):
        tariff.price(0, c)


def test_sample_refuses_an_unordered_grid_and_prices_that_are_not_finite():
    """Both refusals are ``sample``'s own: an overflowed price never reaches
    the tariff writer."""
    tariff = mixed_tariff()
    for c in ([0.5, 2.0, 2.0], [3.0, 1.0]):
        with pytest.raises(DomainError, match="strictly increasing"):
            tariff.sample(c)
    top = dataclasses.replace(tariff.segments[-1], p3=np.array([0.2, np.inf, 0.2, 0.2]))
    tariff = dataclasses.replace(tariff, segments=[*tariff.segments[:-1], top])
    assert np.all(np.isfinite(tariff.sample([0.1, 1.0])))
    with pytest.raises(DomainError, match="finite"):
        tariff.sample([0.1, 1.0, 5.0])
