"""Every rewritten line id can still fail: a table of mutants.

Each mutant scales one raw body, on one domain or one boundary component,
or one weight row of a sum, by 1 + 1e-6, and names the verify ids it must
fail at the default seed.  The test runs only the checks that own those ids
and asserts that exactly those ids fail.  Internal callers reach a declared
function through its ``__wrapped__`` body, so a mutant replaces the module
attribute by a function that carries its own mutated ``__wrapped__``;
patching the attribute alone would change nothing.
"""

import pytest

from rphardy import kernels, measures, numerics, verify
from rphardy.config import Defaults
from rphardy.domains import HalfPlane, Strip

SCALE = 1.0 + 1e-6


def _scaled_form(raw, picked):
    """``raw`` (a function returning a boundary form), its form scaled by
    SCALE where ``picked(domain, component)`` holds."""
    def mutant(domain, point, component=None):
        form = raw(domain, point, component)
        if not picked(domain, component):
            return form
        return lambda x: form(x) * SCALE
    return mutant


def _patch(monkeypatch, module, name, body):
    """``module.name`` replaced by a call of ``body`` whose ``__wrapped__``
    is ``body`` too, as internal callers read it."""
    def public(*args, **kwargs):
        return body(*args, **kwargs)
    public.__wrapped__ = body
    monkeypatch.setattr(module, name, public)


def _poisson_on(kind):
    def mutate(monkeypatch):
        _patch(monkeypatch, kernels, "poisson_at", _scaled_form(
            kernels.poisson_at.__wrapped__, lambda domain, comp: isinstance(domain, kind)))
    return mutate


def _strip_flip_on_lower(monkeypatch):
    _patch(monkeypatch, kernels, "h_boundary_at", _scaled_form(
        kernels.h_boundary_at.__wrapped__,
        lambda domain, comp: isinstance(domain, Strip) and comp == "lower"))


def _line_rule_step(monkeypatch):
    """The step weight h of the line rule, scaled: its value scales."""
    rule = numerics.trapezoid_line

    def mutant(*args, **kwargs):
        value, err = rule(*args, **kwargs)
        return value * SCALE, err
    _patch(monkeypatch, numerics, "trapezoid_line", mutant)


def _kms_shifted_row(monkeypatch):
    """kms_check's weight row e^{-beta lam} w, the first of each stacked
    part, scaled: nu_hat(i beta + t) scales, nu_hat(t) does not."""
    exp_sum = measures._exp_sum

    def mutant(parts, z):
        return exp_sum([(nodes, weights * [[SCALE], [1.0]] if weights.ndim == 2 else weights,
                         watch) for nodes, weights, watch in parts], z)
    monkeypatch.setattr(measures, "_exp_sum", mutant)


# name -> (mutation, the checks that own its ids, the ids that must fail)
MUTANTS = {
    "strip-poisson": (
        _poisson_on(Strip),
        (verify.check_poisson_mass, verify.check_hua, verify.check_midline),
        {"kernels.poisson-mass.strip", "kernels.hua.strip", "kernels.strip-midline-poisson"}),
    "half-plane-poisson": (
        _poisson_on(HalfPlane),
        (verify.check_poisson_mass, verify.check_hua, verify.check_poisson_ft,
         verify.check_outer),
        {"kernels.poisson-mass.half_plane", "kernels.hua.half_plane",
         "kernels.poisson-ft.half_plane", "kernels.outer-modulus"}),
    "strip-flip-multiplier-lower": (
        _strip_flip_on_lower,
        (verify.check_outer, verify.check_flip_pairing),
        {"kernels.flip-multiplier", "kernels.flip-pairing.strip"}),
    "line-rule-step-weight": (
        _line_rule_step,
        (verify.check_poisson_mass,),
        {"kernels.poisson-mass.half_plane", "kernels.poisson-mass.strip"}),
    "kms-shifted-row": (
        _kms_shifted_row,
        (verify.check_markov_semigroup, verify.check_modular_dynamics),
        {"measures.kms", "modular.coefficient-kms"}),
}


def _failing(checks) -> tuple:
    results = [r for check in checks for r in check(Defaults())]
    return {r.id for r in results}, {r.id for r in results if not r.passed}


@pytest.mark.parametrize("name", MUTANTS)
def test_a_mutant_fails_exactly_the_ids_it_owns(name, monkeypatch):
    mutate, checks, expected = MUTANTS[name]
    ids, failing = _failing(checks)
    assert expected <= ids and not failing
    mutate(monkeypatch)
    assert _failing(checks)[1] == expected
