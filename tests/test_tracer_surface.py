"""The surface of seaqt that the benchmark's span tracer patches.

``bench/tracing.py`` replaces module attributes by name and wraps
``integrate.integrate`` with a fixed signature; a rename there breaks only
the traced benchmark run.  These tests read the tracer as it is and hold
the library to every name and signature it relies on.
"""

import dataclasses
import importlib.util
import inspect
from pathlib import Path

import pytest

import seaqt
from seaqt import integrate as ig
from seaqt import sea

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("seaqt_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_callable(tracing):
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracing.SPANS + tracing.COUNTS
               if not callable(getattr(getattr(seaqt, mod, None), attr, None))]
    assert missing == []
    assert callable(ig.Trajectory.to_csv)


def test_integrate_takes_the_wrapped_signature():
    inspect.signature(ig.integrate).bind(*range(5))


def test_every_method_has_an_rhs_call_count(tracing):
    assert set(ig.METHODS) <= set(tracing.RHS_CALLS_PER_ATTEMPT)


def test_the_rhs_call_counts_are_the_stage_counts(tracing):
    # an attempt evaluates every stage of its tableau once
    for name, tableau in ig.METHODS.items():
        assert tracing.RHS_CALLS_PER_ATTEMPT[name] == len(tableau.b)


def test_the_fields_the_tracer_reads():
    assert hasattr(ig.IntegratorConfig(), "projection")
    assert dataclasses.replace(ig.Observables(), g_rate=None).g_rate is None
    assert isinstance(inspect.getattr_static(sea.SingleConstituentModel, "dim"), property)
