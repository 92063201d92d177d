"""Snapshot of the public repro.api surface.

The facade is the documented entry point; this test pins its names so
an accidental rename or removal fails loudly instead of silently
breaking downstream callers."""

import repro
import repro.api as api
from repro.outcome import Outcome, OutcomeStatus


def _public_methods(cls) -> set:
    return {
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and callable(getattr(cls, name, None))
    }


def test_api_all_snapshot():
    assert api.__all__ == [
        "Cluster", "Session", "Transaction", "Outcome", "OutcomeStatus",
    ]


def test_cluster_surface_snapshot():
    expected = {
        # building
        "add_peer", "host_document", "host_service",
        # access
        "peer", "session",
        # driving
        "run_until", "run_all", "scheduler", "run_topology",
        # canonical deployments
        "atplist", "fig1", "fig2", "from_topology",
    }
    assert _public_methods(api.Cluster) == expected
    for prop in ("metrics", "spans", "clock", "events"):
        assert isinstance(vars(api.Cluster)[prop], property)


def test_session_surface_snapshot():
    methods = _public_methods(api.Session)
    assert {"transaction", "begin"} <= methods
    assert api.Session.begin is api.Session.transaction


def test_transaction_surface_snapshot():
    methods = _public_methods(api.Transaction)
    assert {"submit", "invoke", "commit", "abort"} <= methods
    # Context-manager protocol is part of the contract.
    assert hasattr(api.Transaction, "__enter__")
    assert hasattr(api.Transaction, "__exit__")


def test_unified_outcome_exported():
    assert api.Outcome is Outcome
    assert api.OutcomeStatus is OutcomeStatus


def test_package_exports_facade():
    assert repro.Cluster is api.Cluster
    assert repro.Session is api.Session
    assert repro.Outcome is Outcome
    for name in ("Cluster", "Session", "Outcome", "OutcomeStatus"):
        assert name in repro.__all__
