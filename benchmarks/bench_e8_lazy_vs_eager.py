"""E8 — §3.1: lazy vs eager query evaluation.

Sweeps the embedded-call density of a 40-item catalogue and evaluates a
query that needs only the call-backed ``stock`` field of *one* item
class.  Lazy evaluation materializes only the calls the query requires;
eager materializes everything.

Shape being checked: lazy's materialized-call count tracks the query's
actual needs (≤ eager, with the gap widening as density grows), and the
compensation workload (change records to undo on abort) shrinks
proportionally — the reason lazy is "the preferred mode".
"""

import pytest

from repro.axml.materialize import MaterializationEngine
from repro.outcome import Outcome
from repro.query.parser import parse_select
from repro.sim.harness import ExperimentTable, ratio
from repro.sim.rng import SeededRng
from repro.sim.workload import generate_catalogue

from _util import publish

ITEMS = 40


def _resolver(call, params):
    return Outcome(["<stock>fresh</stock>"])


def run_point(density: float, seed: int = 23):
    rng = SeededRng(seed)
    query = parse_select("Select i/stock from i in Cat//book;")

    lazy_doc = generate_catalogue(rng, ITEMS, name="Cat", call_density=density)
    total_calls = len(lazy_doc.service_calls())
    lazy_report = MaterializationEngine(lazy_doc, _resolver).materialize_for_query(query)

    rng = SeededRng(seed)  # identical document for the eager run
    eager_doc = generate_catalogue(rng, ITEMS, name="Cat", call_density=density)
    eager_report = MaterializationEngine(eager_doc, _resolver).materialize_all()

    return {
        "call_density": density,
        "embedded_calls": total_calls,
        "lazy_calls": lazy_report.invocation_count,
        "eager_calls": eager_report.invocation_count,
        "lazy_records": len(lazy_report.change_records()),
        "eager_records": len(eager_report.change_records()),
        "eager/lazy": ratio(
            eager_report.invocation_count, lazy_report.invocation_count
        ),
    }


DENSITIES = (0.1, 0.25, 0.5, 0.75, 1.0)


def test_e8_lazy_vs_eager(benchmark):
    rows = [run_point(d) for d in DENSITIES[:-1]]
    rows.append(benchmark(run_point, DENSITIES[-1]))
    table = ExperimentTable(
        f"E8: lazy vs eager materialization ({ITEMS}-item catalogue, query "
        "needs stock of //book only)",
        [
            "call_density",
            "embedded_calls",
            "lazy_calls",
            "eager_calls",
            "lazy_records",
            "eager_records",
            "eager/lazy",
        ],
    )
    for row in rows:
        table.add_row(**row)
    for row in rows:
        assert row["eager_calls"] == row["embedded_calls"]
        assert row["lazy_calls"] <= row["eager_calls"]
        assert row["lazy_records"] <= row["eager_records"]
    # Lazy only touches //book items (~1/5 of categories): strictly fewer
    # calls at every non-trivial density.
    assert all(
        row["lazy_calls"] < row["eager_calls"]
        for row in rows
        if row["embedded_calls"] > 4
    )
    table.add_note("compensation size (records) shrinks with the materialized set")
    publish(table, "e8_lazy_vs_eager.txt")
