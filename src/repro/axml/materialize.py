"""Materialization of embedded service calls.

Materializing a call means: resolve nested parameters, invoke the
service, and apply the results to the document under the call's mode
(``replace`` swaps the result region, ``merge`` appends).  Every tree
mutation is captured as the same change records explicit updates
produce, because §3.1's central argument is that *query* evaluation
mutates the document through exactly this path — so query compensation
is built from these records at run time.

The engine is transport-agnostic: it invokes services through a
*resolver* callable, which the P2P layer implements with real (simulated)
network messages so that peer disconnection can strike mid-materialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.axml.document import AXMLDocument
from repro.axml.service_call import ServiceCall
from repro.errors import MaterializationError
from repro.outcome import Outcome
from repro.query.ast import SelectQuery
from repro.query.update import ChangeRecord, InsertRecord, detach_to_record
from repro.xmlstore.nodes import Element
from repro.xmlstore.parser import parse_fragment
from repro.xmlstore.path import NULL_METER, TraversalMeter


#: Resolver signature: (call, materialized parameter values) → outcome.
Resolver = Callable[[ServiceCall, Dict[str, str]], Outcome]


@dataclass
class MaterializedCall:
    """One materialized call and the tree changes it caused."""

    method_name: str
    call_id: object
    outcome: Outcome
    records: List[ChangeRecord] = field(default_factory=list)
    nested_depth: int = 0


@dataclass
class MaterializationReport:
    """Everything a materialization pass did — input to compensation."""

    calls: List[MaterializedCall] = field(default_factory=list)

    @property
    def invocation_count(self) -> int:
        return len(self.calls)

    def change_records(self) -> List[ChangeRecord]:
        out: List[ChangeRecord] = []
        for call in self.calls:
            out.extend(call.records)
        return out

    def methods(self) -> List[str]:
        return [call.method_name for call in self.calls]

    def merge(self, other: "MaterializationReport") -> None:
        self.calls.extend(other.calls)


class MaterializationEngine:
    """Materializes service calls of one AXML document.

    ``max_depth`` bounds nested invocation (a result that is a service
    call whose result is a service call …) so a misbehaving service
    cannot loop the engine forever.
    """

    def __init__(
        self,
        axml_document: AXMLDocument,
        resolver: Resolver,
        meter: TraversalMeter = NULL_METER,
        max_depth: int = 8,
        follow_nested_results: bool = True,
    ):
        self.axml_document = axml_document
        self.resolver = resolver
        self.meter = meter
        self.max_depth = max_depth
        self.follow_nested_results = follow_nested_results

    # -- public entry points ---------------------------------------------------

    def materialize_for_query(self, query: SelectQuery) -> MaterializationReport:
        """Lazy mode: materialize only the calls the query requires (§3.1)."""
        report = MaterializationReport()
        for call in self.axml_document.calls_for_query(query):
            self._materialize(call, report, depth=0)
        return report

    def materialize_all(self) -> MaterializationReport:
        """Eager mode: materialize every embedded call."""
        report = MaterializationReport()
        for call in self.axml_document.service_calls():
            # A call may have been consumed by a previous nested pass.
            if not call.element.is_attached():
                continue
            self._materialize(call, report, depth=0)
        return report

    def materialize_call(self, call: ServiceCall) -> MaterializationReport:
        """Materialize one specific call (periodic/continuous services)."""
        report = MaterializationReport()
        self._materialize(call, report, depth=0)
        return report

    # -- internals -----------------------------------------------------------------

    def _materialize(
        self, call: ServiceCall, report: MaterializationReport, depth: int
    ) -> None:
        if depth > self.max_depth:
            raise MaterializationError(
                f"nested materialization exceeded max depth {self.max_depth} "
                f"at {call.describe()}"
            )
        if call.fetch_once and call.result_nodes():
            # Storage-like call (e.g. a distributed fragment) already
            # fetched: its results are authoritative, skip the refresh.
            return
        records: List[ChangeRecord] = []
        params = self._resolve_params(call, report, depth)
        outcome = self.resolver(call, params)
        records.extend(self._apply_results(call, outcome.fragments))
        materialized = MaterializedCall(
            method_name=call.method_name,
            call_id=call.call_id,
            outcome=outcome,
            records=records,
            nested_depth=depth,
        )
        report.calls.append(materialized)
        if self.follow_nested_results:
            for nested in call.nested_result_calls():
                self._materialize(nested, report, depth + 1)

    def _resolve_params(
        self, call: ServiceCall, report: MaterializationReport, depth: int
    ) -> Dict[str, str]:
        """Materialize nested parameters first (local nesting, §1).

        The nested call's results are applied in place inside the
        parameter element; the parameter's value is their text content.
        """
        values: Dict[str, str] = {}
        for param in call.params():
            if not param.is_nested:
                values[param.name] = param.value or ""
                continue
            nested = param.nested_call
            assert nested is not None
            self._materialize(nested, report, depth + 1)
            values[param.name] = "".join(
                node.text_content() for node in nested.result_nodes()
            )
        return values

    def _apply_results(
        self, call: ServiceCall, fragments: Sequence[str]
    ) -> List[ChangeRecord]:
        """Apply invocation results under the call's mode (§1).

        ``replace``: previous results are detached (logged as deletes) and
        new fragments inserted in their place.  ``merge``: fragments are
        appended as siblings *after* the previous results.
        """
        records: List[ChangeRecord] = []
        sc_element = call.element
        document = self.axml_document.document
        mode = call.mode
        if mode == "replace":
            for node in call.result_nodes():
                if isinstance(node, Element):
                    self.meter.touch(node.subtree_size())
                    records.append(detach_to_record(node))
                else:
                    node.detach()
                    self.meter.touch()
        for fragment in fragments:
            for node in parse_fragment(fragment, document):
                sc_element.append(node)
                self.meter.touch(node.subtree_size())
                records.append(
                    InsertRecord(
                        node_id=node.node_id,
                        parent_id=sc_element.node_id,
                        index=node.index_in_parent(),
                        inserted_xml=fragment,
                    )
                )
        return records
