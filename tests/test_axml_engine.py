"""Unit tests for the AXML engine: service calls, documents, faults,
materialization (repro.axml)."""

import pytest

from repro.axml.document import AXMLDocument
from repro.axml.faults import parse_fault_handlers, select_handler, HookRegistry
from repro.axml.materialize import MaterializationEngine
from repro.axml.service_call import ServiceCall, install_service_call
from repro.errors import MaterializationError, ServiceCallError
from repro.outcome import Outcome
from repro.query.parser import parse_select
from repro.xmlstore.parser import parse_document

SC_DOC = """
<Doc>
  <item>
    <axml:sc mode="replace" serviceNameSpace="ns" serviceURL="axml://P2"
             methodName="getStock" frequency="5">
      <axml:params>
        <axml:param name="id"><axml:value>42</axml:value></axml:param>
      </axml:params>
      <stock>7</stock>
      <axml:catch faultName="A"><axml:retry times="3" wait="0.5"/></axml:catch>
      <axml:catchAll/>
    </axml:sc>
  </item>
</Doc>
"""


class TestServiceCall:
    def _call(self):
        doc = parse_document(SC_DOC, name="Doc")
        sc = next(e for e in doc.iter_elements() if e.name.local == "sc")
        return ServiceCall(sc)

    def test_attributes(self):
        call = self._call()
        assert call.mode == "replace"
        assert call.method_name == "getStock"
        assert call.service_url == "axml://P2"
        assert call.peer_hint == "P2"
        assert call.frequency == 5.0
        assert call.service_namespace == "ns"

    def test_params(self):
        params = self._call().params()
        assert len(params) == 1
        assert params[0].name == "id"
        assert params[0].value == "42"
        assert not params[0].is_nested

    def test_param_values(self):
        assert self._call().param_values() == {"id": "42"}

    def test_result_nodes_exclude_machinery(self):
        nodes = self._call().result_nodes()
        assert len(nodes) == 1
        assert nodes[0].name.local == "stock"

    def test_result_name_inferred(self):
        assert self._call().result_name == "stock"

    def test_result_name_declared_wins(self):
        doc = parse_document(
            "<D><axml:sc methodName='m' resultName='declared'><old/></axml:sc></D>"
        )
        sc = ServiceCall(doc.root.child_elements()[0])
        assert sc.result_name == "declared"

    def test_not_an_sc_rejected(self):
        doc = parse_document("<D><x/></D>")
        with pytest.raises(ServiceCallError):
            ServiceCall(doc.root.child_elements()[0])

    def test_missing_method_name(self):
        doc = parse_document("<D><axml:sc mode='merge'/></D>")
        call = ServiceCall(doc.root.child_elements()[0])
        with pytest.raises(ServiceCallError):
            call.method_name

    def test_bad_mode(self):
        doc = parse_document("<D><axml:sc mode='sideways' methodName='m'/></D>")
        with pytest.raises(ServiceCallError):
            ServiceCall(doc.root.child_elements()[0]).mode

    def test_install_service_call(self):
        doc = parse_document("<D><item/></D>")
        item = doc.root.child_elements()[0]
        call = install_service_call(
            item,
            "getX",
            service_url="axml://P9",
            mode="merge",
            params={"a": "1"},
            initial_result_xml=("<x>0</x>",),
            result_name="x",
            frequency=2.0,
        )
        assert call.mode == "merge"
        assert call.param_values() == {"a": "1"}
        assert call.result_name == "x"
        assert call.frequency == 2.0

    def test_nested_param_detection(self):
        doc = parse_document(
            "<D><axml:sc methodName='outer'><axml:params>"
            "<axml:param name='p'><axml:sc methodName='inner'><v>3</v></axml:sc>"
            "</axml:param></axml:params></axml:sc></D>"
        )
        call = ServiceCall(doc.root.child_elements()[0])
        params = call.params()
        assert params[0].is_nested
        assert params[0].nested_call.method_name == "inner"
        with pytest.raises(ServiceCallError):
            call.param_values()


class TestFaultHandlers:
    def _handlers(self):
        doc = parse_document(SC_DOC, name="Doc")
        sc = next(e for e in doc.iter_elements() if e.name.local == "sc")
        return parse_fault_handlers(sc)

    def test_parse(self):
        handlers = self._handlers()
        assert len(handlers) == 2
        assert handlers[0].fault_name == "A"
        assert handlers[0].retry.times == 3
        assert handlers[0].retry.wait == 0.5
        assert handlers[1].is_catch_all

    def test_select_specific_first(self):
        handlers = self._handlers()
        assert select_handler(handlers, "A").fault_name == "A"

    def test_select_catchall_fallback(self):
        handlers = self._handlers()
        assert select_handler(handlers, "Z").is_catch_all

    def test_select_none(self):
        doc = parse_document("<D><axml:sc methodName='m'/></D>")
        handlers = parse_fault_handlers(doc.root.child_elements()[0])
        assert select_handler(handlers, "A") is None

    def test_retry_with_replica(self):
        doc = parse_document(
            "<D><axml:sc methodName='m'><axml:catch faultName='F'>"
            "<axml:retry times='1' wait='0'>"
            "<axml:sc methodName='m' serviceURL='axml://replica'/>"
            "</axml:retry></axml:catch></axml:sc></D>"
        )
        handlers = parse_fault_handlers(doc.root.child_elements()[0])
        assert handlers[0].retry.uses_replica

    def test_catch_without_name_rejected(self):
        doc = parse_document("<D><axml:sc methodName='m'><axml:catch/></axml:sc></D>")
        with pytest.raises(ServiceCallError):
            parse_fault_handlers(doc.root.child_elements()[0])

    def test_hook_registry(self):
        registry = HookRegistry()
        calls = []
        registry.register("fix", lambda fault, el: calls.append(fault) or True)
        doc = parse_document("<D/>")
        assert registry.run("fix", "A", doc.root)
        assert calls == ["A"]
        assert not registry.run("missing", "A", doc.root)


class TestAXMLDocument:
    def test_discovers_calls(self):
        doc = AXMLDocument.from_xml(SC_DOC, name="Doc")
        assert [c.method_name for c in doc.service_calls()] == ["getStock"]

    def test_nested_param_call_not_listed(self):
        doc = AXMLDocument.from_xml(
            "<D><axml:sc methodName='outer'><axml:params>"
            "<axml:param name='p'><axml:sc methodName='inner'/></axml:param>"
            "</axml:params></axml:sc></D>"
        )
        assert [c.method_name for c in doc.service_calls()] == ["outer"]

    def test_calls_for_query_matches_result_name(self):
        doc = AXMLDocument.from_xml(SC_DOC, name="Doc")
        q = parse_select("Select i/stock from i in Doc//item;")
        assert [c.method_name for c in doc.calls_for_query(q)] == ["getStock"]

    def test_calls_for_query_no_match(self):
        doc = AXMLDocument.from_xml(SC_DOC, name="Doc")
        q = parse_select("Select i/price from i in Doc//item;")
        assert doc.calls_for_query(q) == []

    def test_continuous_calls(self):
        doc = AXMLDocument.from_xml(SC_DOC, name="Doc")
        assert len(doc.continuous_calls()) == 1

    def test_name_defaults_to_root(self):
        doc = AXMLDocument.from_xml("<Shop/>")
        assert doc.name == "Shop"


class TestMaterialization:
    def _doc(self):
        return AXMLDocument.from_xml(SC_DOC, name="Doc")

    def test_replace_mode(self):
        doc = self._doc()
        engine = MaterializationEngine(
            doc, lambda call, params: Outcome(["<stock>99</stock>"])
        )
        report = engine.materialize_all()
        assert report.invocation_count == 1
        call = doc.service_calls()[0]
        results = call.result_nodes()
        assert len(results) == 1
        assert results[0].text_content() == "99"
        kinds = [r.kind for r in report.change_records()]
        assert kinds == ["delete", "insert"]

    def test_merge_mode(self):
        doc = AXMLDocument.from_xml(
            "<D><axml:sc mode='merge' methodName='m'><r>1</r></axml:sc></D>"
        )
        engine = MaterializationEngine(
            doc, lambda call, params: Outcome(["<r>2</r>"])
        )
        report = engine.materialize_all()
        results = doc.service_calls()[0].result_nodes()
        assert [n.text_content() for n in results] == ["1", "2"]
        assert [r.kind for r in report.change_records()] == ["insert"]

    def test_params_passed_to_resolver(self):
        doc = self._doc()
        seen = {}

        def resolver(call, params):
            seen.update(params)
            return Outcome([])

        MaterializationEngine(doc, resolver).materialize_all()
        assert seen == {"id": "42"}

    def test_nested_param_materialized_first(self):
        doc = AXMLDocument.from_xml(
            "<D><axml:sc mode='replace' methodName='outer'><axml:params>"
            "<axml:param name='p'><axml:sc methodName='inner'/></axml:param>"
            "</axml:params><old/></axml:sc></D>"
        )
        order = []

        def resolver(call, params):
            order.append((call.method_name, dict(params)))
            if call.method_name == "inner":
                return Outcome(["<v>materialized</v>"])
            return Outcome(["<out/>"])

        MaterializationEngine(doc, resolver).materialize_all()
        assert order[0][0] == "inner"
        assert order[1] == ("outer", {"p": "materialized"})

    def test_nested_result_call_followed(self):
        doc = AXMLDocument.from_xml(
            "<D><axml:sc mode='replace' methodName='first'><old/></axml:sc></D>"
        )

        def resolver(call, params):
            if call.method_name == "first":
                return Outcome(
                    ["<axml:sc mode='replace' methodName='second'/>"]
                )
            return Outcome(["<final>done</final>"])

        report = MaterializationEngine(doc, resolver).materialize_all()
        assert report.methods() == ["first", "second"]

    def test_nested_depth_bounded(self):
        doc = AXMLDocument.from_xml(
            "<D><axml:sc mode='replace' methodName='loop'><old/></axml:sc></D>"
        )

        def resolver(call, params):
            return Outcome(["<axml:sc mode='replace' methodName='loop'/>"])

        engine = MaterializationEngine(doc, resolver, max_depth=3)
        with pytest.raises(MaterializationError):
            engine.materialize_all()

    def test_lazy_for_query(self):
        doc = AXMLDocument.from_xml(
            "<D><item>"
            "<axml:sc mode='replace' methodName='a'><alpha>1</alpha></axml:sc>"
            "<axml:sc mode='replace' methodName='b'><beta>1</beta></axml:sc>"
            "</item></D>",
            name="D",
        )
        invoked = []

        def resolver(call, params):
            invoked.append(call.method_name)
            return Outcome([f"<{call.result_name}>2</{call.result_name}>"])

        q = parse_select("Select i/beta from i in D//item;")
        MaterializationEngine(doc, resolver).materialize_for_query(q)
        assert invoked == ["b"]

    def test_materialize_one_call(self):
        doc = self._doc()
        call = doc.service_calls()[0]
        engine = MaterializationEngine(
            doc, lambda c, p: Outcome(["<stock>1</stock>"])
        )
        report = engine.materialize_call(call)
        assert report.invocation_count == 1
