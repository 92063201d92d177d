"""Unit tests for the XML parser (an expat tree builder) and serializer."""

import pytest

from repro.errors import XmlParseError
from repro.xmlstore.nodes import Document
from repro.xmlstore.parser import parse_document, parse_fragment
from repro.xmlstore.serializer import (
    canonical,
    pretty,
    rebind_ids,
    serialize,
    strip_ids,
    trees_equal,
)


class TestParseBasics:
    def test_minimal(self):
        doc = parse_document("<r/>")
        assert doc.root.name.local == "r"
        assert doc.root.children == []

    def test_prolog_ignored(self):
        doc = parse_document('<?xml version="1.0" encoding="UTF-8"?><r/>')
        assert doc.root.name.local == "r"

    def test_attributes_both_quotes(self):
        doc = parse_document("""<r a="1" b='2'/>""")
        assert doc.root.attributes == {"a": "1", "b": "2"}

    def test_nested_elements(self):
        doc = parse_document("<r><a><b/></a><c/></r>")
        assert [e.name.local for e in doc.root.iter_elements()] == ["r", "a", "b", "c"]

    def test_text_content(self):
        doc = parse_document("<r>hello</r>")
        assert doc.root.text_content() == "hello"

    def test_whitespace_only_text_dropped(self):
        doc = parse_document("<r>\n  <a/>\n</r>")
        assert len(doc.root.children) == 1

    def test_mixed_content_trimmed(self):
        doc = parse_document("<r> hi <a/></r>")
        assert doc.root.children[0].value == "hi"

    def test_prefixed_names(self):
        doc = parse_document("<axml:sc methodName='m'/>")
        assert doc.root.name.prefix == "axml"
        assert doc.root.name.local == "sc"

    def test_comments_skipped(self):
        doc = parse_document("<r><!-- note --><a/><!-- end --></r>")
        assert len(doc.root.children) == 1

    def test_cdata(self):
        doc = parse_document("<r><![CDATA[a < b & c]]></r>")
        assert doc.root.text_content() == "a < b & c"

    def test_doctype_tolerated(self):
        doc = parse_document("<!DOCTYPE r><r/>")
        assert doc.root.name.local == "r"

    def test_processing_instruction_skipped(self):
        doc = parse_document("<r><?pi data?><a/></r>")
        assert len(doc.root.children) == 1


class TestEntities:
    @pytest.mark.parametrize(
        "entity,expected",
        [("&amp;", "&"), ("&lt;", "<"), ("&gt;", ">"), ("&quot;", '"'), ("&apos;", "'")],
    )
    def test_predefined(self, entity, expected):
        doc = parse_document(f"<r>{entity}</r>")
        assert doc.root.text_content() == expected

    def test_decimal_charref(self):
        assert parse_document("<r>&#65;</r>").root.text_content() == "A"

    def test_hex_charref(self):
        assert parse_document("<r>&#x41;</r>").root.text_content() == "A"

    def test_entity_in_attribute(self):
        doc = parse_document('<r a="x&amp;y"/>')
        assert doc.root.attributes["a"] == "x&y"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XmlParseError):
            parse_document("<r>&nope;</r>")

    def test_unterminated_entity_rejected(self):
        with pytest.raises(XmlParseError):
            parse_document("<r>&amp</r>")


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "<r>",
            "<r></s>",
            "<r><a></r></a>",
            "<r a=1/>",
            "<r 'x'/>",
            "<r/><extra/>",
            "<r a='1' a='2'/>",
            "<1bad/>",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(XmlParseError):
            parse_document(text)

    def test_error_carries_position(self):
        with pytest.raises(XmlParseError) as exc:
            parse_document("<r>\n<bad")
        assert exc.value.line == 2


class TestSerializer:
    def test_roundtrip_simple(self):
        text = '<r a="1"><b>hi</b><c/></r>'
        assert serialize(parse_document(text)) == text

    def test_attributes_sorted(self):
        doc = parse_document('<r z="1" a="2"/>')
        assert serialize(doc) == '<r a="2" z="1"/>'

    def test_escaping(self):
        doc = Document()
        root = doc.create_root("r")
        root.new_text("a<b&c>d")
        root.attributes["q"] = 'say "hi" & <go>'
        out = serialize(doc)
        assert "&lt;" in out and "&amp;" in out and "&quot;" in out
        assert trees_equal(parse_document(out), doc)

    def test_declaration(self):
        assert serialize(parse_document("<r/>"), declaration=True).startswith("<?xml")

    def test_pretty_indents(self):
        doc = parse_document("<r><a><b/></a></r>")
        lines = pretty(doc).splitlines()
        assert lines[0] == "<r>"
        assert lines[1].startswith("  <a>")

    def test_pretty_inlines_text_only(self):
        doc = parse_document("<r><a>x</a></r>")
        assert "<a>x</a>" in pretty(doc)

    def test_serialize_subtree(self):
        doc = parse_document("<r><a>x</a></r>")
        assert serialize(doc.root.first_child("a")) == "<a>x</a>"

    def test_empty_document(self):
        assert serialize(Document()) == ""


class TestIdPersistence:
    def test_ids_roundtrip(self):
        doc = parse_document("<r><a/></r>")
        original_ids = {e.name.local: e.node_id for e in doc.iter_elements()}
        text = serialize(doc, include_ids=True)
        restored = parse_document(text)
        rebind_ids(restored)
        for element in restored.iter_elements():
            assert element.node_id == original_ids[element.name.local]

    def test_strip_ids(self):
        doc = parse_document("<r/>")
        text = serialize(doc, include_ids=True)
        restored = parse_document(text)
        strip_ids(restored)
        assert "repro:id" not in serialize(restored)

    def test_rebind_count(self):
        doc = parse_document("<r><a/><b/></r>")
        restored = parse_document(serialize(doc, include_ids=True))
        assert rebind_ids(restored) == 3


class TestFragments:
    def test_single(self):
        doc = Document()
        nodes = parse_fragment("<a>x</a>", doc)
        assert len(nodes) == 1
        assert nodes[0].parent is None
        assert nodes[0].document is doc

    def test_multiple_siblings(self):
        doc = Document()
        nodes = parse_fragment("<a/><b/><c/>", doc)
        assert [n.name.local for n in nodes] == ["a", "b", "c"]

    def test_empty(self):
        assert parse_fragment("", Document()) == []

    def test_canonical_equality(self):
        a = parse_document('<r b="2" a="1"><x/></r>')
        b = parse_document('<r a="1" b="2"><x/></r>')
        assert canonical(a) == canonical(b)


class TestTreeShape:
    """The shape rules node-id allocation order (and so summaries and
    digests) depends on."""

    def test_ids_allocated_in_document_order(self):
        doc = parse_document("<r>t<a/>u</r>")
        nodes = list(doc.root.iter())
        assert [n.node_id.node_serial for n in nodes] == [1, 2, 3, 4]
        assert [getattr(n, "value", None) for n in nodes] == [None, "t", None, "u"]

    def test_fragment_holder_takes_the_first_id(self):
        doc = Document()
        (element,) = parse_fragment("<a/>", doc)
        assert element.node_id.node_serial == 2

    def test_text_split_at_comments_pis_and_cdata(self):
        doc = parse_document("<r>a<!--c-->b<?p?>c<![CDATA[ d ]]>e</r>")
        assert [c.value for c in doc.root.children] == ["a", "b", "c", "d", "e"]

    def test_text_runs_around_entities_merge(self):
        doc = parse_document("<r> a &amp; b </r>")
        assert [c.value for c in doc.root.children] == ["a & b"]

    def test_cdata_is_literal(self):
        doc = parse_document("<r><![CDATA[&amp; <x/>]]></r>")
        assert doc.root.text_content() == "&amp; <x/>"

    def test_prolog_comments_and_pis_around_root(self):
        doc = parse_document("<?xml version='1.0'?><!--c--><?p?><!DOCTYPE r><r/><!--c-->")
        assert doc.root.name.local == "r"

    def test_fragment_top_level_comments_and_whitespace(self):
        nodes = parse_fragment(" <!--c--> <a/>\n<?p?>\t<b/> ", Document())
        assert [n.name.local for n in nodes] == ["a", "b"]


class TestConformingParser:
    """Behaviour of a conforming XML parser, pinned where it differs from
    the earlier hand-written one."""

    @pytest.mark.parametrize("text", ["x<a/>", "<a/>y", "<a/>z<b/>", "<![CDATA[ ]]><a/>"])
    def test_fragment_top_level_text_rejected(self, text):
        with pytest.raises(XmlParseError):
            parse_fragment(text, Document())

    @pytest.mark.parametrize("text", ["<r>\x00</r>", "<r>\x01</r>", "<r>&#0;</r>", "<r a='\x0b'/>"])
    def test_non_xml_characters_rejected(self, text):
        with pytest.raises(XmlParseError):
            parse_document(text)

    def test_lt_in_attribute_value_rejected(self):
        with pytest.raises(XmlParseError):
            parse_document('<r a="x<y"/>')

    def test_crlf_and_cr_in_text_become_lf(self):
        assert parse_document("<r>a\r\nb\rc</r>").root.text_content() == "a\nb\nc"

    def test_attribute_whitespace_normalized(self):
        assert parse_document('<r a="x\ty\nz"/>').root.attributes["a"] == "x y z"

    def test_attribute_character_references_kept(self):
        doc = parse_document('<r a="x&#9;y&#10;z&#13;"/>')
        assert doc.root.attributes["a"] == "x\ty\nz\r"

    @pytest.mark.parametrize(
        "text",
        [
            "<?xml version='1.0'?><a/>",
            "<!DOCTYPE a><a/>",
        ],
    )
    def test_prolog_in_fragment_rejected(self, text):
        with pytest.raises(XmlParseError):
            parse_fragment(text, Document())

    @pytest.mark.parametrize(
        "text",
        [
            "\n<?xml version='1.0'?><r/>",
            "<!DOCTYPE r SYSTEM 'r.dtd'><r/>",
            "<!DOCTYPE r [<!ENTITY e 'x'>]><r>&e;</r>",
            "<!DOCTYPE r [<!ATTLIST r a CDATA 'd'>]><r/>",
            "<r><!-- a -- b --></r>",
            "<r>]]></r>",
            "<r a='1'b='2'/>",
        ],
    )
    def test_malformed_or_unsupported_rejected(self, text):
        with pytest.raises(XmlParseError):
            parse_document(text)

    @pytest.mark.parametrize("text", ["<é/>", "<r é='1'/>"])
    def test_names_stay_ascii(self, text):
        with pytest.raises(XmlParseError):
            parse_document(text)


class TestErrorPositions:
    def test_columns_are_one_based(self):
        with pytest.raises(XmlParseError) as exc:
            parse_document("<r/>x")
        assert (exc.value.line, exc.value.column) == (1, 5)

    def test_fragment_columns_relative_to_the_fragment(self):
        with pytest.raises(XmlParseError) as doc_error:
            parse_document("<a></b>")
        with pytest.raises(XmlParseError) as fragment_error:
            parse_fragment("<a></b>", Document())
        assert (doc_error.value.line, doc_error.value.column) == (1, 6)
        assert (fragment_error.value.line, fragment_error.value.column) == (1, 6)

    def test_line_and_column_after_multibyte_text(self):
        with pytest.raises(XmlParseError) as exc:
            parse_document("<r>éé\n é<1</r>")
        assert (exc.value.line, exc.value.column) == (2, 4)

    @pytest.mark.parametrize(
        "text",
        [
            "", "<:a/>", "<a:/>", "<r>\ud800</r>", "<r a='\udcff'/>", "x<a/>",
            "<!DOCTYPE r [<!ENTITY e 'x'>]><r/>", "<a>", "</a>", "<a></a><b/>",
            "<r>&e;</r>", "<r>&#xD800;</r>",
        ],
    )
    def test_only_xml_parse_errors_escape(self, text):
        for parse in (parse_document, lambda t: parse_fragment(t, Document())):
            try:
                parse(text)
            except XmlParseError as exc:
                assert type(exc) is XmlParseError
                assert exc.line >= 1 and exc.column >= 1
            except Exception as exc:  # pragma: no cover - the failure mode
                raise AssertionError(f"{type(exc).__name__} escaped for {text!r}")


class TestSerializerEscapes:
    def test_attribute_whitespace_roundtrips(self):
        doc = Document()
        doc.create_root("r").attributes["a"] = "l1\nl2\tx\r"
        text = serialize(doc)
        assert 'a="l1&#10;l2&#9;x&#13;"' in text
        assert parse_document(text).root.attributes["a"] == "l1\nl2\tx\r"

    def test_text_cr_roundtrips(self):
        doc = Document()
        doc.create_root("r").new_text("a\r\nb")
        assert parse_document(serialize(doc)).root.text_content() == "a\r\nb"
