"""XML parsing into :mod:`repro.xmlstore.nodes` trees.

A small tree builder on the stdlib's ``xml.parsers.expat``.  The tree
shape is part of the store's contract (it fixes node-id allocation
order, and with it summaries and digests):

* text is whitespace-stripped and whitespace-only text is dropped;
* comments, processing instructions and CDATA boundaries split text,
  and CDATA content is taken literally;
* the ``<?xml … ?>`` prolog and a bare ``<!DOCTYPE name>`` are skipped;
* names are restricted to the ASCII subset of the XML ``Name``
  production (see :func:`repro.xmlstore.names.is_valid_name`).

Expat is a conforming parser: attribute values have tab, newline and CR
normalized to a space, CR and CRLF in text become LF, and a ``<`` inside
an attribute value, a NUL or any other character XML does not allow is
rejected.  The serializer writes tab, newline and CR as character
references where the parser would normalize them, so trees still
round-trip.  The XML declaration must open the text, a fragment
(element content) takes no prolog at all, and a DOCTYPE carrying an
external id or an internal subset is rejected: entity and attribute-list
declarations would change the tree.  Every failure is an
:class:`~repro.errors.XmlParseError` with a 1-based line and column.
"""

from __future__ import annotations

from typing import List, Optional
from xml.parsers import expat

from repro.errors import XmlParseError
from repro.xmlstore.nodes import Document, Element

_HOLDER = "__fragment__"
_OPEN, _CLOSE = f"<{_HOLDER}>", f"</{_HOLDER}>"


def _build(text: str, document: Document, holder: Optional[Element]) -> None:
    """Parse *text* into *document*'s root, or as children of *holder*.

    Handlers report a broken tree-shape rule as ``ValueError``; they do
    not reference the parser, so a parse leaves no reference cycle for
    the garbage collector.
    """
    stack: List[Element] = []
    pending: List[str] = []

    def flush() -> None:
        if pending:
            raw = "".join(pending)
            pending.clear()
            if stack[-1] is holder:
                if raw.strip(" \t\n"):
                    raise ValueError("text outside an element")
            elif raw.strip():
                stack[-1].new_text(raw.strip())

    def start(name: str, attributes: dict) -> None:
        flush()
        if not stack and holder is not None:
            stack.append(holder)
            return
        if not name.isascii() or not "".join(attributes).isascii():
            raise ValueError(f"non-ASCII XML name in <{name}>")
        if stack:
            stack.append(stack[-1].new_element(name, attributes))
        else:
            stack.append(document.create_root(name))
            stack[-1].attributes.update(attributes)

    def end(name: str) -> None:
        flush()
        stack.pop()

    def start_cdata() -> None:
        if stack[-1] is holder:
            raise ValueError("CDATA section outside an element")
        flush()

    def doctype(name, system_id, public_id, has_internal_subset) -> None:
        if system_id or public_id or has_internal_subset:
            raise ValueError("only a bare <!DOCTYPE name> is supported")

    parser = expat.ParserCreate()
    parser.buffer_text = True
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = pending.append
    parser.CommentHandler = lambda data: flush()
    parser.ProcessingInstructionHandler = lambda target, data: flush()
    parser.StartCdataSectionHandler = start_cdata
    parser.EndCdataSectionHandler = flush
    parser.StartDoctypeDeclHandler = doctype
    shift = len(_OPEN) if holder is not None else 0
    try:
        if holder is None:
            parser.Parse(text, True)
        else:
            parser.Parse(_OPEN, False)
            parser.Parse(text, False)
            parser.Parse(_CLOSE, True)
    except expat.ExpatError as exc:
        message = expat.errors.messages[exc.code]
        line, column = exc.lineno, exc.offset + 1
    except UnicodeEncodeError as exc:
        message = "character not encodable as UTF-8"
        before = text[: exc.start]
        line, column = before.count("\n") + 1, exc.start - before.rfind("\n")
        shift = 0
    except ValueError as exc:
        message = str(exc)
        line, column = parser.CurrentLineNumber, parser.CurrentColumnNumber + 1
    else:
        return
    raise XmlParseError(message, line, column - shift if line == 1 else column)


def parse_document(text: str, name: str = "") -> Document:
    """Parse a complete XML document string into a :class:`Document`.

    Raises :class:`~repro.errors.XmlParseError` with line/column
    information on malformed input.
    """
    document = Document(name)
    _build(text, document, None)
    return document


def parse_fragment(text: str, document: Document) -> List[Element]:
    """Parse one or more sibling elements into detached nodes of *document*.

    Used for ``<data>`` payloads of update actions and for service
    results: the fragment's elements are owned by *document* but not yet
    attached anywhere.  Text between them other than whitespace is an
    error.
    """
    holder = document.create_element(_HOLDER)
    _build(text, document, holder)
    elements = holder.child_elements()
    for element in list(holder.children):
        element.detach()
    return elements
