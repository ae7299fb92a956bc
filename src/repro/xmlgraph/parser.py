"""Parsing XML documents into :class:`~repro.xmlgraph.model.XMLGraph`.

The parser follows the paper's modeling conventions:

* every element becomes a node labeled with its tag;
* an element whose content is only text gets that text as its value;
* an ``ID`` attribute (``id`` by default) supplies the node id, otherwise
  the system invents one;
* ``IDREF``/``IDREFS`` attributes become *reference* edges, resolved after
  all documents have been read (so cross-document XLinks work);
* the document root may be omitted (``drop_root=True``) because it often
  provides an artificial connection between unrelated first-level elements.
"""

from __future__ import annotations

import itertools
import xml.etree.ElementTree as ET
from dataclasses import dataclass

from .model import EdgeKind, XMLGraph, XMLGraphError


@dataclass
class ParseOptions:
    """Knobs controlling how XML text is mapped onto the graph model.

    Attributes:
        id_attr: Attribute treated as the XML ``ID`` of an element.
        ref_attrs: Attributes treated as ``IDREF``/``IDREFS``; each
            whitespace-separated token becomes one reference edge.
        drop_root: When true, the document root element is omitted and its
            children become roots of the graph.
        id_prefix: Prefix for system-invented node ids.
    """

    id_attr: str = "id"
    ref_attrs: tuple[str, ...] = ("ref", "idref", "href")
    drop_root: bool = False
    id_prefix: str = "n"


@dataclass
class _PendingRef:
    source: str
    target: str


class XMLParser:
    """Incremental parser: feed one or more documents, then ``finish()``."""

    def __init__(self, options: ParseOptions | None = None) -> None:
        self.options = options or ParseOptions()
        self.graph = XMLGraph()
        self._counter = itertools.count(1)
        self._pending: list[_PendingRef] = []

    def parse_document(self, text: str) -> None:
        """Parse one XML document and merge it into the graph."""
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise XMLGraphError(f"malformed XML document: {exc}") from exc
        if self.options.drop_root:
            for child in root:
                self._walk(child, parent_id=None)
        else:
            self._walk(root, parent_id=None)

    def finish(self) -> XMLGraph:
        """Resolve collected reference edges and return the graph."""
        for ref in self._pending:
            if not self.graph.has_node(ref.target):
                raise XMLGraphError(
                    f"dangling reference from {ref.source!r} to unknown id {ref.target!r}"
                )
            if not self.graph.has_edge(ref.source, ref.target, EdgeKind.REFERENCE):
                self.graph.add_edge(ref.source, ref.target, EdgeKind.REFERENCE)
        self._pending.clear()
        return self.graph

    # ------------------------------------------------------------------
    def _invent_id(self) -> str:
        while True:
            candidate = f"{self.options.id_prefix}{next(self._counter)}"
            if not self.graph.has_node(candidate):
                return candidate

    def _walk(self, element: ET.Element, parent_id: str | None) -> str:
        options = self.options
        node_id = element.get(options.id_attr) or self._invent_id()
        text = (element.text or "").strip()
        value = text if text and len(element) == 0 else (text or None)
        node = self.graph.add_node(node_id, _local_name(element.tag), value)
        if parent_id is not None:
            self.graph.add_edge(parent_id, node.node_id, EdgeKind.CONTAINMENT)
        for attr in options.ref_attrs:
            raw = element.get(attr)
            if raw is None:
                continue
            for token in raw.split():
                self._pending.append(_PendingRef(node.node_id, token))
        for child in element:
            self._walk(child, node.node_id)
        return node.node_id


def _local_name(tag: str) -> str:
    """Strip an XML-namespace prefix in Clark notation, if present."""
    if tag.startswith("{"):
        return tag.rsplit("}", 1)[1]
    return tag


def parse_xml(
    text: str | list[str],
    options: ParseOptions | None = None,
) -> XMLGraph:
    """Parse one document (or a list of linked documents) into a graph."""
    parser = XMLParser(options)
    documents = [text] if isinstance(text, str) else list(text)
    for document in documents:
        parser.parse_document(document)
    return parser.finish()


def parse_fragment(
    text: str,
    options: ParseOptions | None = None,
) -> tuple[XMLGraph, list[tuple[str, str]], str]:
    """Parse one XML element into a standalone fragment graph.

    Unlike :func:`parse_xml`, a reference whose target lies outside the
    fragment is *returned unresolved* instead of raising, so a caller can
    resolve it against a live graph — the insert path of the update
    subsystem (:mod:`repro.updates`).  The document root is never
    dropped: the fragment **is** the element.

    Returns:
        ``(graph, external_refs, root_id)`` — the fragment graph with all
        fragment-internal references resolved, the ``(source, target)``
        pairs whose targets must exist in the destination graph, and the
        id of the fragment's root node.
    """
    base = options or ParseOptions()
    parser = XMLParser(
        ParseOptions(
            id_attr=base.id_attr,
            ref_attrs=base.ref_attrs,
            drop_root=False,
            id_prefix=base.id_prefix,
        )
    )
    try:
        element = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XMLGraphError(f"malformed XML document: {exc}") from exc
    root_id = parser._walk(element, parent_id=None)
    external: dict[tuple[str, str], None] = {}
    for ref in parser._pending:
        if parser.graph.has_node(ref.target):
            if not parser.graph.has_edge(ref.source, ref.target, EdgeKind.REFERENCE):
                parser.graph.add_edge(ref.source, ref.target, EdgeKind.REFERENCE)
        else:
            external[(ref.source, ref.target)] = None
    parser._pending.clear()
    return parser.graph, list(external), root_id
