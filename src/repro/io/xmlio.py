"""XML serialization of specifications and execution logs.

Formats (all attributes are strings; ids are decimal integers)::

    <specification name="...">
      <loops><module name="L"/></loops>
      <forks><module name="F"/></forks>
      <graph key="g0" source="0" sink="2">
        <vertex id="0" name="s0"/> ...
        <edge from="0" to="1"/> ...
      </graph>
      <graph key="L#0" head="L" ...> ... </graph>
    </specification>

    <execution spec="...">
      <insert vid="0" name="s0">
        <pred vid="..."/> ...
        <origin key="g0" token="0" tv="0"/>   <!-- optional -->
        <slot token="0" tv="1"/>              <!-- optional -->
      </insert> ...
    </execution>

Implementation graphs are emitted in key order so the reloaded
specification assigns identical graph keys.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Iterable, List

from repro.errors import FormatError
from repro.graphs.two_terminal import TwoTerminalGraph
from repro.workflow.execution import Insertion
from repro.workflow.specification import Specification, make_spec

# ---------------------------------------------------------------------------
# specifications
# ---------------------------------------------------------------------------


def _graph_element(key: str, head, graph: TwoTerminalGraph) -> ET.Element:
    element = ET.Element(
        "graph",
        {
            "key": key,
            "source": str(graph.source),
            "sink": str(graph.sink),
        },
    )
    if head is not None:
        element.set("head", head)
    for vid in sorted(graph.vertices()):
        ET.SubElement(
            element, "vertex", {"id": str(vid), "name": graph.name(vid)}
        )
    for u, v in sorted(graph.edges()):
        ET.SubElement(element, "edge", {"from": str(u), "to": str(v)})
    return element


def _graph_from_element(element: ET.Element) -> TwoTerminalGraph:
    vertices = [
        (int(v.get("id")), v.get("name")) for v in element.findall("vertex")
    ]
    edges = [
        (int(e.get("from")), int(e.get("to"))) for e in element.findall("edge")
    ]
    source = element.get("source")
    sink = element.get("sink")
    if source is None or sink is None:
        raise FormatError("graph element missing source/sink")
    return TwoTerminalGraph.build(
        vertices, edges, source=int(source), sink=int(sink)
    )


def specification_to_xml(spec: Specification) -> ET.Element:
    """Serialize a specification to an XML element tree."""
    root = ET.Element("specification", {"name": spec.name})
    loops = ET.SubElement(root, "loops")
    for name in sorted(spec.loops):
        ET.SubElement(loops, "module", {"name": name})
    forks = ET.SubElement(root, "forks")
    for name in sorted(spec.forks):
        ET.SubElement(forks, "module", {"name": name})
    for key in spec.graph_keys():
        root.append(_graph_element(key, spec.head_of(key), spec.graph(key)))
    return root


def specification_from_xml(root: ET.Element) -> Specification:
    """Rebuild a specification from :func:`specification_to_xml` output."""
    if root.tag != "specification":
        raise FormatError(f"expected <specification>, found <{root.tag}>")
    loops = [m.get("name") for m in root.findall("loops/module")]
    forks = [m.get("name") for m in root.findall("forks/module")]
    start = None
    implementations = []
    for element in root.findall("graph"):
        graph = _graph_from_element(element)
        head = element.get("head")
        if head is None:
            if start is not None:
                raise FormatError("multiple start graphs")
            start = graph
        else:
            implementations.append((head, graph))
    if start is None:
        raise FormatError("missing start graph")
    return make_spec(
        start=start,
        implementations=implementations,
        loops=loops,
        forks=forks,
        name=root.get("name", "spec"),
    )


def save_specification_xml(spec: Specification, path) -> None:
    """Write a specification to an XML file."""
    tree = ET.ElementTree(specification_to_xml(spec))
    ET.indent(tree)
    tree.write(path, encoding="unicode", xml_declaration=False)


def load_specification_xml(path) -> Specification:
    """Read a specification from an XML file."""
    return specification_from_xml(ET.parse(path).getroot())


# ---------------------------------------------------------------------------
# execution logs
# ---------------------------------------------------------------------------


def execution_to_xml(
    insertions: Iterable[Insertion], spec_name: str = ""
) -> ET.Element:
    """Serialize an insertion stream (an execution log) to XML."""
    root = ET.Element("execution", {"spec": spec_name})
    for ins in insertions:
        element = ET.SubElement(
            root, "insert", {"vid": str(ins.vid), "name": ins.name}
        )
        for pred in sorted(ins.preds):
            ET.SubElement(element, "pred", {"vid": str(pred)})
        if ins.origin is not None:
            key, token, tv = ins.origin
            ET.SubElement(
                element,
                "origin",
                {"key": key, "token": str(token), "tv": str(tv)},
            )
        if ins.slot is not None:
            token, tv = ins.slot
            ET.SubElement(
                element, "slot", {"token": str(token), "tv": str(tv)}
            )
    return root


def execution_from_xml(root: ET.Element) -> List[Insertion]:
    """Rebuild an insertion stream from :func:`execution_to_xml` output."""
    if root.tag != "execution":
        raise FormatError(f"expected <execution>, found <{root.tag}>")
    insertions: List[Insertion] = []
    for element in root.findall("insert"):
        preds = frozenset(
            int(p.get("vid")) for p in element.findall("pred")
        )
        origin = None
        origin_el = element.find("origin")
        if origin_el is not None:
            origin = (
                origin_el.get("key"),
                int(origin_el.get("token")),
                int(origin_el.get("tv")),
            )
        slot = None
        slot_el = element.find("slot")
        if slot_el is not None:
            slot = (int(slot_el.get("token")), int(slot_el.get("tv")))
        insertions.append(
            Insertion(
                vid=int(element.get("vid")),
                name=element.get("name"),
                preds=preds,
                origin=origin,
                slot=slot,
            )
        )
    return insertions


def save_execution_xml(insertions: Iterable[Insertion], path, spec_name="") -> None:
    """Write an execution log to an XML file."""
    tree = ET.ElementTree(execution_to_xml(insertions, spec_name))
    ET.indent(tree)
    tree.write(path, encoding="unicode", xml_declaration=False)


def load_execution_xml(path) -> List[Insertion]:
    """Read an execution log from an XML file."""
    return execution_from_xml(ET.parse(path).getroot())
