"""MNRL (MNCaRT Network Representation Language) reader/writer.

MNRL is the JSON automata interchange format from the MNCaRT ecosystem;
the paper's toolchain accepts "an MNRL/ANML file".  We support the
homogeneous-state (``hState``) node type, which is what ANMLZoo's MNRL
exports contain.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.automata.nfa import Automaton, StartKind
from repro.automata.symbols import SymbolClass
from repro.errors import AutomatonError, ParseError

_ENABLE_TO_KIND = {
    "onActivateIn": StartKind.NONE,
    "onStartAndActivateIn": StartKind.START_OF_DATA,
    "always": StartKind.ALL_INPUT,
    "onLast": StartKind.NONE,
}
_KIND_TO_ENABLE = {
    StartKind.NONE: "onActivateIn",
    StartKind.START_OF_DATA: "onStartAndActivateIn",
    StartKind.ALL_INPUT: "always",
}


def loads_mnrl(text: str, *, name: str | None = None) -> Automaton:
    """Parse an MNRL document from a string."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed MNRL JSON: {exc}") from exc
    if not isinstance(doc, dict) or "nodes" not in doc:
        raise ParseError("MNRL document has no 'nodes' array")
    automaton = Automaton(name=name or doc.get("id", "mnrl"))
    id_to_index: dict[str, int] = {}
    edges: list[tuple[str, str]] = []
    for node in doc["nodes"]:
        node_type = node.get("type")
        if node_type != "hState":
            raise ParseError(
                f"unsupported MNRL node type {node_type!r} (only hState "
                f"homogeneous automata are supported)"
            )
        node_id = node.get("id")
        if node_id is None:
            raise ParseError("MNRL node without id")
        if node_id in id_to_index:
            raise ParseError(f"duplicate MNRL node id {node_id!r}")
        attributes = node.get("attributes", {})
        symbol_set = attributes.get("symbolSet")
        if symbol_set is None:
            raise ParseError(f"hState {node_id!r} has no symbolSet attribute")
        enable = node.get("enable", "onActivateIn")
        if enable not in _ENABLE_TO_KIND:
            raise ParseError(f"hState {node_id!r} has unknown enable {enable!r}")
        try:
            symbol_class = SymbolClass.parse(symbol_set)
        except AutomatonError as exc:
            raise ParseError(f"hState {node_id!r}: {exc}") from exc
        report_id = attributes.get("reportId")
        ste = automaton.add_state(
            symbol_class,
            start=_ENABLE_TO_KIND[enable],
            reporting=bool(node.get("report", False)),
            report_code=str(report_id) if report_id is not None else None,
            name=node_id,
        )
        id_to_index[node_id] = ste.ste_id
        for output in node.get("outputDefs", []):
            for activation in output.get("activate", []):
                target = activation.get("id")
                if target is None:
                    raise ParseError(f"hState {node_id!r}: activation without id")
                edges.append((node_id, target))
    for src, dst in edges:
        if dst not in id_to_index:
            raise ParseError(f"activation references unknown node {dst!r}")
        automaton.add_transition(id_to_index[src], id_to_index[dst])
    return automaton


def load_mnrl(path: str | Path) -> Automaton:
    """Load an MNRL file from disk."""
    path = Path(path)
    return loads_mnrl(path.read_text(), name=path.stem)


def dumps_mnrl(automaton: Automaton) -> str:
    """Serialize an automaton to an MNRL document string."""
    nodes = []
    for ste in automaton.states:
        node: dict = {
            "id": ste.label(),
            "type": "hState",
            "enable": _KIND_TO_ENABLE[ste.start],
            "report": ste.reporting,
            "attributes": {"symbolSet": ste.symbol_class.to_anml()},
            "inputDefs": [{"portId": "i", "width": 1}],
            "outputDefs": [
                {
                    "portId": "o",
                    "width": 1,
                    "activate": [
                        {"id": automaton.states[dst].label(), "portId": "i"}
                        for dst in sorted(automaton.successors(ste.ste_id))
                    ],
                }
            ],
        }
        if ste.reporting and ste.report_code is not None:
            node["attributes"]["reportId"] = ste.report_code
        nodes.append(node)
    # compact: without ``indent`` the C encoder writes the document
    return json.dumps(
        {"id": automaton.name, "nodes": nodes}, separators=(",", ":")
    )


def dump_mnrl(automaton: Automaton, path: str | Path) -> None:
    """Write an automaton to an MNRL file."""
    Path(path).write_text(dumps_mnrl(automaton))
