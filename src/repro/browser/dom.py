"""A lightweight DOM tree.

The engines need the DOM for two things: node counts (layout, reflow and
redraw costs scale with tree size) and provenance (which object produced
which nodes, used by the feature extractor).  Nodes carry enough structure
— parent links, kinds, source objects — for tests to assert on the tree
shape, without simulating actual markup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.webpages.objects import ObjectKind


@dataclass
class DomNode:
    """One DOM node."""

    node_id: int
    kind: ObjectKind
    source_object_id: str
    parent: Optional["DomNode"] = None
    children: List["DomNode"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        depth, node = 0, self
        while node.parent is not None:
            depth += 1
            node = node.parent
        return depth


class DomTree:
    """DOM tree under construction while a page loads."""

    def __init__(self) -> None:
        self.root = DomNode(0, ObjectKind.HTML, source_object_id="#document")
        self._next_id = 1
        self._nodes: List[DomNode] = [self.root]
        self.nodes_by_object: Dict[str, int] = {}

    @property
    def node_count(self) -> int:
        """Total nodes including the document root."""
        return len(self._nodes)

    def add_subtree(self, source_object_id: str, kind: ObjectKind,
                    count: int, parent: Optional[DomNode] = None) -> \
            List[DomNode]:
        """Attach ``count`` nodes produced by one object.

        Nodes are attached as a shallow fan under ``parent`` (default: the
        document root) with every fourth node nesting one level deeper, a
        rough approximation of real markup depth.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        parent = parent or self.root
        added: List[DomNode] = []
        current_parent = parent
        for index in range(count):
            node = DomNode(self._next_id, kind, source_object_id,
                           parent=current_parent)
            self._next_id += 1
            current_parent.children.append(node)
            self._nodes.append(node)
            added.append(node)
            if (index + 1) % 4 == 0:
                current_parent = node
        self.nodes_by_object[source_object_id] = (
            self.nodes_by_object.get(source_object_id, 0) + count)
        return added
