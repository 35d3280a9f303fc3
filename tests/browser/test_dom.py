"""DOM tree construction."""

import pytest

from repro.browser.dom import DomTree
from repro.webpages.objects import ObjectKind
from tests.oracles.readouts import max_depth


def test_empty_tree_has_document_root():
    tree = DomTree()
    assert tree.node_count == 1
    assert tree.root.parent is None


def test_add_subtree_counts_nodes():
    tree = DomTree()
    tree.add_subtree("page/index.html", ObjectKind.HTML, 12)
    assert tree.node_count == 13
    assert tree.nodes_by_object["page/index.html"] == 12


def test_add_subtree_accumulates_per_object():
    tree = DomTree()
    tree.add_subtree("o", ObjectKind.HTML, 5)
    tree.add_subtree("o", ObjectKind.HTML, 3)
    assert tree.nodes_by_object["o"] == 8


def test_zero_nodes_is_noop():
    tree = DomTree()
    tree.add_subtree("o", ObjectKind.JS, 0)
    assert tree.node_count == 1


def test_negative_count_rejected():
    tree = DomTree()
    with pytest.raises(ValueError):
        tree.add_subtree("o", ObjectKind.JS, -1)


def test_nesting_creates_depth():
    tree = DomTree()
    tree.add_subtree("o", ObjectKind.HTML, 20)
    assert max_depth(tree) >= 3  # every 4th node nests a level


def test_nodes_track_source_and_kind():
    tree = DomTree()
    added = tree.add_subtree("style.css", ObjectKind.CSS, 2)
    assert all(n.source_object_id == "style.css" for n in added)
    assert all(n.kind is ObjectKind.CSS for n in added)


def test_children_linked_to_parents():
    tree = DomTree()
    added = tree.add_subtree("o", ObjectKind.HTML, 6)
    for node in added:
        assert node in node.parent.children
