"""The benchmark's correctness gate and its own tree walks.

Every check here compares the library's output with a host-Python reference
from `workloads`; none of them uses the library to produce the expected
answer. Tree walks use an explicit stack so that they work on trees deeper
than the host stack.
"""

from __future__ import annotations

from stagelet.base import BaseAst, Name, VFun, VInt


def walk(tree):
    """Every node, name, clause tuple and literal of `tree`, in preorder."""
    stack = [tree]
    while stack:
        item = stack.pop()
        yield item
        if isinstance(item, BaseAst):
            stack.extend(getattr(item, f) for f in reversed(item.__dataclass_fields__))
        elif isinstance(item, tuple):
            stack.extend(reversed(item))


def count_nodes(tree):
    return sum(isinstance(item, BaseAst) for item in walk(tree))


def shape(tree):
    """`tree` with every name replaced by the order of its first occurrence:
    two trees whose names are each bound once have equal shapes exactly when
    they are equal up to renaming."""
    ids = {}
    out = []
    for item in walk(tree):
        if isinstance(item, Name):
            out.append(ids.setdefault(item, len(ids)))
        elif isinstance(item, BaseAst):
            out.append(type(item).__name__)
        elif isinstance(item, tuple):
            out.append(len(item))
        else:
            out.append(repr(item))
    return out


def as_ints(values):
    return [v.value if isinstance(v, VInt) else v for v in values]


def check_values(expected, values):
    """None when `values` are the integers `expected`, else the reason."""
    got = as_ints(values)
    for k, (g, e) in enumerate(zip(got, expected)):
        if g != e:
            return f"wrong answer: argument tuple {k} gave {g!r}, expected {e!r}"
    if len(got) != len(expected):
        return f"wrong answer: {len(got)} results for {len(expected)} argument tuples"
    return None


def check_tree(reference, tree):
    if reference is not None and shape(tree) != shape(reference):
        return "wrong answer: generated tree differs from the host-built reference"
    return None


def check_function(value):
    if not isinstance(value, VFun):
        return f"wrong answer: expected a function, got {value!r}"
    return None


def check_closed(free):
    if free:
        return f"wrong answer: free names {sorted(n.render() for n in free)[:4]}"
    return None
