"""Label algebra, union-find quotients, and small backtracking searches.

Tuple labels "(a,b,...)" and class labels "{rep}" are built and read only
here: pair/unpair and cls_label/strip_class."""

from collections.abc import KeysView
from functools import lru_cache

from .errors import CoherenceFailure, SizeLimitExceeded


def pair(*parts):
    """Canonical label for a tuple of labels. Deterministic and re-parseable
    as a single GDF token (no whitespace, '.', or '=')."""
    return "(" + ",".join(parts) + ")"


@lru_cache(maxsize=1 << 18)
def unpair(label, n=None):
    """Inverse of pair for labels with balanced bracket nesting; with n,
    the label must have exactly n parts.  Pass n positionally, so that one
    label and arity share one cache entry; the checks run on a miss only.
    Raises CoherenceFailure on a label that is not a tuple label."""
    if label[:1] != "(" or label[-1:] != ")":
        raise CoherenceFailure(("not a tuple label", label))
    parts, depth, cur = [], 0, []
    for ch in label[1:-1]:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        cur.append(ch)
    parts.append("".join(cur))
    if n is not None and len(parts) != n:
        raise CoherenceFailure(("expected a tuple label of arity", n, label))
    return tuple(parts)


def labelset(xs):
    """xs as a label set: a set-like view (O(1) `in` and `len`; `==`, `&`,
    `|` and `-` against sets) that iterates in label order.  This is the only
    place that fixes the order, so no witness depends on the hash seed.  A
    keys view is taken to be a label set already and returned as is."""
    if isinstance(xs, KeysView):
        return xs
    return dict.fromkeys(sorted(set(xs))).keys()


def cls_label(rep):
    """Canonical label for a quotient class: its lexicographically least member."""
    return "{" + rep + "}"


def strip_class(label):
    """Inverse of cls_label: the representative inside the braces.
    Raises CoherenceFailure on a label that is not a class label."""
    if label[:1] != "{" or label[-1:] != "}":
        raise CoherenceFailure(("not a class label", label))
    return label[1:-1]


class UnionFind:
    """Union-find over label strings; class representative is the
    lexicographically least member, so quotient output is bit-stable."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def classes(self):
        by_root = {}
        for x in self.parent:
            by_root.setdefault(self.find(x), []).append(x)
        return {min(members): sorted(members) for members in by_root.values()}

    def class_map(self):
        """item -> representative (lexicographic least of its class)."""
        out = {}
        for rep, members in self.classes().items():
            for m in members:
                out[m] = rep
        return out


def search_bijection(xs, ys, candidates, consistent, node_cap=10**6):
    """Backtracking search for a bijection f: xs -> ys.

    candidates(x) yields allowed images; consistent(partial, x, y) may veto an
    assignment given the partial map built so far. Returns a dict or None.
    Raises SizeLimitExceeded after node_cap explored nodes.
    """
    xs = list(xs)
    ys = set(ys)
    if len(xs) != len(ys):
        return None
    assignment = {}
    used = set()
    nodes = 0

    def extend(i):
        nonlocal nodes
        if i == len(xs):
            return True
        x = xs[i]
        for y in candidates(x):
            nodes += 1
            if nodes > node_cap:
                raise SizeLimitExceeded("bijection search nodes", nodes, node_cap)
            if y in used or y not in ys:
                continue
            if not consistent(assignment, x, y):
                continue
            assignment[x] = y
            used.add(y)
            if extend(i + 1):
                return True
            del assignment[x]
            used.discard(y)
        return False

    return dict(assignment) if extend(0) else None
