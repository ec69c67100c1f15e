"""Label algebra, orbit-space quotients, small backtracking searches, and
the one route of the generator certificates (law_failures).

Tuple labels "(a,b,...)" and class labels "{rep}" are built and read only
here: pair/unpair and cls_label/strip_class."""

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


# the type of a dict's keys view, the type of every label set
_DICT_KEYS = type({}.keys())


def labelset(xs):
    """xs as a label set: a set-like view (O(1) `in` and `len`; `==`, `&`,
    `|` and `-` against sets) that iterates in label order.  This is the only
    place that fixes the order, so no witness depends on the hash seed.  A
    dict's keys view is taken to be a label set already and returned as is;
    its type is tested exactly, since an isinstance test against the
    KeysView ABC costs ten times as much on a path that runs dozens of
    times per construction.  Any other input is sorted into a new one."""
    if type(xs) is _DICT_KEYS:
        return xs
    return dict.fromkeys(sorted(set(xs))).keys()


def law_failures(law, certificate, every):
    """The violations of a law at its failing instances, as a list.  law
    lists them among the instances that its arguments name: every, a
    tuple of arguments, names all of them, and certificate the generator
    instances, which decide the law (each checker's docstring proves it),
    or is None when no certificate runs.  When law finds no failure among
    those the result is [] at once; it stops at the first failure, and
    then, as when it does not run, law sweeps every instance, so the
    violations and their order do not depend on the route."""
    if certificate is not None and next(law(*certificate), None) is None:
        return []
    return list(law(*every))


def cls_label(rep):
    """Canonical label for a quotient class: its lexicographically least member."""
    return "{" + rep + "}"


def strip_class(label):
    """Inverse of cls_label: the representative inside the braces.
    Raises CoherenceFailure on a label that is not a class label."""
    if label[:1] != "{" or label[-1:] != "}":
        raise CoherenceFailure(("not a class label", label))
    return label[1:-1]


def quotient(members, links):
    """The classes of members under the equivalence that links generate.

    members maps each member label to the parts it was built from (the
    tuple with pair(*parts) == label) or to the label itself; links holds
    (label, label) pairs to glue.  The labels are numbered in label order
    and glued by union-find on the numbers, the larger root under the
    smaller, so a class's least number is its least label.  Returns
    (class_of, reps): class_of maps each member, in the order of members,
    to cls_label(least member); reps maps each class label, in class-label
    order, to the parts of its least member.  No label is parsed, so a
    label may contain any character."""
    order = sorted(members)
    number = {lab: k for k, lab in enumerate(order)}
    root = list(range(len(order)))
    # every number points at itself or at a smaller one
    for a, b in links:
        ra, rb = number[a], number[b]
        while root[ra] != ra:
            root[ra] = ra = root[root[ra]]
        while root[rb] != rb:
            root[rb] = rb = root[root[rb]]
        if ra < rb:
            root[rb] = ra
        elif rb < ra:
            root[ra] = rb
    name, reps = [], {}
    for k, lab in enumerate(order):
        # the smaller numbers already point at their roots
        r = root[k] = root[root[k]]  # r <= k: a class is named at its least member
        if r < k:
            name.append(name[r])
        else:
            name.append(cls_label(lab))
            reps[name[k]] = members[lab]
    return ({lab: name[number[lab]] for lab in members},
            dict(sorted(reps.items())))


def bijections(xs, ys, candidates, consistent, node_cap=10**6):
    """The bijections f: xs -> ys, by backtracking, in search order.

    candidates(x) yields allowed images; consistent(partial, x, y) may veto
    an assignment given the partial map built so far.  Each yielded dict is
    a fresh copy.  Raises SizeLimitExceeded after node_cap explored nodes,
    counted over the whole enumeration.
    """
    xs = list(xs)
    ys = set(ys)
    if len(xs) != len(ys):
        return
    assignment = {}
    used = set()
    nodes = 0

    def extend(i):
        nonlocal nodes
        if i == len(xs):
            yield dict(assignment)
            return
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
            yield from extend(i + 1)
            del assignment[x]
            used.discard(y)

    yield from extend(0)


def search_bijection(xs, ys, candidates, consistent, node_cap=10**6):
    """The first of bijections(...), or None."""
    return next(bijections(xs, ys, candidates, consistent, node_cap), None)
