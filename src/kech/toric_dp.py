"""Dynamic programs over concave lattice paths for the h = 0 toric capacity.

A convex generator's classes (a, -b) come in steepness order, and t copies
of (a, b) appended at width x add t(2bx + 1 + a + b) + ab t^2 to the doubled
count D of lattice points enclosed by the path and the axes.  The increment
depends on the width alone, never on the height, so the least action of
every (x, D) over all class lists in steepness order is one forward sweep;
the all-elliptic generators of grading 2k are the lists ending at
D = 2k + 2.  Read from the steep end, with a and b swapped, the same sweep
gives the least action of every suffix (y, D_s), and a prefix (x, D) joined
to a suffix (y, D_s) encloses D + D_s - 2 + 2xy doubled points.  The suffix
sweep therefore bounds from below the action of every completion of a
prefix state, and a depth-first search over class lists is replayed over
only the states near the optimum, to pick the witness it would pick.

``toric_capacity_detail`` gives c_k and its witness: it hands ``replay``
the class pool and the seeds of ``kech.toric`` at grading 2k.
"""

from __future__ import annotations

from itertools import chain
from math import inf

from .toric import (
    EMPTY_CONVEX,
    INCUMBENT_GAP,
    CgClass,
    ConvexGenerator,
    ToricDomain,
    _pool_by_height,
    _seed_action,
    _seed_classes,
)

#: Margin above the optimum within which replay's first pass keeps every state.
MARGIN = 1e-6


def sweep(moves, roof: int, bound: float, other=None):
    """Least action of every state (x, D) over class lists in the order moves.

    moves lists (a, b, cost).  From (0, 2) at action 0, t copies of (a, b) at
    width x lead to (x + at, D + t(2bx + 1 + a + b) + ab t^2) and add
    t * cost, the float operation of the search, so a state's entry is the
    least action the search can carry into it.  States with D > roof or
    action > bound are dropped.  Returns layers with layers[x] = {D: action}.

    D >= 2x + 2 (the axis points alone), which bounds x and lets a class
    skip every layer where even its t = 1 move overshoots.  Layers are
    walked from the widest down, so a class with a >= 1 only writes layers
    it has already passed; a class with a = 0 writes its own layer and reads
    a snapshot of it.

    other, when given, is the sweep of the same classes from the other end;
    a state is then also dropped when its action plus the least action of
    any completion in other exceeds bound.
    """
    layers = [{} for _ in range(roof // 2)]
    layers[0][2] = 0.0
    rest = {}  # least completion of each state met, when other is given
    top = 0
    for a, b, cost in moves:
        if cost > bound:
            continue
        lin0 = 1 + a + b
        ab = a * b
        fit = (roof - 3 - a - b - ab) // (2 * b + 2)
        for x in range(min(top, fit), -1, -1):
            layer = layers[x]
            lin = 2 * b * x + lin0
            for doubled, act in (list(layer.items()) if a == 0 else layer.items()):
                t = 1
                while True:
                    nd = doubled + t * lin + ab * t * t
                    nact = act + t * cost
                    if nd > roof or nact > bound:
                        break
                    nx = x + a * t
                    if other is not None:
                        key = nx * (roof + 1) + nd
                        if key not in rest:
                            rest[key] = least_completion(other, nx, roof + 2 - nd)
                        if nact + rest[key] > bound:
                            t += 1
                            continue
                    row = layers[nx]
                    old = row.get(nd)
                    if old is None or nact < old:
                        row[nd] = nact
                    t += 1
                if x + a * (t - 1) > top:
                    top = x + a * (t - 1)
    return layers


def least_completion(layers, y: int, need: int) -> float:
    """Least action of the states (x, need - 2xy) in layers.

    With need = roof + 2 - D, these are the states of one sweep that join a
    state (y, D) of the other sweep into a list ending at D = roof.
    """
    least = inf
    x = 0
    while need - 2 * x * y >= 2 * x + 2:
        act = layers[x].get(need - 2 * x * y)
        if act is not None and act < least:
            least = act
        x += 1
    return least


def completion_bound(moves, roof: int, prefix, incumbent: float, margin: float):
    """(cutoff, suffix) for class lists in steepness order ending at D = roof.

    prefix is the sweep of moves up to incumbent + 2 * MARGIN, with
    incumbent the action of some such list.  Its least action at D = roof
    is the optimum v*, and cutoff = v* + margin.  C(x, D) = min over y of
    S(y, roof + 2 - D - 2xy), with S the suffix sweep (least_completion),
    is at most the action of any completion of the prefix state (x, D).  A
    list of action within the cutoff passes only through prefix states
    whose least action plus C(x, D) is within the cutoff.  The prefix sweep
    drops states above incumbent + 2 * MARGIN, and the suffix sweep those
    whose action plus their least completion in the prefix sweep exceeds
    min(cutoff + margin, incumbent + 2 * MARGIN).  No list of action at
    most the incumbent passes through a dropped state, nor, at margin =
    MARGIN, any list within the cutoff: v* is at most the incumbent, so
    both bounds lie about MARGIN above the cutoff, and the first one is the
    smaller up to rounding.  At margin = inf the sweeps keep every state
    that a list of action at most the incumbent passes through.
    """
    cutoff = min(layer[roof] for layer in prefix if roof in layer) + margin
    suffix = sweep([(b, a, cost) for a, b, cost in reversed(moves)], roof,
                   min(cutoff + margin, incumbent + 2 * MARGIN), prefix)
    return cutoff, suffix


def replay(moves, roof: int, seeds):
    """The h = 0 search's answer, from a replay over the states near its optimum.

    moves yields (a, b, cost) in the search's child order: horizontal, sloped
    by height then width, vertical.  seeds lists the (classes, action) the
    search offers before it starts, in its order.  The search
    (``tests/_naive.py::naive_min_action_search``, a copy kept as oracle)
    offers the seeds, then walks class lists depth first: children in the
    order of moves, each strictly steeper than the last class and with
    t = 1, 2, ...  A child is visited when its doubled count is at most roof
    and its action u is below the incumbent minus INCUMBENT_GAP; a list
    ending at D = roof becomes the incumbent when its action is below the
    incumbent minus INCUMBENT_GAP.  The replay walks the same tree in the
    same order with one more condition: the child's state is in the prefix
    sweep and its least action there plus its bound C (see completion_bound)
    is within the cutoff, and so is u + C.  Every list below a child that
    fails it has action above cutoff - s, with s the rounding between
    summing a list's costs in two orders (under 1e-11 for actions up to
    1e3; the argument needs s + INCUMBENT_GAP < 2e-9).  The replay also
    skips a child when u + C exceeds its incumbent plus 2e-9: every list
    below it costs more than
    the incumbent + 2e-9 - s, so none could become the incumbent.  A class
    dearer than the least seed's action + 2 * MARGIN lies on no list either
    sweep keeps, and is dropped.

    The replay returns the search's answer.  Call a list deep when its
    action is at most cutoff - 2e-9; the optimum, MARGIN below the cutoff,
    is deep.  Suppose the replay offers no list within 2e-9 of the cutoff.
    Before the first deep list in offer order its incumbents then lie above
    cutoff + 2e-9, so it visits every list at or below cutoff - s; as none
    of those lies within 2e-9 of the cutoff, the search's incumbents before
    it lie above cutoff - s too.  Both take the first deep list.  From it on
    both hold the same incumbent and make the same moves, since every list
    the replay skips lies more than INCUMBENT_GAP above it.  The argument reads
    the band within 2e-9 of the cutoff only before the first deep list;
    there the incumbent lies above cutoff + 2e-9, so the test against the
    incumbent skips only lists above cutoff + 4e-9 - s, outside the band,
    and the check still sees every list in it.  Past the first deep list
    that test skips the lists near the cutoff that would otherwise call
    for a second pass.

    When the first pass does offer a list within 2e-9 of its cutoff, the
    replay runs once more with the cutoff at infinity, and u + C never
    exceeds it.  Past its seeds the search offers no list at or above the
    least seed's action, and every state that a list below it passes
    through is then kept; a state's entry in the prefix sweep is at most
    the action u of any list that reaches it, summed in the same order.  So
    the second walk is the search's own tree in its order, less subtrees in
    which no list can become the incumbent, and its answer the search's
    answer.

    Returns (action, classes) with classes the winning [(a, b, t)].
    """
    incumbent = min(u for _, u in seeds)
    order = [move for move in moves if move[2] <= incumbent + 2 * MARGIN]
    steep = sorted(order, key=lambda move: move[1] / move[0] if move[0] else inf)
    prefix = sweep(steep, roof, incumbent + 2 * MARGIN)
    for margin in (MARGIN, inf):
        cutoff, suffix = completion_bound(steep, roof, prefix, incumbent, margin)
        bounds = [{} for _ in prefix]  # C(x, D) of each prefix state met
        kids = [{} for _ in prefix]  # the kept children of each state walked

        def children(x, doubled):
            """[(a, b, t, step, x', D', C(x', D'))] of the kept children of
            (x, D), in the search's order."""
            out = kids[x][doubled] = []
            budget = cutoff - prefix[x][doubled]
            for a, b, cost in order:
                lin = 2 * b * x + 1 + a + b
                t = 1
                while t * cost <= budget:
                    nd = doubled + t * lin + a * b * t * t
                    if nd > roof:
                        break
                    nx = x + a * t
                    act = prefix[nx].get(nd)
                    if act is not None:
                        try:
                            least = bounds[nx][nd]
                        except KeyError:
                            least = bounds[nx][nd] = least_completion(
                                suffix, nx, roof + 2 - nd)
                        if act + least <= cutoff:
                            out.append((a, b, t, t * cost, nx, nd, least))
                    t += 1
            return out

        best = inf
        found = None
        near = False

        def offer(used, chosen):
            nonlocal best, found, near
            if cutoff - 2e-9 < used <= cutoff + 2e-9:
                near = True
            if used < best - INCUMBENT_GAP:
                best = used
                found = list(chosen)

        def walk(x, doubled, last_a, last_b, used, chosen):
            if doubled == roof:
                offer(used, chosen)
                return
            if not last_a:
                return  # no class is strictly steeper than the vertical one
            try:
                out = kids[x][doubled]
            except KeyError:
                out = children(x, doubled)
            for a, b, t, step, nx, nd, least in out:
                if b * last_a <= last_b * a:
                    continue
                new_used = used + step
                least += new_used
                if (new_used >= best - INCUMBENT_GAP or least > cutoff
                        or least > best + 2e-9):
                    continue
                chosen.append((a, b, t))
                walk(nx, nd, a, b, new_used, chosen)
                chosen.pop()

        for classes, action in seeds:
            offer(action, classes)
        walk(0, 2, 1, -1, 0.0, [])  # the root (0, 2), below horizontal
        if not near:
            break
    return best, found


def toric_capacity_detail(domain: ToricDomain, k: int):
    """Action-minimizing all-elliptic convex generator of grading 2k."""
    if k < 0:
        raise ValueError("capacity index must be nonnegative")
    if k == 0:
        return 0.0, EMPTY_CONVEX
    i_target = 2 * k
    seeds = [(c, _seed_action(domain, c)) for c in _seed_classes(i_target)]
    # every class of the pool in the search's child order, read once by replay
    moves = chain([(1, 0, domain.support(0.0, 1.0))],
                  ((a, b, cost) for b, alist, costs, _, _ in _pool_by_height(domain, i_target)
                   for a, cost in zip(alist, costs)),
                  [(0, 1, domain.support(1.0, 0.0))])
    value, classes = replay(moves, i_target + 2, seeds)
    if classes is None:
        raise AssertionError("toric capacity search lost its own seed family")
    return value, ConvexGenerator(tuple(CgClass(a, b, t, False) for a, b, t in classes))
