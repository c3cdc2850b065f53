"""Weight vectors, permutations, subset tuples and the admissible row
tuples that drive the combinatorial pullback formula.

Weight vectors are plain tuples of non-negative integers; co(v) is
sum(v).  Permutations are tuples sigma with sigma[i] = image of 0-based
position i; the action on tuples, sigma(v)[sigma[i]] = v[i], is written
once, as mover(sigma, n).  A Young subgroup is the stabilizer of a
block-label vector, (0, 0, 1) for the blocks of sizes (2, 1).

Subset tuples are tuples of bitmasks, bit i for the element i, and have
no other form: their incidence components and first Betti numbers come
from one routine, mask_components, which the row-tuple search runs once
on the hats of each finished tuple (and yields with it) and the diagonal
check of `verify` on the tuples of its grid.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from functools import cache
from operator import itemgetter


# -- permutations ------------------------------------------------------------

def swap_entries(v, i: int, j: int):
    """v with its entries at the 1-based positions i and j exchanged."""
    w = list(v)
    w[i - 1], w[j - 1] = w[j - 1], w[i - 1]
    return tuple(w)


def transposition(n: int, i: int, j: int):
    """Transposition of 1-based positions i and j inside S_n."""
    return swap_entries(range(n), i, j)


@cache
def mover(sigma, n):
    """x -> sigma(x) on n-tuples, an itemgetter over sigma's inverse;
    ValueError unless sigma is a permutation of range(n).  Memoized per
    process and keyed by (sigma, n), so the check runs for each length."""
    if len(sigma) != n or set(sigma) != set(range(n)):
        raise ValueError("not a permutation of %d factors" % n)
    source = [0] * n
    for i, target in enumerate(sigma):
        source[target] = i
    return itemgetter(*source) if n > 1 else tuple


def apply_perm(sigma, v):
    return mover(tuple(sigma), len(v))(tuple(v))


def orbit_walk(v, labels=None):
    """The images of v under the permutations that keep each position's
    label (one per position; all of S_n when labels is None), each
    mapped to the lexicographically first permutation reaching it, in
    lexicographic order of those permutations.

    That permutation sends positions holding one (label, value) pair to
    increasing targets, so the walk gives position i any free target of
    its label after the target of the last earlier position holding its
    pair, and leaves enough targets after it for the later positions
    holding the pair.  When equal pairs sit next to each other, as in a
    decreasing vector or in decreasing blocks, no branch dead-ends, so
    the walk takes at most n steps per image.  The stack is explicit:
    sigma's prefix and the index of each target in its free list.
    """
    v = tuple(v)
    n = len(v)
    if labels is None:
        labels = (0,) * n
    elif len(labels) != n:
        raise ValueError("labels must have %d entries" % n)
    if not n:
        return {(): ()}
    keys = tuple(zip(labels, v))
    free = {}                # the free targets of each label
    for j, label in enumerate(labels):
        free.setdefault(label, []).append(j)
    frees = [free[label] for label in labels]
    after, last = [], {}     # after[i]: last earlier position holding keys[i]
    for i, key in enumerate(keys):
        after.append(last.get(key, -1))
        last[key] = i
    left, seen = [0] * n, {}  # left[i]: positions from i on holding keys[i]
    for i in range(n - 1, -1, -1):
        left[i] = seen[keys[i]] = seen.get(keys[i], 0) + 1
    tail = n - 1             # the last run of equal pairs starts here
    while tail and keys[tail - 1] == keys[-1]:
        tail -= 1
    rest, bound = frees[tail], after[tail]
    images = {}
    sigma, image = [0] * n, [0] * n
    picks = []               # index of each target in its free list
    i, k = 0, 0
    while True:
        if i < tail and k <= len(frees[i]) - left[i]:
            target = sigma[i] = frees[i].pop(k)
            image[target] = v[i]
            picks.append(k)
            i += 1
            if i < tail:
                a = after[i]
                k = bisect_right(frees[i], sigma[a]) if a >= 0 else 0
                continue
        if i == tail and (bound < 0 or rest[0] > sigma[bound]):
            # the last run takes the free targets left, in order
            for target in rest:
                image[target] = v[-1]
            images[tuple(image)] = tuple(sigma[:tail]) + tuple(rest)
        if not picks:
            return images
        i -= 1
        k = picks.pop()
        frees[i].insert(k, sigma[i])
        k += 1


# -- weight vectors ----------------------------------------------------------

def componentwise_leq(v, w) -> bool:
    return all(a <= b for a, b in zip(v, w))


def stabilizer(v):
    """All permutations fixing v, as a list (product of per-value groups).

    The benchmark and the tests pass such a listed group to
    pullback.invariant_letter_classes; the library itself passes weights,
    whose values serve as the position labels."""
    classes = {}
    for i, value in enumerate(v):
        classes.setdefault(value, []).append(i)
    positions = list(classes.values())
    members = []
    for parts in itertools.product(*(itertools.permutations(p) for p in positions)):
        sigma = [0] * len(v)
        for src_list, images in zip(positions, parts):
            for src, dst in zip(src_list, images):
                sigma[src] = dst
        members.append(tuple(sigma))
    return members


def decreasing_vectors(n: int, r, max_co: int):
    """Decreasing vectors of length n with entries < r (no bound when r is
    None) and co <= max_co, ordered by (co, entries)."""
    # (prefix, cap, budget) level by level, so no depth limit applies
    level = [((), max_co if r is None else min(r - 1, max_co), max_co)]
    for _ in range(n):
        level = [(prefix + (value,), value, budget - value)
                 for prefix, cap, budget in level
                 for value in range(min(cap, budget) + 1)]
    return sorted((prefix for prefix, _, _ in level), key=lambda v: (sum(v), v))


# -- subset tuples and their incidence combinatorics -------------------------

def mask_components(masks):
    """The connected components of a tuple of non-empty sets, each given
    as a bitmask, under the chain-intersection relation: a list of
    (members, union, b1), members the bitmask of the positions of its
    sets, union the bitmask of its ground elements and b1 the first Betti
    number of its incidence graph, edges (the sum of the set sizes) minus
    vertices (sets plus ground elements) plus one.

    One pass over the tuple: a set that meets no earlier set opens a
    component at once, and one that does merges the components it
    meets, so tuples of disjoint sets cost one step per set.  Components
    are listed in the order in which they were last extended."""
    comps, seen = [], 0     # comps: (members, union, edges); seen: their union
    for i, m in enumerate(masks):
        if not m:
            raise ValueError("empty subsets are not allowed")
        members, union, edges = 1 << i, m, m.bit_count()
        if m & seen:
            kept = []
            for comp in comps:
                if comp[1] & m:
                    members |= comp[0]
                    union |= comp[1]
                    edges += comp[2]
                else:
                    kept.append(comp)
            comps = kept
        comps.append((members, union, edges))
        seen |= m
    return [(members, union, edges - members.bit_count() - union.bit_count() + 1)
            for members, union, edges in comps]


def mask_elements(mask):
    """The elements of a bitmask, bit i for the element i, in order."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


# -- admissible row tuples ---------------------------------------------------

def admissible_row_tuples(v):
    """Row tuples L = (l_1, ..., l_n), l_j of length j, entering the
    combinatorial pullback formula at the orbit member v = sigma_v(u).

    Conditions: (i) the padded rows sum to v; (ii) every connected
    component of the incidence tuple has first Betti number <= 1; (iii) at
    each row j the partial sums l(j) = sum_{h<=j} l_h have pairwise
    distinct entries on the extended support of l_j, and the smaller entry
    of any pair is bounded by the previous partial sum at the larger
    position.

    Yields (rows, omega, components) per admitted tuple: omega[j - 1] =
    |l_j| - |hat_j| + 1 is row j's omega exponent, hat_j the support of
    l_j together with j, and components is the mask_components list of
    the hats that decided condition (ii).

    Deterministic: rows are filled from index n downwards, candidate
    entries in lexicographic order.  The search keeps an explicit stack of
    per-row candidate iterators, so no depth limit applies.  Each
    admitted row keeps its hat as a bitmask, so condition (ii) is one
    mask_components pass over the finished tuple.
    """
    target = tuple(v)
    n = len(target)

    def admissible(hat, rem_before, rem_after):
        for p, q in itertools.combinations(hat, 2):
            a, b = rem_before[p - 1], rem_before[q - 1]
            if a == b or min(a, b) > rem_after[(q if a < b else p) - 1]:
                return False
        return True

    def candidates(j, rem):
        """The admissible rows l_j, each with the remainder it leaves, its
        hat as a bitmask and its omega exponent.  A row takes nothing
        where nothing remains, so the product runs over the live
        positions only, in the lexicographic order of the whole row."""
        live = [i for i in range(j - 1) if rem[i]]
        for picks in itertools.product(*(range(rem[i] + 1) for i in live)):
            row, rem_after, hat, mask = [0] * j, list(rem), [j], 1 << j
            omega = rem[j - 1]     # |l_j| - |hat_j| + 1, hat_j = {j} so far
            for i, value in zip(live, picks):
                if value:
                    row[i] = value
                    rem_after[i] -= value
                    hat.append(i + 1)
                    mask |= 1 << (i + 1)
                    omega += value - 1
            row[j - 1], rem_after[j - 1] = rem[j - 1], 0
            if admissible(hat, rem, rem_after):
                yield tuple(row), tuple(rem_after), mask, omega

    rows, masks, omegas = [None] * n, [0] * n, [0] * n
    stack = []               # stack[k]: the untried candidates for row n - k
    j, rem = n, target
    while True:
        if j:
            stack.append(candidates(j, rem))
        else:
            components = mask_components(masks)
            if all(b1 <= 1 for _members, _union, b1 in components):
                yield tuple(rows), tuple(omegas), components
        while stack:
            step = next(stack[-1], None)
            if step is not None:
                break
            stack.pop()
        else:
            return
        j = n - len(stack)   # the top fills row j + 1; row j comes next
        rows[j], rem, masks[j], omegas[j] = step
