"""Level-by-level positive root enumeration from a square pairing matrix.

The default rule is the crystallographic root-string condition: a
candidate beta + e_j is accepted iff p - <beta, j> >= 1, where p is the
largest m >= 0 with beta - m*e_j already found and <beta, j> is
2*(A*beta)_j / A_jj (normalized-pairing) or (A*beta)_j (raw-pairing).
All comparisons are exact.

The pair-coupling mode instead accepts a candidate iff its support is
connected in the coupling graph of nonzero off-diagonal entries and it
is not a multiple of a single generator.  This reproduces the behavior
of bracket generation where [x_i, x_j] = 0 exactly when the (i, j)
pairing entry vanishes and no other relation truncates a string.

Every root list holds one record per root; event_listing gives one row per event.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

from .field import GoldenExt, _frozen
from .matrix import ExactMatrix

MODES = ("normalized-pairing", "raw-pairing", "pair-coupling")
# the default bound on the roots of one enumeration (`roots --max-roots`)
MAX_ROOTS = 10_000


class EnumerationRule:
    __slots__ = ("mode", "max_height", "max_roots")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, mode: str = "normalized-pairing", max_height: int = 10,
                 max_roots: int = MAX_ROOTS) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
        if max_height < 1:
            raise ValueError("max_height must be at least 1")
        if max_roots < 1:
            raise ValueError("max_roots must be at least 1")
        for slot, value in zip(self.__slots__, (mode, max_height, max_roots)):
            object.__setattr__(self, slot, value)

    def __reduce__(self):
        return type(self), (self.mode, self.max_height, self.max_roots)


class RootRecord(NamedTuple):
    coeffs: tuple[int, ...]
    height: int
    weight: tuple[GoldenExt, ...]
    parents: tuple[tuple[int, int], ...]  # (index of parent record, simple root added)


def enumerate_roots(A: ExactMatrix, rule: EnumerationRule) -> list[RootRecord]:
    """All accepted positive roots with height <= rule.max_height.

    More than rule.max_roots roots raise ValueError naming the height.
    One record per root, sorted by (height, coeffs).  A root reached
    along several one-step extensions lists every (parent index, simple
    root) acceptance event, sorted; event_listing gives one row per event.

    Each root's weight A*beta is carried from the parent that first
    reaches it: weight(beta + e_j) = weight(beta) + column j of A.
    """
    n = A.n
    scale: list[GoldenExt] = []
    if rule.mode == "normalized-pairing":
        for j in range(n):
            if not A[j][j]:
                raise ValueError(
                    f"zero diagonal at {j}: normalized-pairing undefined, use raw-pairing"
                )
        scale = [2 / A[j][j] for j in range(n)]
    adjacency = [{j for j in range(n) if j != i and (A[i][j] or A[j][i])} for i in range(n)]
    columns = [tuple(A[i][j] for i in range(n)) for j in range(n)]

    if n > rule.max_roots:  # the simple roots alone pass the bound
        raise ValueError(f"enumeration passed max_roots={rule.max_roots} at height 1")
    simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    weight: dict[tuple[int, ...], tuple[GoldenExt, ...]] = dict(zip(simple, columns))
    # events[coeffs] = list of (parent coeffs, j) acceptances, [] for simple roots
    events: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {c: [] for c in simple}
    layers = [sorted(simple)]  # layers[h - 1] holds the roots of height h, sorted

    while len(layers) < rule.max_height:
        next_layer: list[tuple[int, ...]] = []
        for beta in layers[-1]:
            w_beta = weight[beta]
            support = [i for i in range(n) if beta[i]]
            for j in range(n):
                if rule.mode == "pair-coupling":
                    if len(support) == 1:
                        accepted = j != support[0] and j in adjacency[support[0]]
                    else:
                        accepted = beta[j] > 0 or any(j in adjacency[s] for s in support)
                else:
                    pairing = w_beta[j] * scale[j] if scale else w_beta[j]
                    p = 0  # the largest m with beta - m*e_j already found
                    while p < beta[j] and beta[:j] + (beta[j] - p - 1,) + beta[j + 1:] in weight:
                        p += 1
                    # accept iff p - pairing >= 1, decided exactly
                    accepted = (pairing - (p - 1)).sign() <= 0
                if not accepted:
                    continue
                cand = beta[:j] + (beta[j] + 1,) + beta[j + 1:]
                if cand not in events:
                    if len(events) == rule.max_roots:
                        raise ValueError(f"enumeration passed max_roots={rule.max_roots} "
                                         f"at height {len(layers) + 1}")
                    events[cand] = []
                    weight[cand] = tuple(w + a for w, a in zip(w_beta, columns[j]))
                    next_layer.append(cand)
                events[cand].append((beta, j))
        if not next_layer:
            break
        layers.append(sorted(next_layer))

    index = {c: pos for pos, c in enumerate(c for layer in layers for c in layer)}
    return [
        RootRecord(c, h, weight[c], tuple(sorted((index[p], j) for p, j in events[c])))
        for h, layer in enumerate(layers, 1)
        for c in layer
    ]


def event_listing(records: Sequence[RootRecord]) -> list[RootRecord]:
    """One row per acceptance event, as a generator-by-generator construction
    lists them: a simple root keeps its one parentless row, and each parent
    index points at the first row of that parent."""
    first_row: list[int] = []
    rows: list[RootRecord] = []
    for rec in records:
        first_row.append(len(rows))
        rows += [rec._replace(parents=((first_row[p], j),)) for p, j in rec.parents] or [rec]
    return rows


def signed_images(records: Sequence[RootRecord], rows: Sequence[Sequence]) -> list[tuple]:
    """For each record, sum_i c_i * rows[i] followed by its negative.

    One pair per record in record order; callers sort as they need.
    """
    images: list[tuple] = []
    for rec in records:
        terms = [(c, rows[i]) for i, c in enumerate(rec.coeffs) if c]
        v = tuple(sum(c * row[k] for c, row in terms) for k in range(len(rows[0])))
        images += (v, tuple(-x for x in v))
    return images


def hasse_edges(records: list[RootRecord]) -> list[tuple[int, int, int]]:
    """Cover relations (parent index, child index, simple root index).

    Indices refer to the records; an edge exists iff both beta and
    beta + e_j are present, whether or not beta + e_j was accepted from beta.
    """
    index = {r.coeffs: i for i, r in enumerate(records)}
    edges = []
    for ci, r in enumerate(records):
        for j in range(len(r.coeffs)):
            if r.coeffs[j] == 0:
                continue
            parent = tuple(c - (1 if k == j else 0) for k, c in enumerate(r.coeffs))
            pi = index.get(parent)
            if pi is not None:
                edges.append((pi, ci, j))
    edges.sort()
    return edges


def emit_hasse_dot(records: list[RootRecord]) -> str:
    """Graphviz DOT of the Hasse diagram, layered by height.

    Nodes are named r<height>_<k> with k the lexicographic position of
    the root inside its height layer.
    """
    names: dict[tuple[int, ...], str] = {}
    per_height: dict[int, int] = {}
    for r in records:
        k = per_height.get(r.height, 0)
        per_height[r.height] = k + 1
        names[r.coeffs] = f"r{r.height}_{k}"
    lines = ["digraph hasse {", "  rankdir=BT;", '  node [shape=box, fontname="monospace"];']
    for h in sorted(per_height):
        members = [r for r in records if r.height == h]
        decls = " ".join(
            f'{names[r.coeffs]} [label="{" ".join(str(c) for c in r.coeffs)}"];'
            for r in members
        )
        lines.append(f"  {{ rank=same; {decls} }}")
    for pi, ci, _ in hasse_edges(records):
        lines.append(f"  {names[records[pi].coeffs]} -> {names[records[ci].coeffs]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


E8_POSITIVE_COUNT = 120


def summarize(records: list[RootRecord]) -> dict[str, object]:
    """Counts by height plus the E8 reference comparison.

    The reference count 120 is the number of positive roots of E8; the
    summary records whether the total and the cumulative count through
    height 8 reach it.
    """
    by_height: dict[int, int] = {}
    for r in records:
        by_height[r.height] = by_height.get(r.height, 0) + 1
    cumulative: dict[int, int] = {}
    running = 0
    for h in sorted(by_height):
        running += by_height[h]
        cumulative[h] = running
    cum8 = sum(c for h, c in by_height.items() if h <= 8)
    return {
        "total": len(records),
        "max_height": max(by_height) if by_height else 0,
        "by_height": by_height,
        "cumulative": cumulative,
        "cumulative_through_8": cum8,
        "distinct_coeff_count": len(records),
        "distinct_weight_count": len({r.weight for r in records}),
        "weights_all_integer": all(w.is_integer() for r in records for w in r.weight),
        "e8_reference": E8_POSITIVE_COUNT,
        "total_matches_e8": len(records) == E8_POSITIVE_COUNT,
        "cumulative_8_matches_e8": cum8 == E8_POSITIVE_COUNT,
    }


def emit_csv(records: list[RootRecord]) -> str:
    """Deterministic CSV listing: index, height, coeffs, weight, parents."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "height", "coeffs", "weight", "parents"])
    for i, r in enumerate(records):
        writer.writerow(
            [
                i,
                r.height,
                " ".join(str(c) for c in r.coeffs),
                "; ".join(str(w) for w in r.weight),
                "; ".join(f"{p}+e{j}" for p, j in r.parents),
            ]
        )
    return buf.getvalue()
