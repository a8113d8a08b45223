"""Verification of candidate patterns against the instance data.

Candidates (feature cliques) are processed largest first.  A candidate's
table instance is defined by its pair tables: the canonically first feature
acts as the anchor, its instances common to every anchor pair table seed the
rows, and a row survives only if every remaining feature pair is itself a
pair-table row.  Verification counts those rows and collects each feature's
participating instances without building the rows, reading pair tables that
are coded and indexed once per run.  Candidates whose
participation index passes the threshold are accepted unless an accepted
pattern already contains them; failed candidates of size three or more
decompose into their one-smaller sub-cliques, which join the queue.

One optional shortcut never changes the outcome: participation ratios can be
bounded from above before the rows are counted, aborting hopeless
candidates early.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, groupby
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .model import DynamicFeature, DynamicInstance, FeatureClique, MiningConfig, Pattern
from .size2 import FeatureCounts, TableInstance, meets_min_prev, passes_prevalence


@dataclass(frozen=True)
class PatternResult:
    pattern: Pattern
    dpi: float
    row_count: int
    maximal: bool


@dataclass
class VerifyStats:
    """Counters and the per-candidate ratio log of one verification run."""

    verified: int = 0
    early_aborts: int = 0
    subsumed_skips: int = 0
    decomposed: int = 0
    # rows summed over every fully verified candidate
    rows_counted: int = 0
    # (pattern, feature -> participation ratio) for every fully verified table
    ratio_log: list[tuple[Pattern, dict[DynamicFeature, float]]] = field(default_factory=list)
    # Always 0: the shared sub-clique pre-check is gone, but perfbench/traced.py
    # still reads these.  Class attributes, not fields, so no manifest shows them.
    shared_checks = shared_skips = 0

    def as_manifest_entries(self) -> dict[str, int]:
        return {
            "verified_candidates": self.verified,
            "early_aborts": self.early_aborts,
            "subsumed_skips": self.subsumed_skips,
            "decompositions": self.decomposed,
            "rows_counted": self.rows_counted,
        }


class _PairIndex:
    """Pair tables coded and indexed once per run.

    Instances get small integer codes, one numbering shared by every table,
    so the joins intersect plain int sets instead of hashing instances per
    combination.  Each table is indexed the first time a candidate uses it.
    """

    def __init__(self, size2: Mapping[Pattern, TableInstance]):
        self.size2 = size2
        self.insts: list[DynamicInstance] = []  # code -> instance
        self._codes: dict[DynamicInstance, int] = {}
        self._partners: dict[Pattern, dict[int, frozenset[int]]] = {}

    def _code(self, inst: DynamicInstance) -> int:
        c = self._codes.get(inst)
        if c is None:
            c = self._codes[inst] = len(self.insts)
            self.insts.append(inst)
        return c

    def partners(self, pair: Pattern) -> dict[int, frozenset[int]]:
        """Code of each first-column instance of the pair's table -> codes
        of its second-column partners."""
        partners = self._partners.get(pair)
        if partners is None:
            code = self._code
            # rows are sorted, so each first-column instance's rows are adjacent
            partners = self._partners[pair] = {
                code(a): frozenset(code(b) for _, b in rows)
                for a, rows in groupby(_pair_table(pair, self.size2).rows, itemgetter(0))
            }
        return partners


_NO_PARTNERS: frozenset[int] = frozenset()


def _narrow(
    adjacency: dict[tuple[int, int], dict[int, frozenset[int]]],
    level: int,
    c: int,
    allowed: list[frozenset[int]],
) -> list[frozenset[int]] | None:
    """Choices left at every deeper level once `c` is picked at `level`;
    None when some deeper level has none.  Entries up to `level` are unused
    placeholders, so the list stays indexed by level."""
    narrowed = [_NO_PARTNERS] * (level + 1)
    for j in range(level + 1, len(allowed)):
        nxt = allowed[j] & adjacency[(level, j)].get(c, _NO_PARTNERS)
        if not nxt:
            return None
        narrowed.append(nxt)
    return narrowed


@dataclass(frozen=True)
class CandidateSummary:
    """What prevalence needs of a candidate's table instance: its row count
    and each feature's participating instances, without the rows."""

    pattern: Pattern
    row_count: int
    projections: dict[DynamicFeature, frozenset[DynamicInstance]]

    def ratios(self, counts: Mapping[DynamicFeature, int]) -> dict[DynamicFeature, float]:
        """Participation ratio per feature, 0.0 for a feature without instances."""
        out = {}
        for f in self.pattern.features:
            total = counts.get(f, 0)
            out[f] = len(self.projections[f]) / total if total else 0.0
        return out


def candidate_summary(
    clique: FeatureClique, size2: Mapping[Pattern, TableInstance]
) -> CandidateSummary:
    """Row count and projections of the candidate's table instance.

    A pair reads them off its pair table.  A larger candidate runs an
    anchor-seeded backtracking that never picks at the last level: once the
    earlier levels are chosen, each instance still allowed there completes
    exactly one row, so the set's size adds to the count and its members
    join the last feature's participants.  An earlier choice, or an anchor
    instance, participates only when it completes at least one row.  Memory
    stays linear in the pair tables however many rows the candidate has.
    """
    return _summarize(clique, _PairIndex(size2))


def _summarize(clique: FeatureClique, index: _PairIndex) -> CandidateSummary:
    if clique.size == 2:
        table = _pair_table(clique, index.size2)
        return CandidateSummary(
            clique, len(table), {f: table.projection(f) for f in clique.features}
        )
    return _count_rows(clique, index, *_anchor_side(clique, index))


def _anchor_side(
    clique: FeatureClique, index: _PairIndex
) -> tuple[list[dict[int, frozenset[int]]], set[int]]:
    """The anchor tables' partner maps, and the anchor codes partnered in
    every one of them.  The anchor sorts first, so it is the first column
    of every anchor table."""
    anchor, *others = clique.features
    maps = [index.partners(Pattern((anchor, f))) for f in others]
    return maps, set(maps[0]).intersection(*maps[1:])


def _count_rows(
    clique: FeatureClique,
    index: _PairIndex,
    anchor_maps: list[dict[int, frozenset[int]]],
    common: set[int],
) -> CandidateSummary:
    """`candidate_summary` of a candidate of size three or more, from its
    anchor side.  `others` is in canonical order, so others[i] is the first
    column of the (i, j) table."""
    others = clique.features[1:]
    adjacency = {
        (i, j): index.partners(Pattern((others[i], others[j])))
        for i, j in combinations(range(len(others)), 2)
    }
    last = len(others) - 1
    participants: list[set[int]] = [set() for _ in others]

    def count(level: int, allowed: list[frozenset[int]]) -> int:
        rows = 0
        if level == last - 1:
            tail = allowed[last]
            related = adjacency[(level, last)]
            for c in allowed[level]:
                completions = tail & related.get(c, _NO_PARTNERS)
                if completions:
                    participants[level].add(c)
                    participants[last] |= completions
                    rows += len(completions)
            return rows
        for c in allowed[level]:
            narrowed = _narrow(adjacency, level, c, allowed)
            if narrowed is not None:
                n = count(level + 1, narrowed)
                if n:
                    participants[level].add(c)
                    rows += n
        return rows

    row_count = 0
    anchors = set()
    for a in common:
        n = count(0, [partners[a] for partners in anchor_maps])
        if n:
            anchors.add(a)
            row_count += n
    insts = index.insts
    projections = {
        f: frozenset(insts[c] for c in codes)
        for f, codes in zip(clique.features, [anchors, *participants])
    }
    return CandidateSummary(clique, row_count, projections)


def _pair_table(pair: Pattern, size2: Mapping[Pattern, TableInstance]) -> TableInstance:
    try:
        return size2[pair]
    except KeyError:
        raise ValueError(f"no pair table for {pair.label}; candidate is not a clique over this data")


def early_abort_check(
    counts: Mapping[DynamicFeature, int],
    possible: Mapping[DynamicFeature, int],
    config: MiningConfig,
) -> bool:
    """True when the candidate can no longer reach the threshold.

    For each feature, `possible` bounds the number of its instances that
    could participate, so the bounded ratio is an upper bound on the final
    one; aborting on it never loses a prevalent pattern.
    """
    for feature, bound in possible.items():
        total = counts.get(feature, 0)
        if total == 0 or not meets_min_prev(bound / total, config):
            return True
    return False


def decompose(
    clique: FeatureClique,
    accepted: Iterable[Pattern],
    pending: Iterable[FeatureClique],
) -> list[FeatureClique]:
    """One-smaller sub-cliques of a failed candidate still worth queueing.

    Sub-cliques contained in an accepted pattern are prevalent but can never
    be maximal; ones already queued would only be duplicates.
    """
    accepted_sets = [p.feature_set for p in accepted]
    pending_set = set(pending)
    out = []
    for combo in combinations(clique.features, clique.size - 1):
        sub = Pattern(combo)
        if sub in pending_set:
            continue
        if any(sub.feature_set <= acc for acc in accepted_sets):
            continue
        out.append(sub)
    return out


class CandidateQueue:
    """Pending cliques grouped by size, processed largest level first.

    Decomposition while one level runs only ever pushes smaller cliques, so
    taking the largest pending size until the queue drains visits every
    candidate exactly once.
    """

    def __init__(self, cliques: Iterable[FeatureClique] = ()):
        self._by_size: dict[int, set[FeatureClique]] = {}
        for clique in cliques:
            self.push(clique)

    def push(self, clique: FeatureClique) -> None:
        self._by_size.setdefault(clique.size, set()).add(clique)

    def max_size(self) -> int | None:
        pending = [size for size, cliques in self._by_size.items() if cliques]
        return max(pending) if pending else None

    def pop_level(self, size: int) -> list[FeatureClique]:
        level = sorted(self._by_size.pop(size, ()), key=lambda c: c.sort_key)
        return level

    def pending_at(self, size: int) -> set[FeatureClique]:
        return self._by_size.setdefault(size, set())


def _verify(
    clique: FeatureClique,
    index: _PairIndex,
    counts: FeatureCounts,
    config: MiningConfig,
    early_abort: bool,
    stats: VerifyStats,
) -> PatternResult | None:
    """Full verification; None when the early bound already rules it out.

    The bound allows the anchor instances partnered in every anchor pair
    table, and for each other feature their partners in its table.
    """
    if clique.size == 2:
        summary = _summarize(clique, index)
    else:
        anchor_maps, common = _anchor_side(clique, index)
        if early_abort:
            anchor, *others = clique.features
            bounds = {anchor: len(common)}
            for f, partners in zip(others, anchor_maps):
                bounds[f] = len(set().union(*(partners[a] for a in common)))
            if early_abort_check(counts, bounds, config):
                stats.early_aborts += 1
                return None
        summary = _count_rows(clique, index, anchor_maps, common)
    stats.verified += 1
    stats.rows_counted += summary.row_count
    ratios = summary.ratios(counts)
    stats.ratio_log.append((clique, ratios))
    return PatternResult(clique, min(ratios.values()), summary.row_count, True)


def verify_all(
    cliques: Sequence[FeatureClique],
    size2: Mapping[Pattern, TableInstance],
    counts: FeatureCounts,
    config: MiningConfig,
    *,
    early_abort: bool = True,
    stats: VerifyStats | None = None,
) -> list[PatternResult]:
    """Largest-first verification of maximal-clique candidates.

    Returns the prevalent maximal patterns, canonically sorted.  The early
    abort only skips work whose outcome is already decided, so the result is
    identical with or without it.
    """
    stats = stats if stats is not None else VerifyStats()
    index = _PairIndex(size2)
    queue = CandidateQueue(cliques)
    accepted: dict[Pattern, PatternResult] = {}

    while (size := queue.max_size()) is not None:
        for clique in queue.pop_level(size):
            if any(clique.feature_set <= acc.feature_set for acc in accepted):
                stats.subsumed_skips += 1
                continue
            result = _verify(clique, index, counts, config, early_abort, stats)
            if result is not None and passes_prevalence(result.dpi, result.row_count, config):
                accepted[clique] = result
                continue
            if size > 2:
                subs = decompose(clique, accepted, queue.pending_at(size - 1))
                stats.decomposed += 1
                for sub in subs:
                    queue.push(sub)
    return sorted(accepted.values(), key=lambda r: r.pattern.sort_key)


def derive_all_prevalent(
    maximal: Iterable[Pattern],
    size2: Mapping[Pattern, TableInstance],
    counts: FeatureCounts,
    config: MiningConfig,
) -> list[PatternResult]:
    """Every prevalent pattern, derived from the maximal ones.

    Participation ratios never grow when a pattern does, so each subset of a
    prevalent maximal pattern is prevalent; enumerating subsets of size two or
    more and summarizing each one's table yields the complete prevalent set.
    """
    maximal_set = set(maximal)
    index = _PairIndex(size2)
    results: dict[Pattern, PatternResult] = {}
    for pattern in sorted(maximal_set, key=lambda p: p.sort_key):
        for k in range(2, pattern.size + 1):
            for combo in combinations(pattern.features, k):
                sub = Pattern(combo)
                if sub in results:
                    continue
                summary = _summarize(sub, index)
                dpi = min(summary.ratios(counts).values())
                results[sub] = PatternResult(sub, dpi, summary.row_count, sub in maximal_set)
    return sorted(results.values(), key=lambda r: r.pattern.sort_key)
