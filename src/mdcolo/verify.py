"""Verification of candidate patterns against the instance data.

Candidates (feature cliques) are processed largest first, and one loop in
`verify_all` decides each one's route.  A candidate inside an accepted
pattern is skipped as subsumed; one the early bound rules out is aborted;
any other is verified, and accepted when its participation index passes the
threshold.  An aborted or failed candidate of size three or more decomposes
into its one-smaller sub-cliques, which join the queue.

Verify and derive read a candidate's features by their ranks in the
series' numbering, the ranks that key the pair tables (`PairTables`), and
look up only the tables their candidates need.  Verify queues each
candidate as an int mask of its ranks: the subsumed check is
`mask & acc == mask`, and a sub-clique is the mask with one bit cleared.  A
`Pattern` is built only for a candidate that is summarized.

A candidate's table instance is defined by its pair tables: a row picks one
instance per feature such that every feature pair is itself a pair-table
row.  Verification counts those rows and collects each feature's
participants as an ordinal bitmask, without building the rows, through one
bitset index per pair table (`TableInstance.pair_index`) that verify and
derive share (`_summarize`).  The early bound tests the feature domains the
search starts from, each a cap on its feature's participants, so it never
changes the outcome.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Collection, Iterable, Mapping, Sequence

from .model import DynamicFeature, MiningConfig, Pattern, Value
from .size2 import (
    FeatureCounts, PairTables, mask_bits, meets_min_prev, participation_share,
    passes_prevalence,
)


# Entries of one candidate's row-search memo; once it holds this many, no
# more are added.  The benchmark workloads' largest memos hold 1,667 entries
# (`dense`) and 140 (`pruned`).
MEMO_ENTRIES = 1 << 12


class PatternResult(Value):
    __slots__ = _compared = ("pattern", "dpi", "row_count", "maximal")

    def __init__(self, pattern: Pattern, dpi: float, row_count: int, maximal: bool):
        self.pattern, self.dpi, self.row_count, self.maximal = pattern, dpi, row_count, maximal


class VerifyStats:
    """Counters and the per-candidate ratio log of one verification run."""

    __slots__ = (
        "verified", "early_aborts", "subsumed_skips", "decomposed", "rows_counted", "ratio_log"
    )
    # Always 0: the shared sub-clique pre-check is gone, but perfbench/traced.py
    # still reads these.  Class attributes, not slots, so no manifest shows them.
    shared_checks = shared_skips = 0

    def __init__(self):
        self.verified = self.early_aborts = self.subsumed_skips = self.decomposed = 0
        # rows summed over every fully verified candidate
        self.rows_counted = 0
        # (pattern, feature -> participation ratio) for every fully verified table
        self.ratio_log: list[tuple[Pattern, dict[DynamicFeature, float]]] = []

    def as_manifest_entries(self) -> dict[str, int]:
        return {
            "verified_candidates": self.verified,
            "early_aborts": self.early_aborts,
            "subsumed_skips": self.subsumed_skips,
            "decompositions": self.decomposed,
            "rows_counted": self.rows_counted,
        }


def _number(
    patterns: Iterable[Pattern], tables: PairTables, counts: Mapping[DynamicFeature, int]
) -> tuple[list[tuple[int, ...]], list[int]]:
    """Each pattern's ranks in canonical order, once every pair of them is
    known to have a table, and per rank its instance total from `counts`."""
    features = tables.series.columns.features
    rank = {f: r for r, f in enumerate(features)}
    tops = []
    for pattern in patterns:
        ranks = tuple([rank.get(f, -1) for f in pattern.features])
        if not all(map(tables.__contains__, combinations(ranks, 2))):
            pairs = combinations(zip(ranks, pattern.features), 2)
            a, b = next((a, b) for (ra, a), (rb, b) in pairs if (ra, rb) not in tables)
            raise ValueError(
                f"no pair table for {a.label},{b.label}; candidate is not a clique over this data"
            )
        tops.append(ranks)
    return tops, [counts.get(f, 0) for f in features]


def _pattern(ranks: Iterable[int], tables: PairTables) -> Pattern:
    return Pattern(map(tables.series.columns.features.__getitem__, ranks))


def _ratios(ranks: Sequence[int], participants: Sequence[int], totals: Sequence[int]):
    """Participation ratio per rank, 0.0 for a feature without instances."""
    return list(map(participation_share, participants, map(totals.__getitem__, ranks)))


def _summarize(
    ranks: Sequence[int], tables: PairTables, misses: Callable[[int, int], bool] | None = None
) -> tuple[int, Sequence[int]] | None:
    """Row count of the candidate's table instance, and per rank in the
    order given (canonical) the mask of its participants' ordinal bits, as
    in `TableInstance.columns`; None when `misses(rank, domain)` rules a
    feature's domain out first.

    A pair reads them off its pair table's `columns()`.  A larger candidate
    runs a backtracking over the pair tables' bitset indexes that never
    picks at the last level: once the earlier levels are chosen, each
    instance still allowed there completes exactly one row, so the mask's
    bit count adds to the count and its bits join the last feature's
    participants.  The last two levels trade places when the last one holds
    fewer instances, so the loop runs over the smaller mask.  An earlier
    choice participates only when it completes at least one row.  A level
    reached again with the same masks reuses its row count from a memo.
    Memory stays linear in the pair tables plus at most MEMO_ENTRIES memo
    entries of at most k - 1 masks each, however many rows the candidate has.

    A feature's domain, the AND of its pair tables' `columns()`, holds all
    its participants, so one that `misses` is an early bound that never
    changes the outcome (a pair's domains are its participants, so it is not
    tested).  The pairs (i, j > i) are walked row by row, and domain i is
    tested once row i completes it: the first after k - 1 lookups.  Once
    every domain passes, the search reads each pair table's index where it
    needs it (`toward`), built once per table.  It takes its levels
    fail-first, smallest domain first (ties in canonical order), and narrows
    every deeper level's mask with `&` at each pick.

    The memo maps the masks a level is called with to its row count; their
    number names the level.  A repeated call is exact to skip: it counts the
    same rows, its updates to `found` are ORs the first call already made,
    and the caller marks its own pick either way.

    `count` calls itself, so it holds a cell that refers back to it, and
    through it the masks, `found` and the memo.  Deleting the name once the
    search is done breaks that cycle, so the summary leaves nothing for the
    cyclic collector and the CLI can run with the collector paused.
    """
    k = len(ranks)
    if k == 2:
        table = tables[ranks[0], ranks[1]]
        return len(table), table.columns()
    domains = [-1] * k
    for i, rank in enumerate(ranks):
        domain = domains[i]
        for j in range(i + 1, k):
            first, second = tables[rank, ranks[j]].columns()
            domain &= first
            domains[j] &= second
        if misses is not None and misses(rank, domain):
            return None
        domains[i] = domain
    order = sorted(range(k), key=lambda i: (domains[i].bit_count(), i))

    def toward(i: int, j: int) -> list[int]:
        """Ordinal of feature i -> mask of its partners of feature j."""
        index = tables[ranks[min(i, j)], ranks[max(i, j)]].pair_index()
        return index.forward if i < j else index.reverse

    # deeper[p][d]: ordinal picked at level p -> mask of partners at level p + 1 + d
    deeper = [[toward(order[p], order[q]) for q in range(p + 1, k)] for p in range(k - 1)]
    last = k - 1
    back = toward(order[last], order[last - 1])
    found = [0] * k
    memo: dict[tuple[int, ...], int] = {}

    def count(level: int, mask: int, *rest: int) -> int:
        """Rows through this level's `mask` and the deeper levels' `rest`."""
        rows = 0
        partners = deeper[level]
        if level == last - 1:
            tail, related = rest[0], partners[0]
            near, far = level, last
            if tail.bit_count() < mask.bit_count():
                mask, tail, related, near, far = tail, mask, back, far, near
            hits = completed = 0
            while mask:
                c = mask.bit_length() - 1
                bit = 1 << c
                mask ^= bit
                completions = tail & related[c]
                if completions:
                    hits |= bit
                    completed |= completions
                    rows += completions.bit_count()
            found[near] |= hits
            found[far] |= completed
            return rows
        while mask:
            c = mask.bit_length() - 1
            bit = 1 << c
            mask ^= bit
            narrowed = tuple([m & p[c] for m, p in zip(rest, partners)])
            if all(narrowed):
                n = memo.get(narrowed)
                if n is None:
                    n = count(level + 1, *narrowed)
                    if len(memo) < MEMO_ENTRIES:
                        memo[narrowed] = n
                if n:
                    found[level] |= bit
                    rows += n
        return rows

    row_count = count(0, *[domains[i] for i in order])
    del count
    return row_count, [mask for _, mask in sorted(zip(order, found))]


def decompose(mask: int, accepted: Sequence[int], pending: Collection[int]) -> list[int]:
    """Rank masks of a failed candidate's one-smaller sub-cliques still worth
    queueing, in canonical order (the canonically last feature, the highest
    bit, is dropped first).

    `accepted` holds the accepted patterns' masks, `pending` the queued ones.
    Sub-cliques contained in an accepted pattern are prevalent but can never
    be maximal; queued ones would be duplicates.
    """
    out = []
    rest = mask
    while rest:
        high = 1 << (rest.bit_length() - 1)
        rest ^= high
        sub = mask ^ high
        if sub not in pending and not any(sub & acc == sub for acc in accepted):
            out.append(sub)
    return out


def verify_all(
    cliques: Sequence[Pattern],
    size2: PairTables,
    counts: FeatureCounts,
    config: MiningConfig,
    *,
    early_abort: bool = True,
    stats: VerifyStats | None = None,
) -> list[PatternResult]:
    """Largest-first verification of maximal-clique candidates.

    Returns the prevalent maximal patterns, canonically sorted.  The loop
    body decides each candidate's route.  The early abort only skips work
    whose outcome is already decided, so the result is identical with or
    without it.  A candidate with a feature pair that has no table is a
    ValueError, raised before any candidate is checked.
    """
    stats = stats if stats is not None else VerifyStats()
    tops, totals = _number(cliques, size2, counts)

    def misses(rank: int, domain: int) -> bool:
        return not meets_min_prev(participation_share(domain, totals[rank]), config)

    abort = misses if early_abort else None
    # Pending candidates' masks by size.  Decomposition only adds cliques
    # one size smaller, so visiting sizes largest first sees every one once.
    by_size: dict[int, set[int]] = {}
    for ranks in tops:
        by_size.setdefault(len(ranks), set()).add(sum(1 << r for r in ranks))
    accepted: list[PatternResult] = []
    # The accepted patterns' masks, read by the subsumed check and decompose.
    covering: list[int] = []

    for size in range(max(by_size, default=2), 1, -1):
        # Rank tuples sort as their patterns do.
        for ranks, mask in sorted((mask_bits(m), m) for m in by_size.pop(size, ())):
            if any(mask & acc == mask for acc in covering):
                stats.subsumed_skips += 1
                continue
            summary = _summarize(ranks, size2, abort)
            if summary is None:
                stats.early_aborts += 1
            else:
                row_count, participants = summary
                ratios = _ratios(ranks, participants, totals)
                clique = _pattern(ranks, size2)
                stats.verified += 1
                stats.rows_counted += row_count
                stats.ratio_log.append((clique, dict(zip(clique.features, ratios))))
                dpi = min(ratios)
                if passes_prevalence(dpi, row_count, config):
                    accepted.append(PatternResult(clique, dpi, row_count, True))
                    covering.append(mask)
                    continue
            if size > 2:
                pending = by_size.setdefault(size - 1, set())
                pending.update(decompose(mask, covering, pending))
                stats.decomposed += 1
    return sorted(accepted, key=lambda r: r.pattern.sort_key)


def derive_all_prevalent(
    maximal: Iterable[PatternResult | Pattern],
    size2: PairTables,
    counts: FeatureCounts,
    config: MiningConfig,
) -> list[PatternResult]:
    """Every prevalent pattern, derived from the maximal ones.

    Participation ratios never grow when a pattern does, so each subset of a
    prevalent maximal pattern is prevalent; enumerating subsets of size two or
    more and summarizing each one's table yields the complete prevalent set.
    A maximal pattern given as verify's `PatternResult` is taken as it is;
    one given as a `Pattern` is summarized like its subsets.
    """
    given = [(m.pattern, m) if isinstance(m, PatternResult) else (m, None) for m in maximal]
    tops, totals = _number((pattern for pattern, _ in given), size2, counts)
    top_set = set(tops)
    # Results by rank tuple, seeded with the maximal patterns' own.
    results = {top: result for top, (_, result) in zip(tops, given) if result is not None}
    for top in tops:
        for k in range(2, len(top) + 1):
            for sub in combinations(top, k):
                if sub in results:
                    continue
                row_count, participants = _summarize(sub, size2)
                dpi = min(_ratios(sub, participants, totals))
                results[sub] = PatternResult(_pattern(sub, size2), dpi, row_count, sub in top_set)
    return [results[sub] for sub in sorted(results)]
