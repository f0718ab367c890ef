"""Disjointification of an overlapping relation family by copying points.

Given a base frame with points U and relations r0[1..kappa] that may
overlap, each point is replicated across 2*kappa+1 levels and every
ordered pair of the enlarged frame is assigned to exactly one index.
The assignment respects converse, projects back onto the base family,
and lifts every base pair at every level, so the output is a partition
of W x W refining the original family's behaviour.

W is point-major, then level.  Each copied relation is held as row masks
over W, as `semantics.Kernel` holds relations.  A pair's index depends only
on its base points and level difference, so `build_copies` sets the bits of
each level-0 row and rotates them to the other levels; `verify_contract`
checks the masks against the definitions, sharing no code with the builder,
so a wrong build cannot pass its own check.

A `PreFrame` checks every builder precondition when it is built, so
`choose` and `build_copies` take it as valid; it must not be mutated.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Mapping, Optional

Pair = tuple[str, str]
WPoint = tuple[str, int]


class CopyingError(ValueError):
    pass


@dataclass(frozen=True)
class IndexArithmetic:
    """Modular level arithmetic on the carrier {0, ..., 2*kappa}."""

    kappa: int

    def __post_init__(self):
        if self.kappa < 1:
            raise CopyingError("kappa must be a positive integer")

    @property
    def modulus(self) -> int:
        return 2 * self.kappa + 1

    @property
    def carrier(self) -> range:
        return range(self.modulus)

    def _check(self, *args: int) -> None:
        for m in args:
            if not 0 <= m < self.modulus:
                raise CopyingError(f"{m} is outside the carrier 0..{self.modulus - 1}")

    def oplus(self, m: int, n: int) -> int:
        self._check(m, n)
        return (m + n) % self.modulus

    def ominus(self, m: int, n: int) -> int:
        """Cyclic distance; symmetric and bounded by kappa."""
        self._check(m, n)
        return min((m - n) % self.modulus, (n - m) % self.modulus)

    def lessdot(self, m: int, n: int) -> bool:
        """True when n is reached from m by a forward step of at most kappa."""
        self._check(m, n)
        return (n - m) % self.modulus < (m - n) % self.modulus


@dataclass(frozen=True)
class PreFrame:
    points: tuple[str, ...]
    kappa: int
    conv: Mapping[int, int]
    r0: Mapping[int, frozenset[Pair]]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "conv", dict(self.conv))
        object.__setattr__(self, "r0",
                           {i: frozenset(ps) for i, ps in self.r0.items()})
        if not self.points:
            raise CopyingError("point set must be non-empty")
        if len(set(self.points)) != len(self.points):
            raise CopyingError("duplicate points")
        # `type(...) is int`: True and 1.0 equal 1, and would pass for it
        if type(self.kappa) is not int or self.kappa < 1:
            raise CopyingError(f"kappa must be a positive integer, not {self.kappa!r:.40}")
        # a range, and the sizes first: kappa must not size what the input lacks
        indices = range(1, self.kappa + 1)
        for name, table in (("conv", self.conv), ("r0", self.r0)):
            if len(table) != self.kappa or not all(type(i) is int and i in indices
                                                   for i in table):
                raise CopyingError(f"{name} must be defined exactly on 1..kappa")
        for i in indices:
            j = self.conv[i]
            if type(j) is not int:
                raise CopyingError(f"conv({i}) must be an integer, not {j!r:.40}")
            if j not in indices:
                raise CopyingError(f"conv({i}) = {j} is outside 1..kappa")
            if self.conv[j] != i:
                raise CopyingError(f"conv is not an involution at index {i}")
        pts = set(self.points)
        for i in indices:
            for (u, v) in self.r0[i]:
                if u not in pts or v not in pts:
                    raise CopyingError(f"pair ({u!r},{v!r}) of r0[{i}] uses unknown points")
            mirrored = frozenset((v, u) for (u, v) in self.r0[i])
            if self.r0[self.conv[i]] != mirrored:
                diff = (self.r0[self.conv[i]] ^ mirrored)
                bad = min(diff)
                raise CopyingError(
                    f"r0[{self.conv[i]}] is not the converse of r0[{i}] (pair {bad})")
        for u in self.points:
            for v in self.points:
                if not any((u, v) in self.r0[i] for i in indices):
                    raise CopyingError(f"pair ({u!r},{v!r}) is covered by no relation")
        for u in self.points:
            if not any(self.conv[i] == i and (u, u) in self.r0[i] for i in indices):
                raise CopyingError(
                    f"point {u!r} has no symmetric relation containing ({u!r},{u!r})")


@dataclass(frozen=True)
class Choices:
    """One index per ordered base pair, plus one orientation per unordered pair."""

    v_choice: Mapping[Pair, int]
    orientation: frozenset[Pair]

    def __post_init__(self):
        object.__setattr__(self, "v_choice", dict(self.v_choice))
        object.__setattr__(self, "orientation", frozenset(self.orientation))


@dataclass(frozen=True)
class CopiedFrame:
    """The copied frame: W, and row masks over W for every index."""

    w: tuple[WPoint, ...]
    rows: Mapping[int, tuple[int, ...]]
    choices: Choices

    @classmethod
    def from_pairs(cls, w, r: Mapping[int, Iterable[tuple[WPoint, WPoint]]],
                   choices: Choices) -> CopiedFrame:
        """A frame given by the pairs of each index (for hand-made frames)."""
        w = tuple(tuple(x) for x in w)
        pos = {x: k for k, x in enumerate(w)}
        rows = {i: [0] * len(w) for i in r}
        for i, pairs in r.items():
            for x, y in pairs:
                rows[i][pos[tuple(x)]] |= 1 << pos[tuple(y)]
        return cls(w=w, rows={i: tuple(masks) for i, masks in rows.items()}, choices=choices)

    @cached_property
    def r(self) -> dict[int, frozenset[tuple[WPoint, WPoint]]]:
        """The pairs of each index, decoded from the rows on first use."""
        w = self.w
        return {i: frozenset((w[x], w[y]) for x, row in enumerate(rows)
                             for y in _bits(row))
                for i, rows in self.rows.items()}


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending."""
    return [k for k, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def choose(pre: PreFrame, policy: str = "smallest",
           seed: Optional[int] = None) -> Choices:
    """Pick an admissible index for every ordered pair of base points.

    On the diagonal the chosen index must be its own converse.  The
    "smallest" policy is deterministic; "random" uses the given seed.
    """
    if policy not in ("smallest", "random"):
        raise CopyingError(f"unknown policy {policy!r}")
    rng = random.Random(seed) if policy == "random" else None
    indices = range(1, pre.kappa + 1)
    v_choice: dict[Pair, int] = {}
    for u in pre.points:
        for v in pre.points:
            admissible = [i for i in indices
                          if (u, v) in pre.r0[i] and (u != v or pre.conv[i] == i)]
            if not admissible:
                raise CopyingError(f"no admissible index for pair ({u!r},{v!r})")
            v_choice[(u, v)] = rng.choice(admissible) if rng else admissible[0]
    pos = {u: i for i, u in enumerate(pre.points)}
    orientation = frozenset((u, v) for u in pre.points for v in pre.points
                            if pos[u] <= pos[v])
    return Choices(v_choice=v_choice, orientation=orientation)


def build_copies(pre: PreFrame, choices: Choices) -> CopiedFrame:
    """The copied frame of pre under choices.  The index of ((u, l),
    (v, l oplus d)) depends only on u, v and d: with n = 0 ominus d, r0[n]
    or its converse, whichever holds (u, v), r0[n] when both do and
    0 lessdot d; d = 0, or neither, takes the chosen default."""
    arith = IndexArithmetic(pre.kappa)
    m, points, conv = arith.modulus, pre.points, pre.conv
    steps = [(d, arith.ominus(0, d), arith.lessdot(0, d)) for d in range(1, m)]
    w = tuple((u, lvl) for u in points for lvl in range(m))
    # base[i][p]: the row of (points[p], 0) in index i, bit q*m + d for (points[q], d)
    base = {i: [0] * len(points) for i in range(1, pre.kappa + 1)}
    for p, u in enumerate(points):
        for q, v in enumerate(points):
            forward = (u, v) in choices.orientation
            key = (u, v) if forward else (v, u)
            if key not in choices.v_choice:
                raise CopyingError(f"choices lack an index for pair ({key[0]!r},{key[1]!r})")
            default = choices.v_choice[key] if forward else conv[choices.v_choice[key]]
            holds = {i for i in base if (u, v) in pre.r0[i]}
            base[default][p] |= 1 << (q * m)
            for d, n, ahead in steps:
                i = (n if n in holds and (ahead or conv[n] not in holds)
                     else conv[n] if conv[n] in holds else default)
                base[i][p] |= 1 << (q * m + d)
    # The row of (u, l) is u's level-0 row with every block of m bits
    # rotated up by l: high[l] keeps the bits that stay inside their block
    # after a shift by l, low[l] the ones that wrap round to its bottom.
    ones = sum(1 << (q * m) for q in range(len(points)))
    high = [ones * (((1 << m) - 1) ^ ((1 << lvl) - 1)) for lvl in range(m)]
    low = [ones * ((1 << lvl) - 1) for lvl in range(m)]
    rows = {i: tuple(((b << lvl) & high[lvl]) | ((b >> (m - lvl)) & low[lvl])
                     for b in base[i] for lvl in range(m))
            for i in base}
    return CopiedFrame(w=w, rows=rows, choices=choices)


@dataclass(frozen=True)
class PropertyResult:
    ok: bool
    counterexample: Optional[object] = None


@dataclass(frozen=True)
class ContractReport:
    properties: Mapping[str, PropertyResult]

    def __post_init__(self):
        object.__setattr__(self, "properties", dict(self.properties))

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.properties.values())


def verify_contract(cf: CopiedFrame, pre: PreFrame) -> ContractReport:
    """Independently re-check the five partition properties on the row masks.

    Pairs are decoded only to name a failing property's least offending pair."""
    indices = range(1, pre.kappa + 1)
    w, n = cf.w, len(cf.w)
    rows = {i: cf.rows.get(i, (0,) * n) for i in indices}

    def pairs(i):
        return cf.r.get(i, frozenset())

    results: dict[str, PropertyResult] = {}

    full = (1 << n) - 1
    missing = [full & ~reduce(or_, col, 0) for col in zip(*rows.values())]
    gap = min(((w[x], w[y]) for x, miss in enumerate(missing) for y in _bits(miss)),
              default=None)
    results["union_covers"] = PropertyResult(gap is None, gap)

    overlap = next(((a, b, min(pairs(a) & pairs(b))) for a in indices for b in indices
                    if a < b and any(ra & rb for ra, rb in zip(rows[a], rows[b]))), None)
    results["pairwise_disjoint"] = PropertyResult(overlap is None, overlap)

    # index i and its converse fail together, so the least failing i has i <= conv(i)
    conv_bad = next(((i, min({(y, x) for (x, y) in pairs(i)} ^ pairs(pre.conv[i])))
                     for i in indices
                     if i <= pre.conv[i] and _transpose(rows[i]) != rows[pre.conv[i]]), None)
    results["converse_compatible"] = PropertyResult(conv_bad is None, conv_bad)

    copies = {}  # base point -> mask of its copies in W
    for k, (u, _) in enumerate(w):
        copies[u] = copies.get(u, 0) | 1 << k

    def projects(i):
        allowed = {}  # u -> mask of the copies of every v with (u, v) in r0[i]
        for (u, v) in pre.r0[i]:
            allowed[u] = allowed.get(u, 0) | copies.get(v, 0)
        return not any(row & ~allowed.get(w[x][0], 0) for x, row in enumerate(rows[i]))

    proj_bad = next(((i, next((x[0], y[0]) for (x, y) in sorted(pairs(i))
                              if (x[0], y[0]) not in pre.r0[i]))
                     for i in indices if not projects(i)), None)
    results["projects_to_base"] = PropertyResult(proj_bad is None, proj_bad)

    m = 2 * pre.kappa + 1
    pos = {x: k for k, x in enumerate(w)}
    at = {u: [pos.get((u, lvl)) for lvl in range(m)] for u in pre.points}

    def unlifted():
        for nu in indices:
            for (u1, u2) in sorted(pre.r0[nu]):
                for mu in range(m):
                    x, y = at[u1][mu], at[u2][(mu + nu) % m]
                    if x is None or y is None or not rows[nu][x] >> y & 1:
                        yield nu, ((u1, mu), (u2, (mu + nu) % m))

    lift_bad = next(unlifted(), None)
    results["lifts_base_pairs"] = PropertyResult(lift_bad is None, lift_bad)

    return ContractReport(properties=results)


def _transpose(rows: tuple[int, ...]) -> tuple[int, ...]:
    """The row masks of the converse: column y becomes row y."""
    n = len(rows)
    # bit y of row x is character x*n + y, so column y is every n-th character from y
    text = "".join(format(row, f"0{n}b")[::-1] for row in rows)
    return tuple(int(text[y::n][::-1], 2) for y in range(n))


# ---------------------------------------------------------------------------
# JSON files
# ---------------------------------------------------------------------------

def preframe_from_data(data) -> PreFrame:
    """The frame described by a decoded frame file (see `preframe_to_json`)."""

    # a JSON string would otherwise be read as a sequence
    def listed(value, what: str) -> list:
        if not isinstance(value, list):
            raise CopyingError(f"{what} must be a JSON list, not {value!r:.40}")
        return value

    # the key preframe_to_json writes for index i is str(i); int() would
    # also read "01" or " +1 " as 1, and two keys of one table would collapse
    def index(key: str, what: str) -> int:
        i = int(key)
        if str(i) != key:
            raise CopyingError(f"{what} keys must be indices in decimal, not {key!r:.40}")
        return i

    try:
        points = tuple(listed(data["points"], "points"))
        if not all(isinstance(u, str) for u in points):
            raise CopyingError(f"points must be strings, not {list(points)!r:.40}")
        return PreFrame(
            points=points,
            kappa=data["kappa"],
            conv={index(k, "conv"): v for k, v in data["conv"].items()},
            r0={index(k, "r0"): frozenset((u, v) for p in listed(pairs, f"r0[{k}]")
                                  for u, v in [listed(p, f"a pair of r0[{k}]")])
                for k, pairs in data["r0"].items()},
        )
    except CopyingError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise CopyingError(f"malformed frame description: {e}") from e


def preframe_to_json(pre: PreFrame) -> str:
    pos = {u: i for i, u in enumerate(pre.points)}
    data = {
        "points": list(pre.points),
        "kappa": pre.kappa,
        "conv": {str(i): pre.conv[i] for i in sorted(pre.conv)},
        "r0": {str(i): sorted(([u, v] for u, v in pre.r0[i]),
                              key=lambda p: (pos[p[0]], pos[p[1]]))
               for i in sorted(pre.r0)},
    }
    return json.dumps(data, indent=2)


def copied_to_data(cf: CopiedFrame, pre: PreFrame) -> dict:
    """The JSON form of a build; W order (point-major, then level) sorts the pairs."""
    pos = {u: i for i, u in enumerate(pre.points)}
    w = [list(x) for x in cf.w]
    return {
        "w": w,
        "r": {str(i): [[w[x], w[y]] for x, row in enumerate(cf.rows[i]) for y in _bits(row)]
              for i in sorted(cf.rows)},
        "choices": {
            "v_choice": sorted(([u, v, i] for (u, v), i in cf.choices.v_choice.items()),
                               key=lambda t: (pos[t[0]], pos[t[1]])),
            "orientation": sorted(([u, v] for u, v in cf.choices.orientation),
                                  key=lambda t: (pos[t[0]], pos[t[1]])),
        },
    }


def copied_to_json(cf: CopiedFrame, pre: PreFrame) -> str:
    return json.dumps(copied_to_data(cf, pre), indent=2)


def random_preframe(seed: int, max_points: int = 5, max_kappa: int = 4) -> PreFrame:
    """A random frame satisfying every builder precondition (for fuzzing)."""
    rng = random.Random(seed)
    npts = rng.randint(1, max_points)
    kappa = rng.randint(1, max_kappa)
    points = tuple(f"u{i}" for i in range(npts))
    # index 1 is forced symmetric so the diagonal can always be repaired
    conv = {1: 1}
    rest = list(range(2, kappa + 1))
    rng.shuffle(rest)
    while rest:
        i = rest.pop()
        if rest and rng.random() < 0.5:
            j = rest.pop()
            conv[i] = j
            conv[j] = i
        else:
            conv[i] = i
    r0: dict[int, set[Pair]] = {i: set() for i in range(1, kappa + 1)}
    for i in range(1, kappa + 1):
        if conv[i] == i:
            for a in range(npts):
                for b in range(a, npts):
                    if rng.random() < 0.5:
                        r0[i].add((points[a], points[b]))
                        r0[i].add((points[b], points[a]))
        elif conv[i] > i:
            for u in points:
                for v in points:
                    if rng.random() < 0.5:
                        r0[i].add((u, v))
                        r0[conv[i]].add((v, u))
    for u in points:
        for v in points:
            if not any((u, v) in r0[i] for i in r0):
                i = rng.randint(1, kappa)
                r0[i].add((u, v))
                r0[conv[i]].add((v, u))
    for u in points:
        if not any(conv[i] == i and (u, u) in r0[i] for i in r0):
            r0[1].add((u, u))
    return PreFrame(points=points, kappa=kappa, conv=conv,
                    r0={i: frozenset(ps) for i, ps in r0.items()})
