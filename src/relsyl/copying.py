"""Disjointification of an overlapping relation family by copying points.

Given a base frame with points U and relations r0[1..kappa] that may
overlap, each point is replicated across 2*kappa+1 levels and every
ordered pair of the enlarged frame is assigned to exactly one index.
The assignment respects converse, projects back onto the base family,
and lifts every base pair at every level, so the output is a partition
of W x W refining the original family's behaviour.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Mapping, Optional

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

    def validate(self) -> None:
        if not self.points:
            raise CopyingError("point set must be non-empty")
        if len(set(self.points)) != len(self.points):
            raise CopyingError("duplicate points")
        if self.kappa < 1:
            raise CopyingError("kappa must be a positive integer")
        indices = set(range(1, self.kappa + 1))
        if set(self.conv) != indices:
            raise CopyingError("conv must be defined exactly on 1..kappa")
        if set(self.r0) != indices:
            raise CopyingError("r0 must be defined exactly on 1..kappa")
        for i in indices:
            j = self.conv[i]
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
    w: tuple[WPoint, ...]
    r: Mapping[int, frozenset[tuple[WPoint, WPoint]]]
    choices: Choices

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(tuple(x) for x in self.w))
        object.__setattr__(self, "r",
                           {i: frozenset(ps) for i, ps in self.r.items()})


def choose(pre: PreFrame, policy: str = "smallest",
           seed: Optional[int] = None) -> Choices:
    """Pick an admissible index for every ordered pair of base points.

    On the diagonal the chosen index must be its own converse.  The
    "smallest" policy is deterministic; "random" uses the given seed.
    """
    pre.validate()
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
    pre.validate()
    arith = IndexArithmetic(pre.kappa)
    levels = list(arith.carrier)
    w = tuple((u, lvl) for u in pre.points for lvl in levels)
    assigned: dict[int, list[tuple[WPoint, WPoint]]] = \
        {i: [] for i in range(1, pre.kappa + 1)}
    for x in w:
        x1, x2 = x
        for y in w:
            y1, y2 = y
            n = arith.ominus(x2, y2)
            if x2 != y2:
                in_a = (x1, y1) in pre.r0[n]
                in_b = (x1, y1) in pre.r0[pre.conv[n]]
                if in_a and in_b:
                    idx = n if arith.lessdot(x2, y2) else pre.conv[n]
                elif in_a:
                    idx = n
                elif in_b:
                    idx = pre.conv[n]
                else:
                    idx = _default_index(pre, choices, x1, y1)
            else:
                idx = _default_index(pre, choices, x1, y1)
            assigned[idx].append((x, y))
    return CopiedFrame(w=w,
                       r={i: frozenset(ps) for i, ps in assigned.items()},
                       choices=choices)


def _default_index(pre: PreFrame, choices: Choices, u: str, v: str) -> int:
    if (u, v) in choices.orientation:
        idx = choices.v_choice.get((u, v))
        if idx is None:
            raise CopyingError(f"choices lack an index for pair ({u!r},{v!r})")
        return idx
    idx = choices.v_choice.get((v, u))
    if idx is None:
        raise CopyingError(f"choices lack an index for pair ({v!r},{u!r})")
    return pre.conv[idx]


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
    """Independently re-check the five partition properties of a build."""
    arith = IndexArithmetic(pre.kappa)
    indices = list(range(1, pre.kappa + 1))
    results: dict[str, PropertyResult] = {}

    all_pairs = {(x, y) for x in cf.w for y in cf.w}
    union = set()
    for i in indices:
        union |= cf.r.get(i, frozenset())
    missing = all_pairs - union
    results["union_covers"] = PropertyResult(not missing,
                                             min(missing) if missing else None)

    overlap = None
    for a in indices:
        for b in indices:
            if a < b:
                common = cf.r.get(a, frozenset()) & cf.r.get(b, frozenset())
                if common and overlap is None:
                    overlap = (a, b, min(common))
    results["pairwise_disjoint"] = PropertyResult(overlap is None, overlap)

    conv_bad = None
    for i in indices:
        mirrored = {(y, x) for (x, y) in cf.r.get(i, frozenset())}
        diff = mirrored ^ set(cf.r.get(pre.conv[i], frozenset()))
        if diff and conv_bad is None:
            conv_bad = (i, min(diff))
    results["converse_compatible"] = PropertyResult(conv_bad is None, conv_bad)

    proj_bad = None
    for i in indices:
        for ((u1, _), (u2, _)) in sorted(cf.r.get(i, frozenset())):
            if (u1, u2) not in pre.r0[i]:
                proj_bad = (i, (u1, u2))
                break
        if proj_bad:
            break
    results["projects_to_base"] = PropertyResult(proj_bad is None, proj_bad)

    lift_bad = None
    for nu in indices:
        for (u1, u2) in sorted(pre.r0[nu]):
            for mu in arith.carrier:
                lifted = ((u1, mu), (u2, arith.oplus(mu, nu)))
                if lifted not in cf.r.get(nu, frozenset()):
                    lift_bad = (nu, lifted)
                    break
            if lift_bad:
                break
        if lift_bad:
            break
    results["lifts_base_pairs"] = PropertyResult(lift_bad is None, lift_bad)

    return ContractReport(properties=results)


# ---------------------------------------------------------------------------
# JSON files
# ---------------------------------------------------------------------------

def preframe_from_json(text: str) -> PreFrame:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise CopyingError(f"invalid JSON: {e}") from e
    try:
        pre = PreFrame(
            points=tuple(data["points"]),
            kappa=int(data["kappa"]),
            conv={int(k): int(v) for k, v in data["conv"].items()},
            r0={int(k): frozenset((u, v) for u, v in pairs)
                for k, pairs in data["r0"].items()},
        )
    except (KeyError, TypeError, ValueError) as e:
        raise CopyingError(f"malformed frame description: {e}") from e
    pre.validate()
    return pre


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


def copied_to_json(cf: CopiedFrame, pre: PreFrame) -> str:
    pos = {u: i for i, u in enumerate(pre.points)}

    def wkey(x: WPoint):
        return (pos[x[0]], x[1])

    data = {
        "w": [list(x) for x in sorted(cf.w, key=wkey)],
        "r": {str(i): sorted(([list(x), list(y)] for x, y in cf.r[i]),
                             key=lambda p: (pos[p[0][0]], p[0][1],
                                            pos[p[1][0]], p[1][1]))
              for i in sorted(cf.r)},
        "choices": {
            "v_choice": sorted(([u, v, i] for (u, v), i in cf.choices.v_choice.items()),
                               key=lambda t: (pos[t[0]], pos[t[1]])),
            "orientation": sorted(([u, v] for u, v in cf.choices.orientation),
                                  key=lambda t: (pos[t[0]], pos[t[1]])),
        },
    }
    return json.dumps(data, indent=2)


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
    pre = PreFrame(points=points, kappa=kappa, conv=conv,
                   r0={i: frozenset(ps) for i, ps in r0.items()})
    pre.validate()
    return pre
