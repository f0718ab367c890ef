"""Level arithmetic, frame validation, and the copying construction."""

import dataclasses
import json

import pytest

from relsyl.copying import (
    Choices, CopiedFrame, CopyingError, IndexArithmetic, PreFrame,
    build_copies, choose, copied_to_json, preframe_from_data, preframe_to_json,
    random_preframe, verify_contract,
)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_distance_examples_kappa_one():
    a = IndexArithmetic(1)
    assert a.ominus(1, 0) == 1
    assert a.ominus(2, 0) == 1
    for m in a.carrier:
        assert a.ominus(m, m) == 0


def test_wraparound_example_kappa_two():
    a = IndexArithmetic(2)
    assert a.oplus(3, 2) == 0
    assert a.ominus(a.oplus(3, 2), 3) == 2


def test_order_irreflexive():
    for kappa in (1, 2, 3):
        a = IndexArithmetic(kappa)
        for m in a.carrier:
            assert not a.lessdot(m, m)


def test_out_of_carrier_rejected():
    a = IndexArithmetic(2)
    for bad in (-1, 5, 100):
        with pytest.raises(CopyingError):
            a.oplus(bad, 0)
        with pytest.raises(CopyingError):
            a.ominus(0, bad)
        with pytest.raises(CopyingError):
            a.lessdot(bad, bad)
    with pytest.raises(CopyingError):
        IndexArithmetic(0)


def test_arithmetic_laws_exhaustive():
    for kappa in range(1, 9):
        a = IndexArithmetic(kappa)
        for m in a.carrier:
            for n in a.carrier:
                d = a.ominus(m, n)
                assert 0 <= d <= kappa
                assert d == a.ominus(n, m)
                if m != n:
                    assert a.lessdot(m, n) != a.lessdot(n, m)
            for n in range(1, kappa + 1):
                assert a.ominus(a.oplus(m, n), m) == n
                assert a.lessdot(m, a.oplus(m, n))


def test_free_function_wrappers():
    a = IndexArithmetic(1)
    assert a.oplus(1, 2) == 0
    assert a.ominus(1, 2) == 1
    assert a.lessdot(0, 1)


# ---------------------------------------------------------------------------
# frame validation
# ---------------------------------------------------------------------------

def _simple_pre():
    pts = ("u", "v")
    full = frozenset((x, y) for x in pts for y in pts)
    return PreFrame(points=pts, kappa=1, conv={1: 1}, r0={1: full})


def test_valid_frame_accepted():
    _simple_pre()


@pytest.mark.parametrize("fields", [
    {"kappa": True},
    {"conv": {1: 1.0}},
    {"conv": {True: 1}},
], ids=["kappa_bool", "conv_float", "conv_bool_key"])
def test_indices_must_be_integers(fields):
    """The rule a frame file obeys holds for a frame built in Python too."""
    with pytest.raises(CopyingError, match=r"integer|exactly on 1\.\.kappa"):
        dataclasses.replace(_simple_pre(), **fields)


def test_conv_must_be_involution():
    with pytest.raises(CopyingError):
        dataclasses.replace(_simple_pre(), kappa=2,
                            conv={1: 2, 2: 2},
                            r0={1: frozenset(), 2: frozenset()})


def test_converse_coherence_enforced():
    pts = ("u", "v")
    with pytest.raises(CopyingError, match="converse"):
        PreFrame(points=pts, kappa=2, conv={1: 2, 2: 1},
                 r0={1: frozenset({("u", "v")}),
                     2: frozenset({("u", "v")})})


def test_coverage_violation_names_pair():
    pts = ("u", "v")
    with pytest.raises(CopyingError, match="covered"):
        PreFrame(points=pts, kappa=1, conv={1: 1},
                 r0={1: frozenset({("u", "u"), ("v", "v")})})


def test_diagonal_symmetry_violation_names_point():
    pts = ("u",)
    with pytest.raises(CopyingError, match="'u'"):
        PreFrame(points=pts, kappa=2, conv={1: 2, 2: 1},
                 r0={1: frozenset({("u", "u")}),
                     2: frozenset({("u", "u")})})


# ---------------------------------------------------------------------------
# choices
# ---------------------------------------------------------------------------

def test_smallest_policy_deterministic():
    pre = random_preframe(7)
    assert choose(pre) == choose(pre)


def test_chosen_indices_satisfy_membership():
    for seed in range(300):
        pre = random_preframe(seed)
        ch = choose(pre)
        for (u, v), i in ch.v_choice.items():
            assert (u, v) in pre.r0[i]
            if u == v:
                assert pre.conv[i] == i
        # exactly one orientation of every unordered pair, diagonal included
        for u in pre.points:
            for v in pre.points:
                assert (((u, v) in ch.orientation)
                        + ((v, u) in ch.orientation)) == (2 if u == v else 1)


def test_random_policy_uses_seed():
    pre = random_preframe(11, max_points=4, max_kappa=4)
    a = choose(pre, policy="random", seed=1)
    b = choose(pre, policy="random", seed=1)
    assert a == b


# ---------------------------------------------------------------------------
# building and the contract
# ---------------------------------------------------------------------------

def test_single_symmetric_index_gives_full_relation():
    pre = _simple_pre()
    cf = build_copies(pre, choose(pre))
    full = frozenset((x, y) for x in cf.w for y in cf.w)
    assert cf.r[1] == full
    assert verify_contract(cf, pre).ok


def test_lifting_instances_small():
    for seed in (0, 3, 9, 15):
        pre = random_preframe(seed, max_points=3, max_kappa=3)
        arith = IndexArithmetic(pre.kappa)
        cf = build_copies(pre, choose(pre))
        for nu in range(1, pre.kappa + 1):
            for (u1, u2) in pre.r0[nu]:
                for mu in arith.carrier:
                    assert ((u1, mu), (u2, arith.oplus(mu, nu))) in cf.r[nu]


def test_contract_on_random_frames():
    for seed in range(300):
        pre = random_preframe(seed)
        cf = build_copies(pre, choose(pre))
        report = verify_contract(cf, pre)
        assert report.ok, (seed, {k: v for k, v in report.properties.items()
                                  if not v.ok})


def test_corrupted_frame_detected():
    pre = random_preframe(23, max_points=3, max_kappa=3)
    cf = build_copies(pre, choose(pre))
    # move one pair from its index to another
    src = next(i for i in cf.r if cf.r[i])
    dst = next(i for i in cf.r if i != src) if pre.kappa > 1 else src
    pair = min(cf.r[src])
    if src == dst:
        # kappa = 1: drop the pair entirely instead
        r = {src: cf.r[src] - {pair}}
    else:
        r = dict(cf.r)
        r[src] = cf.r[src] - {pair}
        r[dst] = cf.r[dst] | {pair}
    broken = CopiedFrame.from_pairs(cf.w, r, cf.choices)
    report = verify_contract(broken, pre)
    assert not report.ok
    bad = [name for name, res in report.properties.items() if not res.ok]
    assert bad


def _oracle_r(pre, choices):
    """The copied relations decided pair by pair over W x W: the rule of the
    construction written out directly, the reference for the builder."""
    arith = IndexArithmetic(pre.kappa)
    w = [(u, lvl) for u in pre.points for lvl in arith.carrier]

    def default(u, v):
        if (u, v) in choices.orientation:
            return choices.v_choice[(u, v)]
        return pre.conv[choices.v_choice[(v, u)]]

    r = {i: set() for i in range(1, pre.kappa + 1)}
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
                    idx = default(x1, y1)
            else:
                idx = default(x1, y1)
            r[idx].add((x, y))
    return tuple(w), r


@pytest.mark.parametrize("policy", ["smallest", "random"])
def test_build_matches_pairwise_oracle(policy):
    frames = [random_preframe(seed) for seed in range(40)]
    # seeds 1092 and 1178 draw 20 points at kappa 4 (|W| = 180)
    frames += [random_preframe(seed, max_points=20, max_kappa=4)
               for seed in (1000, 1001, 1002, 1092, 1178)]
    for pre in frames:
        choices = choose(pre, policy=policy, seed=7)
        cf = build_copies(pre, choices)
        w, r = _oracle_r(pre, choices)
        assert cf.w == w
        assert set(cf.r) == set(r)
        for i in r:
            assert cf.r[i] == r[i], (pre, i)


def _corrupt(cf, drop=(), add=()):
    """A copy of cf with (index, pair) entries dropped and added."""
    r = {i: set(ps) for i, ps in cf.r.items()}
    for i, pair in drop:
        r[i].discard(pair)
    for i, pair in add:
        r[i].add(pair)
    return CopiedFrame.from_pairs(cf.w, r, cf.choices)


def _frame_with_converse_pair():
    # 3 points, kappa 3, indices 2 and 3 each other's converse, no r0[i] full
    pre = random_preframe(20, max_points=3, max_kappa=3)
    assert pre.conv[2] == 3 and all(len(pre.r0[i]) < 9 for i in pre.r0)
    return pre, build_copies(pre, choose(pre))


def _failed(report, name):
    bad = [k for k, v in report.properties.items() if not v.ok]
    assert name in bad, bad
    return report.properties[name].counterexample


def test_dropped_pair_fails_union():
    pre, cf = _frame_with_converse_pair()
    pair = max(cf.r[1])
    broken = _corrupt(cf, drop=[(1, pair)])
    gap = _failed(verify_contract(broken, pre), "union_covers")
    assert gap == pair
    assert not any(gap in ps for ps in broken.r.values())


def test_duplicated_pair_fails_disjointness():
    pre, cf = _frame_with_converse_pair()
    pair = max(cf.r[1])
    broken = _corrupt(cf, add=[(2, pair)])
    a, b, common = _failed(verify_contract(broken, pre), "pairwise_disjoint")
    assert a != b and common in broken.r[a] and common in broken.r[b]


def test_moved_pair_fails_converse():
    pre, cf = _frame_with_converse_pair()
    i = next(i for i, j in pre.conv.items() if i != j)
    (x, y) = max(p for p in cf.r[i] if p[0] != p[1])
    # keep the partition: (x, y) leaves i for another index
    other = next(k for k in cf.r if k != i)
    broken = _corrupt(cf, drop=[(i, (x, y))], add=[(other, (x, y))])
    k, pair = _failed(verify_contract(broken, pre), "converse_compatible")
    mirrored = {(b, a) for (a, b) in broken.r[k]}
    assert pair in mirrored ^ broken.r[pre.conv[k]]


def test_pair_outside_base_fails_projection():
    pre, cf = _frame_with_converse_pair()
    i, x, y = next((i, x, y) for i in cf.r for x in cf.w for y in cf.w
                   if (x[0], y[0]) not in pre.r0[i])
    owner = next(k for k in cf.r if (x, y) in cf.r[k])
    broken = _corrupt(cf, drop=[(owner, (x, y))], add=[(i, (x, y))])
    k, (u, v) = _failed(verify_contract(broken, pre), "projects_to_base")
    assert (u, v) not in pre.r0[k]
    assert any((a[0], b[0]) == (u, v) for (a, b) in broken.r[k])


def test_removed_lifted_pair_fails_lifting():
    pre, cf = _frame_with_converse_pair()
    m = 2 * pre.kappa + 1
    nu = 2
    u1, u2 = max(pre.r0[nu])
    lifted = ((u1, 3), (u2, (3 + nu) % m))
    broken = _corrupt(cf, drop=[(nu, lifted)], add=[(1, lifted)])
    k, ((a, mu), (b, level)) = _failed(verify_contract(broken, pre), "lifts_base_pairs")
    assert (a, b) in pre.r0[k] and level == (mu + k) % m
    assert ((a, mu), (b, level)) not in broken.r[k]


def test_verifier_shares_no_code_with_the_builder():
    def names(code):
        yield from code.co_names
        for const in code.co_consts:
            if hasattr(const, "co_names"):
                yield from names(const)

    used = set(names(verify_contract.__code__))
    assert not used & {"_default_index", "_index_table", "build_copies",
                       "ominus", "lessdot"}, used


def test_json_lists_w_and_pairs_in_point_then_level_order():
    pre = random_preframe(31, max_points=4, max_kappa=4)
    cf = build_copies(pre, choose(pre))
    data = json.loads(copied_to_json(cf, pre))
    pos = {u: k for k, u in enumerate(pre.points)}

    def key(x):
        return (pos[x[0]], x[1])

    assert data["w"] == sorted(data["w"], key=key)
    for i, pairs in data["r"].items():
        assert pairs == sorted(pairs, key=lambda p: (key(p[0]), key(p[1])))
        assert {(tuple(x), tuple(y)) for x, y in pairs} == cf.r[int(i)]


def test_build_deterministic_byte_for_byte():
    pre = random_preframe(31, max_points=4, max_kappa=4)
    a = copied_to_json(build_copies(pre, choose(pre)), pre)
    b = copied_to_json(build_copies(pre, choose(pre)), pre)
    assert a == b


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def test_preframe_json_round_trip():
    pre = random_preframe(41, max_points=4, max_kappa=3)
    again = preframe_from_data(json.loads(preframe_to_json(pre)))
    assert again == pre
    assert preframe_to_json(again) == preframe_to_json(pre)


def test_preframe_json_rejects_invalid():
    with pytest.raises(CopyingError):
        preframe_from_data({"points": ["u"], "kappa": 1, "conv": {"1": 1},
                            "r0": {"1": []}})  # coverage fails


_ONE_POINT = {"points": ["u"], "kappa": 1, "conv": {"1": 1}, "r0": {"1": [["u", "u"]]}}


@pytest.mark.parametrize("table", ["conv", "r0"])
@pytest.mark.parametrize("key", ["0_1", " +1 ", "01", "+1", "1 ", "\u0661"])
def test_preframe_keys_are_spelt_as_written(table, key):
    # int() reads each of these as 1, so "1" and "01" in one table would
    # silently collapse; only str(i), as preframe_to_json writes it, names i
    assert preframe_from_data(_ONE_POINT).conv == {1: 1}
    data = dict(_ONE_POINT, **{table: {key: _ONE_POINT[table]["1"]}})
    with pytest.raises(CopyingError, match="key"):
        preframe_from_data(data)


def test_kappa_is_checked_before_it_sizes_memory():
    import tracemalloc
    data = {"points": ["u"], "kappa": 1000000, "conv": {}, "r0": {}}
    tracemalloc.start()
    try:
        with pytest.raises(CopyingError, match="conv must be defined exactly on 1..kappa"):
            preframe_from_data(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    # a kappa that the tables match still names the first table that differs
    with pytest.raises(CopyingError, match="r0 must be defined exactly on 1..kappa"):
        preframe_from_data({"points": ["u"], "kappa": 1, "conv": {"1": 1}, "r0": {}})
    with pytest.raises(CopyingError, match="conv must be defined exactly on 1..kappa"):
        preframe_from_data({"points": ["u"], "kappa": 1, "conv": {"2": 1}, "r0": {"1": []}})
