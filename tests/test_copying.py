"""Level arithmetic, frame validation, and the copying construction."""

import dataclasses

import pytest

from relsyl.copying import (
    Choices, CopiedFrame, CopyingError, IndexArithmetic, PreFrame,
    build_copies, choose, copied_to_json, preframe_from_json, preframe_to_json,
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
    _simple_pre().validate()


def test_conv_must_be_involution():
    pre = dataclasses.replace(_simple_pre(), kappa=2,
                              conv={1: 2, 2: 2},
                              r0={1: frozenset(), 2: frozenset()})
    with pytest.raises(CopyingError):
        pre.validate()


def test_converse_coherence_enforced():
    pts = ("u", "v")
    pre = PreFrame(points=pts, kappa=2, conv={1: 2, 2: 1},
                   r0={1: frozenset({("u", "v")}),
                       2: frozenset({("u", "v")})})
    with pytest.raises(CopyingError, match="converse"):
        pre.validate()


def test_coverage_violation_names_pair():
    pts = ("u", "v")
    pre = PreFrame(points=pts, kappa=1, conv={1: 1},
                   r0={1: frozenset({("u", "u"), ("v", "v")})})
    with pytest.raises(CopyingError, match="covered"):
        pre.validate()


def test_diagonal_symmetry_violation_names_point():
    pts = ("u",)
    pre = PreFrame(points=pts, kappa=2, conv={1: 2, 2: 1},
                   r0={1: frozenset({("u", "u")}),
                       2: frozenset({("u", "u")})})
    with pytest.raises(CopyingError, match="'u'"):
        pre.validate()


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


def test_choose_rejects_invalid_frame():
    pts = ("u", "v")
    pre = PreFrame(points=pts, kappa=1, conv={1: 1},
                   r0={1: frozenset({("u", "u"), ("v", "v")})})
    with pytest.raises(CopyingError):
        choose(pre)


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
    broken = CopiedFrame(w=cf.w, r=r, choices=cf.choices)
    report = verify_contract(broken, pre)
    assert not report.ok
    bad = [name for name, res in report.properties.items() if not res.ok]
    assert bad


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
    again = preframe_from_json(preframe_to_json(pre))
    assert again == pre
    assert preframe_to_json(again) == preframe_to_json(pre)


def test_preframe_json_rejects_invalid():
    with pytest.raises(CopyingError):
        preframe_from_json("{nope")
    with pytest.raises(CopyingError):
        preframe_from_json('{"points": ["u"], "kappa": 1, "conv": {"1": 1}, '
                           '"r0": {"1": []}}')  # coverage fails
