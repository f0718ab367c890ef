"""Command-line interface: exit codes, output formats, determinism."""

import dataclasses
import json
import re

import pytest

from relsyl import copying, corpus, gen
from relsyl.cli import main
from relsyl.copying import preframe_to_json, random_preframe
from relsyl.proofs import JTaut
from relsyl.semantics import Model, eval_formula, model_from_data, model_to_json
from relsyl.syntax import MAX_DEPTH, Not, parse_formula


@pytest.fixture
def model_file(tmp_path):
    m = Model(domain=("x", "y"), rel={"r": frozenset({("x", "y")})},
              sets={"a": frozenset({"x"}), "b": frozenset({"y"})})
    path = tmp_path / "model.json"
    path.write_text(model_to_json(m))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parse / eval / translate
# ---------------------------------------------------------------------------

def test_parse_ok(capsys):
    code, out, _ = run(capsys, "parse", "EE(a,b)[r] -> true")
    assert code == 0
    assert out.strip() == "EE(a,b)[r] -> true"


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "parse", "EE(a,)[r]")
    assert code == 2
    assert "error" in err


def test_eval_true_false(capsys, model_file):
    code, out, _ = run(capsys, "eval", "EE(a,b)[r]", "--model", model_file)
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "eval", "EE(b,a)[r]", "--model", model_file)
    assert code == 1 and out.strip() == "false"


def test_eval_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "eval", "true", "--model", "/nonexistent.json")
    assert code == 2


def test_translate(capsys):
    code, out, _ = run(capsys, "translate", "AA(a,b)[r]")
    assert code == 0
    assert out.strip() == "[1](a -> [-r]!b)"


def test_json_format(capsys):
    code, out, _ = run(capsys, "--format", "json", "parse", "a = b")
    assert code == 0
    data = json.loads(out)
    assert data == {"ok": True, "formula": "a = b"}


# ---------------------------------------------------------------------------
# solver commands
# ---------------------------------------------------------------------------

def test_sat_prints_witness(capsys):
    code, out, _ = run(capsys, "sat", "EE(a,b)[r] & !AA(a,b)[r]",
                       "--bound", "3")
    assert code == 0
    assert out.splitlines()[0] == "Sat"
    assert '"domain"' in out


def test_sat_negative_exit(capsys):
    code, out, _ = run(capsys, "sat", "EE(a,b)[0]", "--bound", "3")
    assert code == 1
    assert out.strip() == "UnsatUpTo(3)"


def test_calls_in_one_process_share_no_arguments(capsys):
    # the argument parser is built once and reused by every call
    code, out, _ = run(capsys, "--format", "json", "entails", "--bound", "2",
                       "--premise", "a <= b", "--premise", "b <= c", "a <= c")
    assert code == 0
    assert json.loads(out) == {"verdict": "NoCountermodelUpTo", "bound": 2}
    # a <= b from the first call would make this entailment hold
    code, out, _ = run(capsys, "entails", "--premise", "b <= c", "a <= c")
    assert code == 1 and out.splitlines()[0] == "CountermodelFound"
    code, out, _ = run(capsys, "entails", "--premise", "a <= b", "a <= b")
    assert code == 0 and out.strip() == "NoCountermodelUpTo(4)"


def test_valid_no_countermodel(capsys):
    code, out, _ = run(capsys, "valid", "EA(a,b)[r] -> AE(b,a)[r^]",
                       "--bound", "4")
    assert code == 0
    assert out.strip() == "NoCountermodelUpTo(4)"


def test_valid_countermodel_exit_1(capsys):
    code, out, _ = run(capsys, "valid", "AE(a,b)[r] -> EE(a,b)[r]")
    assert code == 1
    assert out.splitlines()[0] == "CountermodelFound"


def test_entails(capsys):
    code, out, _ = run(capsys, "entails", "AE(c,b)[r]",
                       "--premise", "AE(a,b)[r]", "--premise", "c <= a")
    assert code == 0
    assert out.strip() == "NoCountermodelUpTo(4)"


def test_minimize(capsys, model_file):
    code, out, _ = run(capsys, "minimize", "EE(a,b)[r]",
                       "--model", model_file)
    assert code == 0
    data = json.loads(out)
    assert set(data["domain"]) == {"x", "y"}


def test_minimize_precondition_exit_2(capsys, model_file):
    code, _, err = run(capsys, "minimize", "AE(a,b)[r]",
                       "--model", model_file)
    assert code == 2


# ---------------------------------------------------------------------------
# proofs
# ---------------------------------------------------------------------------

def test_check_proof(capsys, tmp_path):
    path = tmp_path / "proof.txt"
    path.write_text(
        "mode: theorem\n"
        "1: AE(a,b)[r] -> a*p = 0 | EE(p,b)[r] ; axiom AL1\n"
        "2: AE(a,b)[r] -> AE(a,b)[r] ; R1 1 p\n")
    code, out, _ = run(capsys, "check-proof", str(path))
    assert code == 0
    assert out.startswith("ok:")


def test_check_proof_rejected(capsys, tmp_path):
    path = tmp_path / "proof.txt"
    path.write_text("mode: theorem\n1: a <= b ; axiom BA_REFL\n")
    code, out, _ = run(capsys, "check-proof", str(path))
    assert code == 1
    assert "rejected at line 1" in out


def test_check_proof_of_an_empty_proof(capsys, tmp_path):
    # the text output used to read "rejected at line None: empty proof"
    path = tmp_path / "proof.txt"
    path.write_text("mode: theorem\n")
    code, out, _ = run(capsys, "check-proof", str(path))
    assert (code, out) == (1, "rejected: empty proof\n")
    code, out, _ = run(capsys, "--format", "json", "check-proof", str(path))
    assert code == 1
    assert json.loads(out) == {"ok": False, "bad_line": None, "reason": "empty proof"}


def test_check_proof_of_a_deep_negation_chain(capsys, tmp_path):
    path = tmp_path / "proof.txt"
    path.write_text("mode: theorem\n1: " + "!" * 600 + "true ; taut\n")
    code, out, err = run(capsys, "check-proof", str(path))
    assert (code, err) == (0, "")
    assert out.startswith("ok:")


@pytest.mark.parametrize("n", [330, 600])
def test_check_proof_compares_deep_mp_lines(capsys, tmp_path, n):
    x = "!" * n + "(a <= a)"
    path = tmp_path / "proof.txt"
    path.write_text(f"mode: theorem\n1: {x} -> {x} ; taut\n"
                    f"2: ({x} -> {x}) -> ({x} -> {x}) ; taut\n"
                    f"3: {x} -> {x} ; mp 1 2\n")
    code, out, err = run(capsys, "check-proof", str(path))
    assert (code, err) == (0, "")
    assert out.startswith("ok:")


def test_corpus_run(capsys):
    code, out, _ = run(capsys, "corpus", "run")
    assert code == 0
    assert "18/18 ok" in out


def test_corpus_run_reports_a_rejected_proof(capsys, monkeypatch):
    entry = corpus.paper_corpus()[0]
    k, line = next((k, ln) for k, ln in enumerate(entry.proof.lines)
                   if isinstance(ln.justification, JTaut))
    lines = list(entry.proof.lines)
    lines[k] = dataclasses.replace(line, formula=Not(line.formula))
    mutated = dataclasses.replace(entry, proof=dataclasses.replace(entry.proof,
                                                                  lines=tuple(lines)))
    monkeypatch.setattr(corpus, "paper_corpus", lambda: [mutated])
    code, out, _ = run(capsys, "corpus", "run")
    assert code == 1
    assert out.splitlines() == ["sec3_worked: REJECTED not a tautology", "0/1 ok"]
    code, out, _ = run(capsys, "--format", "json", "corpus", "run")
    assert code == 1
    assert json.loads(out) == {"ok": False, "results": [
        {"name": "sec3_worked", "ok": False, "bad_line": 6, "reason": "not a tautology"}]}


def test_corpus_list(capsys):
    code, out, _ = run(capsys, "--format", "json", "corpus", "list")
    assert code == 0
    names = [p["name"] for p in json.loads(out)["proofs"]]
    assert "sec3_worked" in names


# ---------------------------------------------------------------------------
# copying / fuzz / english
# ---------------------------------------------------------------------------

def test_copy_build(capsys, tmp_path):
    pre = random_preframe(5, max_points=3, max_kappa=2)
    path = tmp_path / "frame.json"
    path.write_text(preframe_to_json(pre))
    code, out, _ = run(capsys, "copy-build", str(path))
    assert code == 0
    assert "lifts_base_pairs: ok" in out
    # both formats print the same frame
    code, out_json, _ = run(capsys, "--format", "json", "copy-build", str(path))
    assert code == 0
    frame_text = out[:out.index("\nunion_covers: ok")]
    assert json.loads(out_json)["frame"] == json.loads(frame_text)


def test_copy_build_reports_a_failed_property(capsys, tmp_path, monkeypatch):
    build = copying.build_copies

    def dropping_build(pre, choices):
        # drop ((u0, 0), (u0, 0)) from whichever index holds it
        cf = build(pre, choices)
        rows = {i: (r[0] & ~1,) + r[1:] for i, r in cf.rows.items()}
        return dataclasses.replace(cf, rows=rows)

    monkeypatch.setattr(copying, "build_copies", dropping_build)
    pre = random_preframe(5, max_points=3, max_kappa=2)
    path = tmp_path / "frame.json"
    path.write_text(preframe_to_json(pre))
    missing = "(('u0', 0), ('u0', 0))"
    code, out, _ = run(capsys, "copy-build", str(path))
    assert code == 1
    assert out.splitlines()[-5:] == [
        f"union_covers: FAIL {missing}", "pairwise_disjoint: ok",
        "converse_compatible: ok", "projects_to_base: ok", "lifts_base_pairs: ok"]
    code, out, _ = run(capsys, "--format", "json", "copy-build", str(path))
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    assert data["contract"] == {
        "union_covers": {"ok": False, "counterexample": missing},
        "pairwise_disjoint": {"ok": True}, "converse_compatible": {"ok": True},
        "projects_to_base": {"ok": True}, "lifts_base_pairs": {"ok": True}}
    assert not any([["u0", 0], ["u0", 0]] in pairs for pairs in data["frame"]["r"].values())


def test_copy_build_invalid_frame(capsys, tmp_path):
    path = tmp_path / "frame.json"
    path.write_text('{"points": ["u"], "kappa": 1, "conv": {"1": 1}, '
                    '"r0": {"1": []}}')
    code, _, err = run(capsys, "copy-build", str(path))
    assert code == 2


def test_fuzz_requires_seed(capsys):
    code, _, err = run(capsys, "fuzz", "--instances", "10")
    assert code == 2
    assert "seed" in err


def test_fuzz_clean_run(capsys):
    code, out, _ = run(capsys, "fuzz", "--seed", "3", "--instances", "200")
    assert code == 0
    assert "0 falsified" in out


def test_fuzz_reports_falsified_instances(capsys, monkeypatch):
    monkeypatch.setattr(gen, "random_axiom_instance",
                        lambda name, rng: parse_formula("EE(a,b)[r]"))
    argv = ("fuzz", "--seed", "3", "--instances", "8", "--max-size", "2")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    # six of the eight models falsify it, and five are listed
    assert out.splitlines() == [
        "8 instances, 6 falsified", "FALSIFIED BA_REFL: EE(a,b)[r]",
        "FALSIFIED BA_MEET_L: EE(a,b)[r]", "FALSIFIED BA_MEET_R: EE(a,b)[r]",
        "FALSIFIED BA_MEET_GLB: EE(a,b)[r]", "FALSIFIED BA_JOIN_L: EE(a,b)[r]"]
    code, out, _ = run(capsys, "--format", "json", *argv)
    assert code == 1
    data = json.loads(out)
    assert set(data) == {"instances", "failures"} and data["instances"] == 8
    assert len(data["failures"]) == 6
    for fail in data["failures"]:
        assert set(fail) == {"axiom", "formula", "model"}
        assert fail["formula"] == "EE(a,b)[r]"
        assert not eval_formula(model_from_data(fail["model"]), parse_formula("EE(a,b)[r]"))


def test_from_english(capsys, tmp_path):
    lex = tmp_path / "lex.json"
    lex.write_text(json.dumps({"nouns": {"man": "m", "animal": "n"},
                               "verbs": {"likes": "l"}}))
    code, out, _ = run(capsys, "from-english", "Every man likes some animal",
                       "--reading", "ows", "--lexicon", str(lex))
    assert code == 0
    assert out.strip() == "EA(n,m)[l^]"


def test_identical_invocations_identical_output(capsys):
    a = run(capsys, "sat", "EE(a,b)[r]", "--bound", "2")
    b = run(capsys, "sat", "EE(a,b)[r]", "--bound", "2")
    assert a == b


# ---------------------------------------------------------------------------
# regressions: errors exit 2, never 1 and never with a traceback
# ---------------------------------------------------------------------------

def test_config_cannot_lower_the_completeness_threshold(capsys, tmp_path):
    # A threshold constant of 0 once made bound 1 claim Valid although
    # bound 2 finds a countermodel; the knob no longer exists.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"threshold_constant": 0}))
    code, out, err = run(capsys, "--config", str(config), "valid", "--bound", "1",
                         "EE(a,b)[r] -> AA(a,b)[r]")
    assert code == 2
    assert "bad config file" in err
    assert out == ""
    code, out, _ = run(capsys, "valid", "--bound", "2", "EE(a,b)[r] -> AA(a,b)[r]")
    assert code == 1 and out.startswith("CountermodelFound")


def test_config_keeps_bound_and_seed(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"default_bound": 1, "random_seed": 3}))
    code, out, _ = run(capsys, "--config", str(config), "sat", "EE(a,b)[r] & !AA(a,b)[r]")
    assert code == 1 and out.strip() == "UnsatUpTo(1)"


@pytest.mark.parametrize("text", ["(" * 10_000 + "a <= b" + ")" * 10_000,
                                  "!" * 2000 + "a <= b"],
                         ids=["nested_parentheses", "negation_chain"])
def test_too_deep_input_exit_2(capsys, text):
    code, out, err = run(capsys, "parse", text)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# Each input shape: its text with n repetitions, and the n that parse, the
# largest of them putting the deepest node at MAX_DEPTH.  A node's depth
# counts each formula node above it once, each term node three times and
# each parenthesis around it twice.  At those n each formula holds in the
# model file, as `minimize` requires.
_DEEP_SHAPES = {
    "and_chain": (lambda n: "a <= a" + " & a <= a" * n, [MAX_DEPTH - 1]),
    "or_chain": (lambda n: "a <= a" + " | a <= a" * n, [MAX_DEPTH - 1]),
    "implies_chain": (lambda n: "a <= a -> " * n + "a <= a", [MAX_DEPTH - 1]),
    "iff_chain": (lambda n: "a <= a" + " <-> a <= a" * n, [MAX_DEPTH - 1]),
    "negations": (lambda n: "!" * n + "a <= b", [MAX_DEPTH - 1]),
    "parentheses": (lambda n: "(" * n + "a <= a" + ")" * n, [300, (MAX_DEPTH - 1) // 2]),
    "set_parentheses": (lambda n: "(" * n + "a" + ")" * n + " <= a", [(MAX_DEPTH - 1) // 2]),
    "set_join_chain": (lambda n: "a" + "+a" * n + " <= a", [(MAX_DEPTH - 1) // 3]),
    "set_meet_chain": (lambda n: "a" + "*a" * n + " <= a", [(MAX_DEPTH - 1) // 3]),
    "complements": (lambda n: "-" * n + "a <= b", [(MAX_DEPTH - 1) // 3]),
    "rel_join_chain": (lambda n: "EE(a,b)[r" + "+r" * n + "]", [(MAX_DEPTH - 1) // 3]),
    "converses": (lambda n: "EE(b,a)[r" + "^" * n + "]", [(MAX_DEPTH - 1) // 3]),
    "equality_of_joins": (lambda n: "{0} <= a & a <= {0}".format("a" + "+a" * n),
                          [(MAX_DEPTH - 2) // 3]),
}

_FORMULA_VERBS = {
    "parse": ["parse"], "eval": ["eval", "--model", None], "sat": ["sat", "--bound", "1"],
    "valid": ["valid", "--bound", "1"],
    "entails": ["entails", "--bound", "1", "--premise", "a <= b"],
    "translate": ["translate"], "minimize": ["minimize", "--model", None],
}


@pytest.mark.parametrize("verb", _FORMULA_VERBS)
@pytest.mark.parametrize("shape", _DEEP_SHAPES)
def test_nesting_limit_of_every_formula_argument(capsys, model_file, shape, verb):
    text, parses = _DEEP_SHAPES[shape]
    argv = [model_file if a is None else a for a in _FORMULA_VERBS[verb]]
    for n in parses:
        code, _, err = run(capsys, *argv, text(n))
        assert code in (0, 1) and err == "", (n, err)
    for n in (max(parses) + 1, 10_000):
        code, out, err = run(capsys, *argv, text(n))
        assert (code, out) == (2, ""), n
        assert re.fullmatch(r"error: parse error: input nested too deeply "
                            r"at line 1, column \d+\n", err), (n, err)


def test_premise_in_theorem_mode_exit_2(capsys, tmp_path):
    path = tmp_path / "proof.txt"
    path.write_text("mode: theorem\npremise: false\n1: a <= a ; axiom BA_REFL\n")
    code, out, err = run(capsys, "check-proof", str(path))
    assert code == 2
    assert out == ""
    assert "bad proof file" in err


def _one_line_error(capsys, argv, content, tmp_path, name):
    path = tmp_path / name
    path.write_text(content)
    code, out, err = run(capsys, *[str(path) if a is None else a for a in argv])
    assert code == 2, err
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert str(path) in err, err
    return err


@pytest.mark.parametrize("content", [
    "mode: theorem\n1: a <= a ; mp x y\n",
    "mode: theorem\n1: a <= a ; R1 x p\n",
    "mode: theorem\n1 a <= a ; taut :\n",
    "mode: theorem\n1: a <= a ;\n",
    "mode: theorem\n1: a <= a ; axiom NOPE\n",
    "mode: lemma\n1: a <= a ; taut\n",
    "mode: theorem\nx: a <= a ; taut\n",
], ids=["mp_reference", "rule_reference", "colon_after_justification",
        "no_justification", "unknown_axiom", "unknown_mode", "line_index"])
def test_malformed_proof_file_exit_2(capsys, tmp_path, content):
    _one_line_error(capsys, ["check-proof", None], content, tmp_path, "proof.txt")


@pytest.mark.parametrize("content, where", [
    ("mode: premises\n# the premise\npremise: a <= b & c\n1: a <= b ; premise\n",
     "unexpected token '<end of input>' at line 3, column 20"),
    ("mode: theorem\n\n# a bad atom\n  12:  a <= b -> EE(a,)[r] ; taut\n",
     "line 12: unexpected token ')' at line 4, column 23"),
    ("mode: theorem\n# page\fbreak\n1: a <= b ; taut\n2: a <= ; taut\n",
     "line 2: unexpected token '<end of input>' at line 4, column 9"),
], ids=["premise", "proof_line", "form_feed_in_comment"])
def test_proof_file_parse_error_gives_the_file_position(capsys, tmp_path, content, where):
    err = _one_line_error(capsys, ["check-proof", None], content, tmp_path, "proof.txt")
    assert where in err, err


@pytest.mark.parametrize("content", [
    '{"domain": 5}',
    '{"domain": ["x"], "rel": {"r": [["x"]]}}',
    '{"domain": ["x"], "set": {"a": 5}}',
    '{"domain": ["x"], "set": [1]}',
    '{"domain": [["x"]]}',
    '{"domain": "xy", "set": {"a": "x"}}',
    '{"domain": ["x", "y"], "set": {"a": "x"}}',
    '{"domain": ["x", "y"], "rel": {"r": ["xy"]}}',
], ids=["domain_number", "short_pair", "members_number", "sets_list",
        "unhashable_point", "domain_string", "members_string", "pair_string"])
def test_malformed_model_file_exit_2(capsys, tmp_path, content):
    _one_line_error(capsys, ["eval", "true", "--model", None], content,
                    tmp_path, "model.json")


@pytest.mark.parametrize("content", [
    "[1]",
    '{"nouns": 5, "verbs": {}}',
    '{"nouns": {"dog": [1]}, "verbs": {}}',
    '{"nouns": {}}',
], ids=["list", "nouns_number", "unhashable_name", "no_verbs"])
def test_malformed_lexicon_exit_2(capsys, tmp_path, content):
    _one_line_error(capsys, ["from-english", "Every dog sees some cat",
                             "--lexicon", None], content, tmp_path, "lex.json")


def test_malformed_config_bound_exit_2(capsys, tmp_path):
    """A bound or seed of the wrong type, bools included, is a usage error."""
    frame = tmp_path / "frame.json"
    frame.write_text(preframe_to_json(random_preframe(5, max_points=3, max_kappa=2)))
    for command, content in (
        (["sat", "true"], '{"default_bound": 1.5}'),
        (["sat", "false"], '{"default_bound": true}'),
        (["fuzz"], '{"random_seed": [1]}'),
        (["fuzz"], '{"random_seed": true}'),
        (["copy-build", str(frame), "--policy", "random"], '{"random_seed": [1]}'),
    ):
        _one_line_error(capsys, ["--config", None, *command], content, tmp_path,
                        "config.json")


@pytest.mark.parametrize("argv", [
    ["sat", "true", "--bound", "-1"],
    ["valid", "true", "--bound", "-1"],
    ["entails", "true", "--bound", "-1"],
    ["sat", "true", "--bound", "x"],
    ["fuzz", "--seed", "1", "--max-size", "-1"],
    ["fuzz", "--seed", "1", "--instances", "-1"],
], ids=["sat", "valid", "entails", "not_a_number", "max_size", "instances"])
def test_negative_numeric_flag_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "want a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    '{"nouns": {"dogs": "1", "cats": "c"}, "verbs": {"chase": "r"}}',
    '{"nouns": {"dogs": "d", "cats": "true"}, "verbs": {"chase": "r"}}',
    '{"nouns": {"dogs": "d", "cats": "c"}, "verbs": {"chase": "r s"}}',
], ids=["digit", "keyword", "space"])
def test_lexicon_name_not_an_identifier_exit_2(capsys, tmp_path, content):
    _one_line_error(capsys, ["from-english", "Some dogs chase every cats",
                             "--lexicon", None], content, tmp_path, "lex.json")


_PAIRS = '[["u", "u"], ["u", "v"], ["v", "u"], ["v", "v"]]'


@pytest.mark.parametrize("content", [
    '{"points": "uv", "kappa": 1, "conv": {"1": 1}, "r0": {"1": ["uu", "uv", "vu", "vv"]}}',
    '{"points": ["u", "v"], "kappa": 1, "conv": {"1": 1}, "r0": {"1": ["uu", "uv", "vu", "vv"]}}',
    '{"points": ["u", "v"], "kappa": 1, "conv": {"1": 1}, "r0": {"1": "uv"}}',
    '{"points": ["u", "v"], "kappa": 1.9, "conv": {"1": 1}, "r0": {"1": %s}}' % _PAIRS,
    '{"points": ["u", "v"], "kappa": "1", "conv": {"1": 1}, "r0": {"1": %s}}' % _PAIRS,
    '{"points": ["u", "v"], "kappa": true, "conv": {"1": 1}, "r0": {"1": %s}}' % _PAIRS,
    '{"points": ["u", "v"], "kappa": 1, "conv": {"1": 1.9}, "r0": {"1": %s}}' % _PAIRS,
    '{"points": ["u", "v"], "kappa": 1, "conv": [1], "r0": {"1": %s}}' % _PAIRS,
    '{"points": ["u", 1], "kappa": 2, "conv": {"1": 1, "2": 2}, '
    '"r0": {"1": [["u", "u"], [1, 1], ["u", 1], [1, "u"]], "2": [["u", 1]]}}',
    '[1]',
    # int() reads each of these keys as 1
    '{"points": ["u"], "kappa": 1, "conv": {"0_1": 1}, "r0": {"1": [["u", "u"]]}}',
    '{"points": ["u"], "kappa": 1, "conv": {"1": 1}, "r0": {" +1 ": [["u", "u"]]}}',
    '{"points": ["u"], "kappa": 1, "conv": {"01": 1}, "r0": {"1": [["u", "u"]]}}',
    '{"points": [], "kappa": 1, "conv": {"1": 1}, "r0": {"1": []}}',
    '{"points": ["u", "u"], "kappa": 1, "conv": {"1": 1}, "r0": {"1": [["u", "u"]]}}',
    '{"points": ["u"], "kappa": 1, "conv": {"1": 2}, "r0": {"1": [["u", "u"]]}}',
    '{"points": ["u"], "kappa": 1, "conv": {"1": 1}, "r0": {"1": [["u", "v"]]}}',
], ids=["points_string", "pair_string", "pairs_string", "kappa_float",
        "kappa_string", "kappa_bool", "conv_float", "conv_list", "point_number", "list",
        "key_underscore", "key_spaced_sign", "key_leading_zero", "no_points",
        "duplicate_points", "conv_outside_kappa", "unknown_point"])
def test_malformed_frame_file_exit_2(capsys, tmp_path, content):
    err = _one_line_error(capsys, ["copy-build", None], content, tmp_path, "frame.json")
    assert err.startswith("error: bad frame file"), err


# ---------------------------------------------------------------------------
# every verdict class, in both formats
# ---------------------------------------------------------------------------

_W0 = {"domain": ["w0"], "rel": {"r": [["w0", "w0"]]},
       "set": {"a": ["w0"], "b": ["w0"]}}
_EMPTY = {"domain": [], "rel": {"r": []}, "set": {"a": [], "b": []}}
_A_NOT_C = {"domain": ["w0"], "rel": {}, "set": {"a": ["w0"], "b": [], "c": []}}


@pytest.mark.parametrize("argv, code, payload", [
    (["sat", "EE(a,b)[r]", "--bound", "1"], 0, {"verdict": "Sat", "witness": _W0}),
    (["sat", "false", "--bound", "2"], 1, {"verdict": "Unsat"}),
    (["sat", "EE(a,b)[0]", "--bound", "2"], 1, {"verdict": "UnsatUpTo", "bound": 2}),
    (["valid", "true", "--bound", "4"], 0, {"verdict": "Valid"}),
    (["valid", "AE(a,b)[r] -> EE(a,b)[r]", "--bound", "2"], 1,
     {"verdict": "CountermodelFound", "countermodel": _EMPTY}),
    (["valid", "a <= a + b", "--bound", "2"], 0,
     {"verdict": "NoCountermodelUpTo", "bound": 2}),
    (["entails", "true", "--bound", "4"], 0, {"verdict": "Valid"}),
    (["entails", "a <= c", "--premise", "b <= c", "--bound", "2"], 1,
     {"verdict": "CountermodelFound", "countermodel": _A_NOT_C}),
    (["entails", "EE(a,b)[r]", "--premise", "false", "--bound", "4"], 0,
     {"verdict": "NoCountermodelUpTo", "bound": 4}),
], ids=["sat", "unsat", "unsat_up_to", "valid", "countermodel",
        "no_countermodel", "entails_valid", "entails_countermodel",
        "entails_no_countermodel"])
def test_every_verdict_in_both_formats(capsys, argv, code, payload):
    assert run(capsys, "--format", "json", *argv) == (
        code, json.dumps(payload, indent=2) + "\n", "")
    # text: the verdict, with its bound, then the model it carries
    verdict = payload["verdict"]
    if "bound" in payload:
        verdict += f"({payload['bound']})"
    lines = [verdict] + [json.dumps(m, indent=2) for k, m in payload.items()
                         if k in ("witness", "countermodel")]
    assert run(capsys, *argv) == (code, "\n".join(lines) + "\n", "")


def test_entails_reports_the_premise_error_first(capsys):
    code, out, err = run(capsys, "entails", "a <=", "--premise", "b <= c",
                         "--premise", "((")
    assert (code, out) == (2, "")
    assert err == ("error: parse error: unexpected token '<end of input>' at line 1, "
                   "column 3 (expected one of: (, -, 0, 1, ident)\n")


# A JSON file that the decoder refuses is the file's fault, not a formula's:
# the one error line names the file.  The contents: nesting past the
# recursion limit, an integer past Python's 4,300-digit conversion limit,
# and a missing comma.
_BAD_JSON = {"": "[" * 50_000 + "]" * 50_000,
             "_digits": '{"n": ' + "1" * 5_000 + "}",
             "_invalid": '{"nouns": {"dog": "d"} "verbs": {}}'}
_JSON_INPUTS = {
    "model": ["eval", "true", "--model", None],
    "minimize": ["minimize", "true", "--model", None],
    "frame": ["copy-build", None],
    "lexicon": ["from-english", "Every dog sees some cat", "--lexicon", None],
    "config": ["--config", None, "sat", "true"],
}


@pytest.mark.parametrize("argv, content", [
    pytest.param(argv, content, id=name + suffix)
    for suffix, content in _BAD_JSON.items() for name, argv in _JSON_INPUTS.items()])
def test_too_deep_json_file_exit_2(capsys, tmp_path, argv, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    code, out, err = run(capsys, *[str(path) if a is None else a for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1, err
    assert "formula" not in err, err


@pytest.mark.parametrize("argv", [
    ["eval", "true", "--model", None],
    ["minimize", "true", "--model", None],
    ["check-proof", None],
    ["copy-build", None],
    ["from-english", "Every dog sees some cat", "--lexicon", None],
    ["--config", None, "sat", "true"],
], ids=["eval", "minimize", "proof", "frame", "lexicon", "config"])
def test_non_utf8_file_exit_2(capsys, tmp_path, argv):
    path = tmp_path / "bad.txt"
    path.write_bytes(b'{"points": ["\xff"]}\n')
    code, out, err = run(capsys, *[str(path) if a is None else a for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read") and err.count("\n") == 1, err
