"""Command-line interface: exit codes, output formats, determinism."""

import json

import pytest

from relsyl.cli import main
from relsyl.copying import preframe_to_json, random_preframe
from relsyl.semantics import Model, model_to_json


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


def test_corpus_run(capsys):
    code, out, _ = run(capsys, "corpus", "run")
    assert code == 0
    assert "18/18 ok" in out


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


@pytest.mark.parametrize("text", ["(" * 300 + "a <= b" + ")" * 300,
                                  "!" * 2000 + "a <= b"],
                         ids=["nested_parentheses", "negation_chain"])
def test_too_deep_input_exit_2(capsys, text):
    code, out, err = run(capsys, "parse", text)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


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


@pytest.mark.parametrize("content", [
    "mode: theorem\n1: a <= a ; mp x y\n",
    "mode: theorem\n1: a <= a ; R1 x p\n",
    "mode: theorem\n1 a <= a ; taut :\n",
], ids=["mp_reference", "rule_reference", "colon_after_justification"])
def test_malformed_proof_file_exit_2(capsys, tmp_path, content):
    _one_line_error(capsys, ["check-proof", None], content, tmp_path, "proof.txt")


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
    _one_line_error(capsys, ["--config", None, "sat", "true"],
                    '{"default_bound": 1.5}', tmp_path, "config.json")


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
