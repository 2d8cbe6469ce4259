from tensorlang import golden


def test_corpus_is_large_enough():
    cases = golden.load_cases()
    assert len(cases) >= 30


def test_every_case_passes():
    results = golden.run_suite()
    failing = [(r.case.name, r.failures) for r in results if not r.passed]
    assert not failing, failing


def test_expectation_parsing_modes(tmp_path):
    src = "(+ 1 2)\n;=> 3\n(/ 1 2)\n;=> (/ 1 2)\n"
    p = tmp_path / "modes.tl"
    p.write_text(src, encoding="utf-8")
    case = golden.load_case(p)
    assert [(e.text, e.line) for e in case.expectations] == [("3", 2), ("(/ 1 2)", 4)]
    result = golden.run_case(case)
    assert result.passed and result.checks == 2


def test_corrupted_expectation_is_reported_not_thrown(tmp_path):
    good = tmp_path / "good.tl"
    good.write_text("(+ 1 1)\n;=> 2\n", encoding="utf-8")
    bad = tmp_path / "bad.tl"
    bad.write_text("(+ 1 1)\n;=> 3\n", encoding="utf-8")
    results = golden.run_suite(directory=tmp_path)
    outcome = {r.case.name: r.passed for r in results}
    assert outcome == {"bad": False, "good": True}
    (failing,) = [r for r in results if not r.passed]
    assert failing.failures


def test_dummy_renaming_equivalence(tmp_path):
    # expectations with '#' compare structurally, whatever the dummy ids are
    p = tmp_path / "dummies.tl"
    p.write_text(
        "(+ [|1 2|]_# [|3 4|]_#)\n;=> [|[|4 5|] [|5 6|]|]_#_#\n",
        encoding="utf-8")
    (result,) = golden.run_suite(directory=tmp_path)
    assert result.passed


def test_whitespace_insensitive_tokens(tmp_path):
    p = tmp_path / "spaces.tl"
    p.write_text("(. [|1 2 3|]_i [|10 20 30|]_i)\n;=> [| 10  40  90 |]_i\n",
                 encoding="utf-8")
    (result,) = golden.run_suite(directory=tmp_path)
    assert result.passed


def test_detached_suffix_or_body_is_not_the_glued_form():
    # a detached index chain or shorthand body is a different program
    texts = golden._token_texts
    assert texts("x _i") != texts("x_i") == ["x_i"]
    assert texts("2# x") != texts("2#x") == ["2#x"]
    assert texts("(f 2#3#y~i_j)") == ["(", "f", "2#3#y~i_j", ")"]
    assert texts("[| 10  40 |]_i") == texts("[|10 40|]_i")
