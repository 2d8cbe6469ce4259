"""Differential check of the whole index semantics: forms drawn from the
benchmark's seeded index-notation generator, evaluated by the engine,
print exactly the value numpy computes from the same integers."""

import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checks  # noqa: E402
import indexgen  # noqa: E402

from tensorlang import Interpreter  # noqa: E402
from tensorlang.values import format_value  # noqa: E402


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_generated_forms_agree_with_numpy(seed, data):
    program = indexgen.generate(seed)
    forms = data.draw(st.lists(st.sampled_from(program), min_size=1, max_size=4))
    results = Interpreter().run_source(indexgen.program_source(forms))
    assert len(results) == len(forms)
    for form, (_, value) in zip(forms, results):
        printed = format_value(value)
        assert checks.check_index_form(form, printed, indexgen.expected_value(form)), \
            (form.source, printed)
