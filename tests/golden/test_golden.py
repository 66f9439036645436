"""Every golden call still prints what the corpus recorded (see corpus.py)."""

import pytest

from corpus import corpus, load_expected, mismatch, read_exit_codes, run

CALLS = corpus()
EXIT_CODES = read_exit_codes()


def test_every_expected_file_has_a_call():
    names = {call.name for call in CALLS}
    assert set(EXIT_CODES) == names


@pytest.mark.parametrize("call", CALLS, ids=lambda call: call.name)
def test_golden(call):
    want = load_expected(call, EXIT_CODES)
    assert want is not None, f"no expected output for {call.name}; run tests/golden/regen.py"
    why = mismatch(call, want, run(call))
    assert why is None, why
