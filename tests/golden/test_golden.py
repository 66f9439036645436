"""Every golden call still prints what the corpus recorded (see corpus.py)."""

import json

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


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_every_json_output_parses_strictly():
    parsed = 0
    for call in CALLS:
        if "--format" in call.argv and call.argv[call.argv.index("--format") + 1] == "json":
            _, stdout, _ = load_expected(call, EXIT_CODES)
            if stdout:
                json.loads(stdout, parse_constant=_refuse_constant)
                parsed += 1
    assert parsed >= 48  # the JSON calls that print a document
