"""The correctness gates fail on a single wrong or refused answer."""

import json

from benchmarks.e2e import serve


def answer(value):
    return json.dumps({"average_charge": value}).encode()


def test_served_results_pass_when_equal_to_in_process():
    expected = [12.5, 7.25, 3.0]
    answers = [(i % 3, 200, answer(expected[i % 3])) for i in range(9)]
    assert serve.served_mismatches(answers, expected) == []


def test_perturbing_one_served_result_fails_the_gate():
    expected = [12.5, 7.25, 3.0]
    answers = [(i % 3, 200, answer(expected[i % 3])) for i in range(9)]
    answers[4] = (1, 200, answer(expected[1] * (1 + 1e-7)))
    problems = serve.served_mismatches(answers, expected)
    assert len(problems) == 1 and "payload 1" in problems[0]


def test_refused_requests_count_as_failures():
    expected = [1.0]
    problems = serve.served_mismatches(
        [(0, 429, b'{"error": {}}'), (0, 503, b"")], expected
    )
    assert len(problems) == 2


def test_session_final_must_match_offline():
    good = serve.SessionRun(0, statuses=[201, 200, 200], final=answer(2.0))
    off = serve.SessionRun(1, statuses=[201, 200, 200],
                           final=answer(2.0 + 1e-6))
    refused = serve.SessionRun(2, statuses=[429])
    offline = {0: 2.0, 1: 2.0, 2: 2.0}
    assert serve.session_mismatches([good], offline) == []
    problems = serve.session_mismatches([good, off, refused], offline)
    assert len(problems) == 2
