"""The root layer's and the compat layer's outputs held to the committed
golden digests (``tests/golden``): a change that moves any verdict, count,
certificate, refinement or compat verdict of the corpus fails here and names
the first input it moved."""

import json
import signal

from golden.corpus import _COMPLEX_FOLDS, DIGESTS, cases, families, inputs

from interlace.edgewise import local_h
from interlace.realroots import _fold, _separators, _strip_x

# the corpus takes about 2.5 s on a 2-core VM; a change that makes one input
# loop fails at this limit instead of hanging the suite
LIMIT_S = 30


def test_the_root_layer_matches_the_golden_digests():
    expected = json.loads(DIGESTS.read_text())
    assert [name for name, _ in cases()] == list(expected), \
        "the corpus itself changed: regenerate and explain"
    current = None

    def stop(signum, frame):
        raise TimeoutError(f"the corpus took over {LIMIT_S} s, at {current}")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        for current, digest in cases():
            assert digest() == expected[current], f"the first digest that differs is {current}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_the_corpus_covers_each_family():
    names = [name for name, _ in inputs()]
    assert sum(name.startswith("local_h(") and "*" not in name for name in names) == 130
    assert sum(name.startswith("boundary local_h(") for name in names) == 6
    assert sum(name.startswith("E(") for name in names) == 522
    assert sum(name.startswith("seeded #") for name in names) == 200
    positive = [name for name in names if name.startswith("positive local_h(")]
    assert sum("*" not in name for name in positive) == 69
    assert sum(name.endswith("*(x+1)") for name in positive) == 69
    assert sum(name.startswith("root y=0 local_h(") for name in names) == 138
    names = [name for name, _, _ in families()]
    assert sum(name.startswith("compat E(") for name in names) == 30
    assert sum(name.startswith("compat T(E(") for name in names) == 30
    assert sum(name.startswith("compat seeded pair #") for name in names) == 30
    assert sum(name.startswith("compat (x+") for name in names) == 10
    assert sum(name.startswith("compat unchecked #") for name in names) == 40


def test_the_complex_folds_fail_their_proof():
    """The palindromes times a factor with complex fold roots reach the
    chain of the fold: their separators cannot be proven."""
    for g in _COMPLEX_FOLDS.values():
        q, s = _fold(_strip_x(local_h(6, 13) * g)[0])
        assert _separators(q.primitive(), s) is None
