"""Stemmer verification.

Two independent routes guard the stemmer:

1. A frozen list of end-to-end word/stem pairs (tests/assets/
   porter_pairs.tsv), each traced by hand through every step.
2. A second stemmer implemented here as data: the same frozen rule set
   expressed as suffix tables interpreted by a generic longest-match
   engine. The production code is a hand-ordered chain of string
   checks, so a bug has to appear twice, in two different shapes, for
   the comparison over a large generated vocabulary to stay silent.
"""

import itertools
import os
import random

from polilean.porter import stem

from conftest import ASSETS

# ----------------------------------------------------------------------
# oracle: rule tables + longest-match interpreter


def _is_vowel(word: str, i: int) -> bool:
    ch = word[i]
    if ch in "aeiou":
        return True
    if ch == "y":
        return i > 0 and not _is_vowel(word, i - 1)
    return False


def _form(stem_: str) -> str:
    return "".join("v" if _is_vowel(stem_, i) else "c" for i in range(len(stem_)))


def _m(stem_: str) -> int:
    """Measure = number of vowel-to-consonant transitions."""
    collapsed = "".join(ch for ch, _ in itertools.groupby(_form(stem_)))
    return collapsed.count("vc")


def _contains_vowel(stem_: str) -> bool:
    return "v" in _form(stem_)


def _double_consonant(stem_: str) -> bool:
    return len(stem_) >= 2 and stem_[-1] == stem_[-2] and _form(stem_)[-1] == "c"


def _cvc(stem_: str) -> bool:
    return len(stem_) >= 3 and _form(stem_)[-3:] == "cvc" and stem_[-1] not in "wxy"


def _always(_root: str) -> bool:
    return True


def _m_pos(root: str) -> bool:
    return _m(root) > 0


def _m_gt1(root: str) -> bool:
    return _m(root) > 1


STEP1A = [("sses", "ss", _always), ("ies", "i", _always),
          ("ss", "ss", _always), ("s", "", _always)]

STEP2 = [(s, r, _m_pos) for s, r in [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
    ("anci", "ance"), ("izer", "ize"), ("abli", "able"), ("alli", "al"),
    ("entli", "ent"), ("eli", "e"), ("ousli", "ous"), ("ization", "ize"),
    ("ation", "ate"), ("ator", "ate"), ("alism", "al"),
    ("iveness", "ive"), ("fulness", "ful"), ("ousness", "ous"),
    ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"), ("logi", "log"),
]]

STEP3 = [(s, r, _m_pos) for s, r in [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]]

STEP4 = [(s, "", _m_gt1) for s in [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]] + [("ion", "", lambda root: _m(root) > 1 and root[-1:] in ("s", "t"))]


def _apply_step(word: str, rules) -> str:
    """Longest matching suffix wins; a failed condition changes nothing."""
    hits = [r for r in rules if word.endswith(r[0])]
    if not hits:
        return word
    suffix, repl, cond = max(hits, key=lambda r: len(r[0]))
    root = word[: len(word) - len(suffix)]
    return root + repl if cond(root) else word


def _step1b(word: str) -> str:
    hits = [s for s in ("eed", "ed", "ing") if word.endswith(s)]
    if not hits:
        return word
    suffix = max(hits, key=len)
    root = word[: len(word) - len(suffix)]
    if suffix == "eed":
        return root + "ee" if _m(root) > 0 else word
    if not _contains_vowel(root):
        return word
    if root.endswith(("at", "bl", "iz")):
        return root + "e"
    if _double_consonant(root) and root[-1] not in "lsz":
        return root[:-1]
    if _m(root) == 1 and _cvc(root):
        return root + "e"
    return root


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _step5(word: str) -> str:
    if word.endswith("e"):
        root = word[:-1]
        m = _m(root)
        if m > 1 or (m == 1 and not _cvc(root)):
            word = root
    if _m(word) > 1 and _double_consonant(word) and word.endswith("l"):
        word = word[:-1]
    return word


def oracle_stem(word: str) -> str:
    if len(word) <= 2:
        return word
    w = _apply_step(word, STEP1A)
    w = _step1b(w)
    w = _step1c(w)
    w = _apply_step(w, STEP2)
    w = _apply_step(w, STEP3)
    w = _apply_step(w, STEP4)
    return _step5(w)


# ----------------------------------------------------------------------
# vocabulary for the cross-implementation sweep

_BASES = """
    act adjust agree allow analog analogue angular arch bake bat bed bid
    bleed bloat boss box breed call care caress cat cease class comply
    communicate conflate conform connect control cope cry curl dance
    decide defend depend derive die differ dig digit dine dry ease eat
    elect embody engineer enjoy escape face fail fall farm fasten feed
    feel file fill fish fit fix fizz flap flee fly free fuss gas goad
    good grate grow happy haste hate hesitate hide hiss hit hope hop
    host house index infer irritate joke judge jump keep knit knot late
    laugh lead lean live load lobby log love make map marry mate matt
    measure meet mess mine miss mix motor move name need nest note obey
    occupy operate oscillate pan panic part pass paste pay plan plaster
    play plot ply pony portray pot pray prefer probe provide pump race
    rage rake rate rebel refer relate rely remedy repel revive roam rob
    roll rub run rush sail sense settle shed ship shop sing sit size
    ski sky slip snow solve spin spray spy stem step stir stop stress
    study sup supply tan tape tax tense tie time toss trap tree trouble
    try type unite use valence value vary vile vote wait walk wed weed
    whizz win wish wit yearn yell zip
""".split()

_SUFFIXES = [
    "s", "es", "ies", "ss", "sses", "ed", "eed", "ing", "y",
    "ational", "tional", "enci", "anci", "izer", "abli", "alli",
    "entli", "eli", "ousli", "ization", "ation", "ator", "alism",
    "iveness", "fulness", "ousness", "aliti", "iviti", "biliti", "logi",
    "icate", "ative", "alize", "iciti", "ical", "ful", "ness",
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive",
    "ize", "e", "ll", "l",
]


def _generated_vocabulary() -> list[str]:
    words = set(_BASES)
    for base, suffix in itertools.product(_BASES, _SUFFIXES):
        words.add(base + suffix)
    rng = random.Random(20260815)
    consonants = "bcdfghjklmnpqrstvwxyz"
    vowels = "aeiouy"
    for _ in range(4000):
        length = rng.randint(3, 12)
        word = "".join(
            rng.choice(vowels if rng.random() < 0.42 else consonants)
            for _ in range(length)
        )
        words.add(word)
        if rng.random() < 0.3:
            words.add(word + rng.choice(_SUFFIXES))
    return sorted(words)


# ----------------------------------------------------------------------
# tests


def _frozen_pairs() -> list[tuple[str, str]]:
    pairs = []
    with open(os.path.join(ASSETS, "porter_pairs.tsv")) as fh:
        for line in fh:
            word, expected = line.rstrip("\n").split("\t")
            pairs.append((word, expected))
    return pairs


class TestFrozenPairs:
    def test_asset_has_enough_coverage(self):
        assert len(_frozen_pairs()) >= 80

    def test_every_frozen_pair(self):
        bad = [
            (word, stem(word), expected)
            for word, expected in _frozen_pairs()
            if stem(word) != expected
        ]
        assert bad == [], f"mismatching pairs: {bad}"

    def test_oracle_agrees_on_frozen_pairs(self):
        """The oracle itself must reproduce the hand-traced stems."""
        bad = [
            (word, oracle_stem(word), expected)
            for word, expected in _frozen_pairs()
            if oracle_stem(word) != expected
        ]
        assert bad == [], f"oracle disagrees with hand-traced stems: {bad}"


class TestCrossImplementation:
    def test_agreement_on_generated_vocabulary(self):
        vocab = _generated_vocabulary()
        assert len(vocab) > 10_000
        disagree = [
            (w, stem(w), oracle_stem(w)) for w in vocab if stem(w) != oracle_stem(w)
        ]
        agreement = 1.0 - len(disagree) / len(vocab)
        assert agreement >= 0.999, f"agreement {agreement:.5f}; first: {disagree[:10]}"
        # the two routes implement the same frozen rules, so in practice
        # any disagreement at all is a bug worth chasing
        assert disagree == [], f"implementations disagree: {disagree[:10]}"


class TestEdges:
    def test_short_words_untouched(self):
        for word in ("", "a", "ab", "is", "by", "s"):
            assert stem(word) == word

    def test_three_letter_words(self):
        assert stem("sky") == "sky"
        assert stem("fly") == "fly"  # no vowel before the y, so 1c skips it
        assert stem("cry") == "cry"
        assert stem("die") == "die"
        assert stem("its") == "it"

    def test_stem_is_never_longer(self):
        for word, _ in _frozen_pairs():
            assert len(stem(word)) <= len(word)

    def test_double_letter_endings(self):
        assert stem("controlling") == "control"
        assert stem("classes") == "class"
        assert stem("fuzz") == "fuzz"


class TestMemo:
    def test_repeated_word_is_a_cache_hit(self):
        word = "memoizations"
        first = stem(word)
        hits = stem.cache_info().hits
        assert stem(word) == first
        assert stem.cache_info().hits == hits + 1
