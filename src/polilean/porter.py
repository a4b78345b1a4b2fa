"""Porter stemmer for lowercase alphabetic tokens.

Implements the classic suffix-stripping algorithm in its commonly
distributed frozen form: words of length <= 2 are returned unchanged,
step 2 includes the logi -> log rule, and within a step only the
longest matching suffix is considered (a failed condition does not
fall through to shorter suffixes).
"""

import functools


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in "aeiou":
        return False
    if ch == "y":
        # y is a consonant at the start of a word or after a vowel
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel-consonant sequences in [C](VC)^m[V]."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        vowel = not _is_consonant(stem, i)
        if prev_vowel and not vowel:
            m += 1
        prev_vowel = vowel
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(stem: str) -> bool:
    return (
        len(stem) >= 2
        and stem[-1] == stem[-2]
        and _is_consonant(stem, len(stem) - 1)
    )


def _ends_cvc(stem: str) -> bool:
    # consonant-vowel-consonant where the final consonant is not w, x or y
    if len(stem) < 3:
        return False
    n = len(stem)
    return (
        _is_consonant(stem, n - 3)
        and not _is_consonant(stem, n - 2)
        and _is_consonant(stem, n - 1)
        and stem[-1] not in "wxy"
    )


# (suffix, replacement) pairs applied under m > 0, longest suffix first.
_STEP2 = [
    ("ational", "ate"), ("ization", "ize"), ("iveness", "ive"),
    ("fulness", "ful"), ("ousness", "ous"), ("tional", "tion"),
    ("biliti", "ble"), ("entli", "ent"), ("ousli", "ous"),
    ("ation", "ate"), ("alism", "al"), ("aliti", "al"), ("iviti", "ive"),
    ("enci", "ence"), ("anci", "ance"), ("izer", "ize"), ("abli", "able"),
    ("alli", "al"), ("ator", "ate"), ("logi", "log"), ("eli", "e"),
]

_STEP3 = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ness", ""), ("ful", ""),
]

# deleted under m > 1; "ion" additionally requires the stem to end in s or t
_STEP4 = [
    "ement", "ance", "ence", "able", "ible", "ment", "ant", "ent", "ism",
    "ate", "iti", "ous", "ive", "ize", "ion", "al", "er", "ic", "ou",
]


@functools.cache
def stem(word: str) -> str:
    """Return the Porter stem of a lowercase alphabetic word. Memoized:
    a corpus repeats a small vocabulary many times."""
    if len(word) <= 2:
        return word
    w = word

    # step 1a
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif w.endswith("ss"):
        pass
    elif w.endswith("s"):
        w = w[:-1]

    # step 1b
    cleanup = False
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
    elif w.endswith("ed"):
        if _has_vowel(w[:-2]):
            w = w[:-2]
            cleanup = True
    elif w.endswith("ing"):
        if _has_vowel(w[:-3]):
            w = w[:-3]
            cleanup = True
    if cleanup:
        if w.endswith(("at", "bl", "iz")):
            w += "e"
        elif _ends_double_consonant(w) and w[-1] not in "lsz":
            w = w[:-1]
        elif _measure(w) == 1 and _ends_cvc(w):
            w += "e"

    # step 1c
    if w.endswith("y") and _has_vowel(w[:-1]):
        w = w[:-1] + "i"

    # step 2
    for suffix, repl in _STEP2:
        if w.endswith(suffix):
            stem_ = w[: -len(suffix)]
            if _measure(stem_) > 0:
                w = stem_ + repl
            break

    # step 3
    for suffix, repl in _STEP3:
        if w.endswith(suffix):
            stem_ = w[: -len(suffix)]
            if _measure(stem_) > 0:
                w = stem_ + repl
            break

    # step 4
    for suffix in _STEP4:
        if w.endswith(suffix):
            stem_ = w[: -len(suffix)]
            if _measure(stem_) > 1 and (suffix != "ion" or stem_.endswith(("s", "t"))):
                w = stem_
            break

    # step 5a
    if w.endswith("e"):
        stem_ = w[:-1]
        m = _measure(stem_)
        if m > 1 or (m == 1 and not _ends_cvc(stem_)):
            w = stem_

    # step 5b
    if _measure(w) > 1 and _ends_double_consonant(w) and w.endswith("l"):
        w = w[:-1]

    return w
