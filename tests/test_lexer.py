"""Lexer properties on the parse golden's inputs (the corpus, generated
files, printed stock declarations and their seeded mutants) and on texts
with tabs, carriage returns, comments and non-ASCII code points:

- every token's text is the slice of the input at its offset;
- ``Source`` renders each offset as the ``line:col`` of a naive
  reference that splits the text before it;
- ``len(lex(text))`` is the number of tokens, ``eof`` included, counted
  by a tokenizer written out separately."""

import pytest

from adaptt import surface as S
from test_parse_golden import _PIECE, inputs

#: texts whose positions the corpus does not exercise
ODD = (
    "base A ;\r\nbase B ;\r\n",
    "\tbase\tA ;\n\t\tvar a : A ;",
    "-- é ü, -- twice\nbase Ä ; -- trailing",
    "base A ;   \n\n   ",
    "",
    "\n",
    "check a:A;",
)


def _naive(text: str, off: int) -> tuple[int, int]:
    before = text[:off].split("\n")
    return len(before), len(before[-1]) + 1


def _lexed():
    """``(name, text, tokens)`` of every input that lexes."""
    out = []
    odd = [(f"odd/{k}", None, text) for k, text in enumerate(ODD)]
    for name, _, text in inputs() + odd:
        try:
            out.append((name, text, S.lex(text)))
        except S.ParseError:
            continue
    return out


LEXED = _lexed()


def test_most_inputs_lex():
    assert len(LEXED) >= 2000


def test_each_token_is_the_text_at_its_offset():
    for _, text, toks in LEXED:
        assert toks.kinds[-1] == "eof" and toks.offs[-1] == len(text)
        for tok, off in zip(toks.texts, toks.offs):
            assert text[off:off + len(tok)] == tok


def test_len_counts_the_tokens_and_eof():
    for _, text, toks in LEXED:
        pieces = [p for p in _PIECE.findall(text)
                  if not p.isspace() and not p.startswith("--")]
        assert len(toks) == len(pieces) + 1


def test_rendered_positions_match_a_naive_reference():
    # the reference is quadratic in the text: every token of an input as
    # it is, every fifth of a mutant (named ``source#k[edits]``)
    for name, text, toks in LEXED:
        src = S.Source(text)
        for off in toks.offs[::5 if "#" in name else 1]:
            assert src.line_col(off) == _naive(text, off), (name, off)
        assert src.at("f", len(text)) == "f:%d:%d" % _naive(text, len(text))


def test_a_stray_character_is_placed_by_the_same_table():
    text = "base A ;\n\t  @"
    with pytest.raises(S.ParseError) as e:
        S.lex(text)
    assert (e.value.line, e.value.col) == _naive(text, text.index("@"))
    assert e.value.message == "stray character '@'"
