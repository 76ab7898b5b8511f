import math

import pytest

from braidkernel import (
    AbelianInvariants, BraidkernelError, GroupHom, Presentation, PresentationError,
    abelianization, format_presentation, forget_strands_hom, hom_check, klein_presentation,
    parse_presentation, presentation, pure_braid_rp2, quaternion_presentation,
    quotient, substitute, table_equality_oracle, todd_coxeter,
    torus_presentation, group_order,
)
from hypothesis import given, strategies as st

from braidkernel.derivations import ChainError, ChainFormatError
from braidkernel.presentations import (
    FormatError, PresentationFormatError, directives, parse_hom_file, parse_relation,
)
from braidkernel.base import Undecided
from braidkernel.words import (
    Word, free_reduce_letters, letters_to_word, make_alphabet, parse_word, word_to_letters,
)


def test_relation_equals_form():
    alphabet = make_alphabet(["x", "y"])
    rel = parse_relation("x^2 = y^2", alphabet)
    assert rel == parse_word("x^2 y^-2", alphabet)


def test_building_a_presentation_hashes_no_word(monkeypatch):
    # a Word's hash takes in its whole alphabet: relators are deduplicated on their
    # syllables, all of them being over the one alphabet
    def hashed(word):
        raise AssertionError(f"hashed {word}")
    monkeypatch.setattr(Word, "__hash__", hashed)
    p = presentation("G", ["x", "y"], ["x^2", "y x^2 y^-1", "y^2 = 1", "x^-2", "x y = y x"])
    assert [str(rel) for rel in p.relators] == ["x^2", "y^2", "x^-2", "x*y*x^-1*y^-1"]


def test_relators_normalized():
    p = presentation("t", ["a", "b"], ["a b a^-1", "b", "b", "1"])
    # conjugates are cyclically reduced, duplicates and identities dropped
    assert [str(r) for r in p.relators] == ["b"]


def test_abelianization_of_commutator_relators_is_free():
    # every relator row is zero, so nothing reaches the Smith normal form
    p = presentation("Z2", ["a", "b"], ["a b a^-1 b^-1"])
    assert abelianization(p) == AbelianInvariants(2, ())


@pytest.mark.parametrize("n", range(1, 13))
def test_pure_braid_rp2_abelianization(n):
    assert abelianization(pure_braid_rp2(n)) == AbelianInvariants(0, (2,) * n)


def test_relator_wrong_alphabet_rejected():
    other = make_alphabet(["z"])
    alphabet = make_alphabet(["a"])
    with pytest.raises(PresentationError):
        Presentation("t", alphabet, (parse_word("z", other),))


def test_presentation_validates_generator_names():
    with pytest.raises(BraidkernelError, match="duplicate generator name 'a'"):
        Presentation("G", ("a", "a"), ())
    with pytest.raises(BraidkernelError, match="invalid generator name '2b'"):
        Presentation("G", ("2b",), ())


def test_quotient_examples():
    t2 = torus_presentation()
    q = quotient(t2, [t2.word("a^2"), t2.word("b^3")])
    assert len(q.relators) == 3
    assert q.alphabet == t2.alphabet
    assert q.name != t2.name
    assert quotient(t2, []) is t2
    assert group_order(todd_coxeter(q)) == 6
    with pytest.raises(PresentationError):
        quotient(t2, [klein_presentation().gen("x")])


# abelianization ---------------------------------------------------------------

def test_abelianization_torus():
    inv = abelianization(torus_presentation())
    assert (inv.rank, inv.torsion) == (2, ())


def test_abelianization_nonorientable():
    from braidkernel import pi1_nonorientable
    inv = abelianization(pi1_nonorientable(3))
    assert (inv.rank, inv.torsion) == (2, (2,))


def test_abelianization_klein():
    inv = abelianization(klein_presentation())
    assert (inv.rank, inv.torsion) == (1, (2,))


def test_abelianization_free_group():
    p = presentation("F2", ["a", "b"], [])
    assert abelianization(p) == AbelianInvariants(2, ())


def test_abelianization_tietze_safe():
    # a consequence relator (here r^2 after r) does not change invariants
    base = presentation("t", ["a", "b"], ["a^2 b^-2"])
    extended = presentation("t2", ["a", "b"], ["a^2 b^-2", "a^4 b^-4"])
    assert abelianization(base) == abelianization(extended)


def test_invariants_validation():
    with pytest.raises(PresentationError):
        AbelianInvariants(0, (3, 2))
    with pytest.raises(PresentationError):
        AbelianInvariants(0, (2, 3))
    assert math.prod(AbelianInvariants(0, (2, 6)).torsion) == 12


# homomorphisms -----------------------------------------------------------------

def test_hom_check_forgetting_map_to_z2():
    hom = forget_strands_hom(2, 1)
    target_table = todd_coxeter(hom.target)
    result = hom_check(hom, table_equality_oracle(target_table))
    assert result.verified and result.relator_index is None


def test_hom_check_klein_to_q8(q8, q8_table):
    klein = klein_presentation()
    hom = GroupHom(klein, q8, (q8.gen("rho1"), q8.gen("rho2")))
    result = hom_check(hom, table_equality_oracle(q8_table))
    assert result.verified


def test_hom_check_identity_endomorphism(q8, q8_table):
    hom = GroupHom(q8, q8, tuple(q8.gen(name) for name in q8.alphabet))
    assert hom_check(hom, table_equality_oracle(q8_table)).verified


def test_hom_check_reports_first_failing_relator(s3_presentation):
    t2 = torus_presentation()
    table = todd_coxeter(s3_presentation)
    hom = GroupHom(t2, s3_presentation,
                   (s3_presentation.gen("a"), s3_presentation.gen("b")))
    result = hom_check(hom, table_equality_oracle(table))
    assert result.status == "failed"
    assert result.relator_index == 0


def test_hom_check_undecided_oracle(q8):
    klein = klein_presentation()
    hom = GroupHom(klein, q8, (q8.gen("rho1"), q8.gen("rho2")))

    def oracle(u, v):
        raise Undecided("budget spent")

    with pytest.raises(Undecided, match="budget spent"):
        hom_check(hom, oracle)


def test_substitute_forgetting_map():
    hom = forget_strands_hom(2, 1)
    src = hom.source
    assert substitute(hom, src.word("rho2^2")).is_identity
    assert substitute(hom, src.word("rho1 B12 rho1")) == hom.target.word("rho1^2")
    assert substitute(hom, src.word("rho1")) == hom.target.word("rho1")


def test_hom_images_validated(q8):
    klein = klein_presentation()
    with pytest.raises(PresentationError):
        GroupHom(klein, q8, (q8.gen("rho1"),))
    with pytest.raises(PresentationError):
        GroupHom(klein, q8, (klein.gen("x"), klein.gen("y")))


def test_hom_check_composes():
    # the composite of two verified forgetting maps passes hom_check
    h32 = forget_strands_hom(3, 2)
    h21 = forget_strands_hom(2, 1)
    t1 = todd_coxeter(h21.target)
    assert hom_check(h32, table_equality_oracle(todd_coxeter(h32.target))).verified
    assert hom_check(h21, table_equality_oracle(t1)).verified
    composite = GroupHom(h32.source, h21.target,
                         tuple(substitute(h21, image) for image in h32.images))
    assert hom_check(composite, table_equality_oracle(t1)).verified


def test_substitute_is_multiplicative(q8, q8_table):
    klein = klein_presentation()
    hom = GroupHom(klein, q8, (q8.gen("rho1"), q8.gen("rho2")))
    u = klein.word("x y^-1")
    v = klein.word("y x x")
    assert substitute(hom, u * v) == substitute(hom, u) * substitute(hom, v)


def substitute_by_letters(h, w):
    """Reference: expand every image letter by letter, then reduce once."""
    letters = []
    for gen, exp in w.syllables:
        image = h.images[gen] if exp > 0 else h.images[gen].inverse()
        letters.extend(word_to_letters(image) * abs(exp))
    return letters_to_word(h.target.alphabet, free_reduce_letters(letters))


S4_GENS = ["s1", "s2", "s3", "s4"]
_images = st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 2)), max_size=5)


@given(st.tuples(_images, _images),
       st.lists(st.tuples(st.integers(0, 1), st.integers(-30, 30)), max_size=6))
def test_substitute_matches_letter_reference(images, sylls):
    source = presentation("F2", ["x", "y"], [])
    target = presentation("F4", S4_GENS, [])
    hom = GroupHom(source, target, tuple(
        Word.from_syllables(target.alphabet, img) for img in images))
    word = Word.from_syllables(source.alphabet, sylls)
    assert substitute(hom, word) == substitute_by_letters(hom, word)


def test_substitute_scale():
    source = presentation("Z", ["x"], [])
    target = presentation("F4", S4_GENS, [])
    hom = GroupHom(source, target, (target.word("s1 s2 s3 s4"),))
    image = substitute(hom, source.word("x^1000"))
    assert image == substitute_by_letters(hom, source.word("x^1000"))
    assert image == target.word("s1 s2 s3 s4") ** 1000
    assert image.letter_length == 4000


# text format --------------------------------------------------------------------

def test_format_parse_round_trip():
    for p in (quaternion_presentation(), pure_braid_rp2(2), klein_presentation()):
        assert parse_presentation(format_presentation(p)) == p


def test_parse_presentation_rel_equals_and_comments():
    text = """
# quaternions
group Q8
gens rho1 rho2
rel rho1^2 = rho2^2
rel rho1^4
rel rho1 rho2 rho1^-1 = rho2^-1
"""
    assert parse_presentation(text) == quaternion_presentation()


@pytest.mark.parametrize("text,match", [
    ("gens a\nrel a", "before group"),
    ("# nothing\n", "missing group"),
    ("group g\nrel a", "rel before gens"),
    ("group g\ngens a\nrel b", "line 3"),
    ("group g\ngens a a\nrel a", "duplicate"),
    ("group g\ngens a\nbogus a", "unknown directive"),
])
def test_parse_presentation_errors(text, match):
    with pytest.raises(PresentationFormatError, match=match):
        parse_presentation(text)


def test_whole_file_error_has_no_line_number():
    with pytest.raises(PresentationFormatError) as info:
        parse_presentation("# c\n")
    assert str(info.value) == "missing group line"
    assert info.value.line is None


def test_format_errors_share_one_base():
    assert PresentationFormatError.__init__ is ChainFormatError.__init__ is FormatError.__init__
    assert issubclass(PresentationFormatError, PresentationError)
    assert issubclass(ChainFormatError, ChainError)
    assert str(ChainFormatError(4, "bad step")) == "line 4: bad step"
    assert str(ChainFormatError(None, "missing end line")) == "missing end line"


def test_directives_skip_comments_and_blank_lines():
    text = "# head\n\ngroup  G  # name\n   \nrel a b\nend#x\n"
    assert list(directives(text)) == [(3, "group", "G"), (5, "rel", "a b"), (6, "end", "")]


KLEIN_Q8_HOM = """hom klein-to-q8
send x = rho1   # sends may come before the blocks
begin source
group pi1(Klein)
gens x y
rel x^2 = y^2
end
begin target
group Q8
gens rho1 rho2
rel rho1^2 = rho2^2
rel rho1^4
rel rho1 rho2 rho1^-1 = rho2^-1
end  # target
send y = rho2
"""


def test_parse_hom_file(q8):
    hom = parse_hom_file(KLEIN_Q8_HOM)
    assert (hom.source, hom.target) == (klein_presentation(), q8)
    assert hom.images == (q8.gen("rho1"), q8.gen("rho2"))


# the CLI tests cover send lines and a target block; "end target" ends no block
@pytest.mark.parametrize("old,new,line", [
    ("gens x y", "gens x x", 5),
    ("end  # target", "end target", None),
])
def test_parse_hom_file_errors_name_the_file_line(old, new, line):
    with pytest.raises(PresentationFormatError) as info:
        parse_hom_file(KLEIN_Q8_HOM.replace(old, new))
    assert info.value.line == line
