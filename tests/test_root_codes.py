"""The finite Weyl denominator in its own box against the affine
denominator's grade 0 and the test-local tuple-code expansion.

`characters._root_codes` (behind `weyl_identity`, `weyl_denominator` and
the injection fan) and grade 0 of a rooted `characters._affine_denominator`
both come from `_root_factors`, packed in different boxes: they must give
the same codes in the same dict order on random image sets, whatever the
imaginary factors and the cutoff.  The injection fan of each catalog splint
must be the tuple-code expansion of its stem images, negated, dict order
included.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splintbranch import characters
from splintbranch.characters import _affine_denominator, _root_codes, common_denominator, encode
from splintbranch.splints import fan_coefficients, find_splint
from test_packed_codes import image_sets, tuple_denominator_codes

SPLINTS = ["G2:A2A2", "B2:A1A1", "B2:A1A2", "A2:A1A1A1", "A3:A2A1A1A1"]


@settings(max_examples=150, deadline=None)
@given(images=image_sets(), imaginary=st.integers(0, 3), cutoff=st.integers(0, 3))
def test_root_codes_are_the_affine_grade_0(images, imaginary, cutoff):
    characters._layer_cache.clear()
    grade_0 = _affine_denominator(images, imaginary, cutoff).codes[0]
    assert list(_root_codes(images).items()) == list(grade_0.items())


@pytest.mark.parametrize("name", SPLINTS)
def test_fan_is_the_negated_stem_expansion(name):
    # a code x over den is the weight -x/den, so the fan's key -(weight) is
    # x/den, with the coefficient negated
    s = find_splint(name)
    images = [s.phi2.pos_map[b] for b in s.phi2.source.positive_roots]
    den = common_denominator(images)
    (want,) = tuple_denominator_codes([encode(img, den) for img in images], 0, 0)
    fan = fan_coefficients(s)
    assert fan.splint_name == name
    assert list(fan.coefficients.items()) == [
        (tuple(Fraction(x, den) for x in code), -c) for code, c in want.items()]
