import pytest

from kplab.field import Field, NotPrimeError
from kplab.linalg import normalized


# Field keeps no inverse of its own: the library inverts inline with
# pow(a, -1, p), and `linalg.normalized` scales a vector by the inverse of its
# first nonzero entry, so these pins read the inverse through it.
def test_inverse_pinned_values():
    assert normalized((3, 1), 7) == (1, 5)
    assert normalized((4, 1), 5) == (1, 4)
    assert normalized((1, 1), 2) == (1, 1)


def test_inverse_of_zero_rejected():
    # Zero is never inverted: a zero lead is skipped, and a vector of zeros
    # mod p has no normalization.
    assert normalized((0, 4, 1), 5) == (0, 1, 4)
    assert normalized((0, 0), 5) is None
    assert normalized((5, 10), 5) is None


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 1031, 65521])
def test_inverse_property(p):
    for a in list(range(1, min(p, 50))) + [p - 1]:
        assert a * normalized((a, 1), p)[1] % p == 1


def test_elements_enumeration():
    assert list(Field(2).elements()) == [0, 1]
    assert list(Field(3).elements()) == [0, 1, 2]
    assert len(list(Field(5).elements())) == 5


@pytest.mark.parametrize("bad", [0, 1, 4, 9, 15, 2**16 + 1])
def test_non_prime_rejected(bad):
    with pytest.raises(NotPrimeError):
        Field(bad)


def test_field_is_immutable():
    fld = Field(3)
    with pytest.raises(AttributeError):
        fld.p = 5



def test_field_pickles_and_copies():
    import copy
    import pickle

    fld = Field(7)
    for twin in (pickle.loads(pickle.dumps(fld)), copy.deepcopy(fld)):
        assert twin == fld and hash(twin) == hash(fld) and twin.p == 7
