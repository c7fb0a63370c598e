import pytest

from kplab.field import Field, NotPrimeError


def test_inverse_pinned_values():
    assert Field(7).inv(3) == 5
    assert Field(5).inv(4) == 4
    assert Field(2).inv(1) == 1


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        Field(5).inv(0)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 1031, 65521])
def test_inverse_property(p):
    fld = Field(p)
    for a in list(range(1, min(p, 50))) + [p - 1]:
        assert a * fld.inv(a) % p == 1


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

