"""Reference arithmetic of GF(p^e) for the tests, written from the
definition: elements are rows of base-p digits, constant term first, and a
product is the polynomial product reduced mod the field's modulus.  It
reads a field's p, e and modulus only, never its exp or log arrays."""

import numpy as np


def index(field, rows):
    """The element index of each digit row along the last axis."""
    return np.asarray(rows) @ field.p ** np.arange(field.e)


def multiply(field, a, b):
    """Digit rows of a·b for digit rows a and b (broadcast together)."""
    p, e = field.p, field.e
    a, b = np.asarray(a), np.asarray(b)
    product = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (2 * e - 1,),
                       dtype=np.int64)
    for i in range(e):
        for j in range(e):
            product[..., i + j] += a[..., i] * b[..., j]
    # t^e is minus the modulus's lower terms, so c·t^top becomes
    # -c·t^(top - e)·(those terms), from the top degree down
    modulus = np.array(field.modulus)
    for top in range(2 * e - 2, e - 1, -1):
        product[..., top - e:top] -= product[..., top, None] % p * modulus
    return product[..., :e] % p


def powers(field, a):
    """The indices a^0, a^1, ... up to the last power before 1 comes back."""
    row = one = np.eye(1, field.e, dtype=np.int64)[0]
    out = [1]
    for _ in range(field.order):
        row = multiply(field, row, field.digits[a])
        if (row == one).all():
            return out
        out.append(int(index(field, row)))
    raise AssertionError("no power of %d is 1" % a)


def omega(field):
    """The first index whose powers reach every nonzero element."""
    return next(a for a in range(1, field.order)
                if len(powers(field, a)) == field.order - 1)
