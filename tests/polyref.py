"""Scalar reference for polynomial products and division over one field,
one coefficient at a time with the field's own add, sub, mul and inv, the
shifted rows of a vector that make up a cyclic code's matrices, and the
reduction of one packed entry's integer coefficients to field digits.
Polynomials are tuples, constant term first, without trailing zeros."""


def trim(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return tuple(a)


def poly_mul(f, a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] = f.add(out[j], f.mul(x, y))
    return trim(out)


def poly_divmod(f, a, b):
    """(quotient, remainder) of a by b, whose last coefficient is nonzero."""
    rem, db = list(trim(a)), len(b) - 1
    quo = [0] * max(len(rem) - db, 0)
    inv = f.inv(b[-1])
    while len(rem) > db:
        c = f.mul(rem[-1], inv)
        shift = len(rem) - 1 - db
        quo[shift] = c
        for i, y in enumerate(b, shift):
            rem[i] = f.sub(rem[i], f.mul(c, y))
        rem = list(trim(rem))
    return trim(quo), tuple(rem)


def shift_rows(vec, n):
    """The n - len(vec) + 1 rows of length n whose row i is vec shifted
    right by i: the coefficients of x^i * vec(x), one polynomial a row.
    The generator and parity-check matrices of a cyclic code are these
    rows for one vector each."""
    vec = tuple(vec)
    rows = n - len(vec) + 1
    return tuple((0,) * i + vec + (0,) * (rows - 1 - i) for i in range(rows))


def slot_digits(p, modulus, slots):
    """The d = len(modulus) - 1 digits over F_p of the polynomial whose
    coefficients, constant term first, are the integers slots: each taken
    mod p, then the remainder mod the monic modulus (integers mod p,
    constant term first), one coefficient at a time.  The reference for
    the packed kernels' slot reducer."""
    d = len(modulus) - 1
    r = [x % p for x in slots] + [0] * d
    for k in range(len(slots) - 1, d - 1, -1):
        c = r[k]
        for i, fi in enumerate(modulus, k - d):
            r[i] = (r[i] - c * fi) % p
    return r[:d]
