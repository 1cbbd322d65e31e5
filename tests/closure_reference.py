"""A reference closure that shares no code with mergedjohnson.perms.

closure(generators) grows every product of the generators from the
identity, one element at a time in a Python loop, and tells a new element
by the bytes of its images.  tests/test_perms.py checks elements() and the
stabilizer sweep against it, and CI runs it on the witnesses past the
tests' n <= 12.
"""

import numpy as np


def closure(generators) -> np.ndarray:
    """Every element of the group the generators generate, as the rows of
    an (order, degree) array of images, in breadth-first order from the
    identity.  The images are held in the smallest unsigned dtype that
    fits them, so that a row's bytes are few to hash."""
    gens = [np.asarray(g.images) for g in generators]
    degree = len(gens[0])
    dtype = np.min_scalar_type(max(degree - 1, 0))
    rows = [np.arange(degree, dtype=dtype).tobytes()]
    seen = set(rows)
    for row in rows:
        x = np.frombuffer(row, dtype=dtype).astype(np.intp)
        for g in gens:
            y = g[x].astype(dtype).tobytes()  # x*g sends p to g[x[p]]
            if y not in seen:
                seen.add(y)
                rows.append(y)
    return np.frombuffer(b"".join(rows), dtype=dtype).reshape(len(rows), degree)
