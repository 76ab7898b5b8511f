"""Q8 = P2(RP2), the base that the fiber oracle and the strand-forgetting tower share.

Forgetting strand 3 maps P3(RP2) onto P2(RP2) = Q8, and its kernel, the fiber
<B13, B23, rho3>, is free of rank 2 and has index 8 (Fadell-Neuwirth 1962).  The tables
live here, apart from ``fiber``, so that the tower reads them without executing the fiber
oracle's module; the package's ``__init__``, which every command compiles, holds only
``FIBER_ALPHABET``.
"""

# The images of FIBER_ALPHABET, as quaternions a + b i + c j + d k:
# B12 -> -1, rho1 -> i, rho2 -> j, and B13, B23, rho3 -> 1.
FIBER_IMAGES = ((-1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0))

# P3(RP2) acting on the units of Q8 by right multiplication through
# FIBER_IMAGES: FIBER_COLUMNS[x][c] is unit c times the image of letter x (a
# generator's inverse is its conjugate).  Unit 1 is 1; the others are
# numbered as a breadth-first walk over the letters, in order, meets them,
# and column x lists the units 1..8 lead to (slot 0 is unused).  The action
# is regular, so two words are equal in Q8 iff they carry unit 1 to the same
# unit.  The tests rebuild the table from the quaternion product.
FIBER_COLUMNS = tuple((0, *map(int, col)) for col in (
    "21436587 21436587 12345678 12345678 12345678 12345678 "
    "34218756 43127865 56782143 65871234 12345678 12345678").split())
