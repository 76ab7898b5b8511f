"""Q8 = P2(RP2), the base of the strand-forgetting tower, as tables over the atlas P2(RP2)
alphabet (B12, rho1, rho2).

P2(RP2) has order 8 and maps onto Q8 by ``IMAGES``; Q8 acts on its own units by right
multiplication, so the tower's base level reads a word as one walk over ``COLUMNS``.
"""

# The images of B12, rho1, rho2 as quaternions a + b i + c j + d k: -1, i and j.
IMAGES = ((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))

# P2(RP2) acting on the units of Q8 by right multiplication through IMAGES: COLUMNS[x][c]
# is unit c times the image of letter x, letter 2g being generator g and 2g + 1 its inverse,
# the conjugate quaternion.  Unit 1 is 1; the others are numbered as a breadth-first walk
# over the letters, in order, meets them, and column x lists the units 1..8 lead to (slot
# 0 is unused).  The action is regular, so two words are equal in Q8 iff they carry unit 1
# to the same unit.  The tests rebuild the table from the quaternion product.
COLUMNS = tuple((0, *map(int, col)) for col in
                "21436587 21436587 34218756 43127865 56782143 65871234".split())
