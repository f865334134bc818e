"""Physical constants (CODATA 2018 / SI exact values).

h and e are exact by the 2019 SI definition.
"""

PLANCK_H = 6.62607015e-34  # J s, exact
ELEMENTARY_CHARGE = 1.602176634e-19  # C, exact

MEV_TO_JOULE = 1e-3 * ELEMENTARY_CHARGE
GHZ_TO_JOULE = 1e9 * PLANCK_H
