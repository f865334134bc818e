"""Physical constants (CODATA 2018 / SI exact values).

h and e are exact by the 2019 SI definition; hbar is derived as
h / (2*pi) so that h == 2*pi*hbar holds to machine precision.
"""

import math

PLANCK_H = 6.62607015e-34  # J s, exact
HBAR = PLANCK_H / (2.0 * math.pi)  # J s
ELEMENTARY_CHARGE = 1.602176634e-19  # C, exact

MEV_TO_JOULE = 1e-3 * ELEMENTARY_CHARGE
GHZ_TO_JOULE = 1e9 * PLANCK_H
