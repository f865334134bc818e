"""References for `jjvar.transport` models: the lead band's half-width and
a barrier shifted on some of its sites only."""

import dataclasses

from jjvar.transport import JunctionModel


def band_halfwidth(model: JunctionModel) -> float:
    """Half-width 2|t| of the lead band around the lead on-site energy."""
    return 2.0 * abs(model.lead_hopping)


def shift_sites(model: JunctionModel, shift: float, sites) -> JunctionModel:
    """`model` with `shift` eV added to the on-site energy of each barrier
    site in `sites`."""
    onsite = list(model.barrier_onsite)
    for site in sites:
        onsite[site] += shift
    return dataclasses.replace(model, barrier_onsite=tuple(onsite))
