"""Hydrogen-contamination variability analysis for Al/AlOx/Al tunnel junctions.

Subpackages: count statistics (stats), atomic-structure analysis (structure),
hydrogen motif classification (motifs), tight-binding NEGF transport
(transport), Josephson-energy arithmetic and distributions (josephson), and
the pipeline CLI (cli).  Import names from the submodules; importing the
package executes none of them.
"""

__version__ = "0.1.0"
