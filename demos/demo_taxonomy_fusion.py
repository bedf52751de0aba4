#!/usr/bin/env python3
"""Walkthrough: fusing species, genus, and family logits per tile.

A classifier head per taxonomy level scores one tile; the fused score
of a species is the product of the three head probabilities along its
(unique) path up the hierarchy, computed in log space. The example
below shows the hallmark effect: a species that is not the species
head's favourite wins once its genus is strongly supported.
"""

import numpy as np

from quadflora import TaxonomyTable, TileLogits, fuse, log_softmax, top1_rows

# ------------------------------------------------------------------
# A 3-species hierarchy: s0 and s1 share genus g0, s2 sits alone in
# g1; both genera belong to the single family f0.
# ------------------------------------------------------------------
tax = TaxonomyTable.from_dense(
    species_to_genus=[0, 0, 1],
    genus_to_family=[0, 0],
    n_families=1,
)
print("species -> genus:", tax.species_to_genus)
print("genus -> family: ", tax.genus_to_family)

# ------------------------------------------------------------------
# Head outputs for one tile. The species head slightly prefers s1,
# but the genus head is confident the tile shows genus g1.
# ------------------------------------------------------------------
logits = TileLogits(
    species=np.array([1.0, 2.0, 1.5]),
    genus=np.array([0.0, 2.0]),
    family=np.array([0.0]),
)

print("\nper-head log-probabilities:")
print("  species:", np.round(log_softmax(logits.species), 3))
print("  genus:  ", np.round(log_softmax(logits.genus), 3))
print("  family: ", np.round(log_softmax(logits.family), 3))

fused = fuse(logits, tax)
print("\nfused per-species log-scores:", np.round(fused.score, 3))
print("species-head argmax:", int(np.argmax(logits.species)), "(s1)")
winner, value = top1_rows(fused.score)
print(f"fused argmax:        {winner} (s2), score {value:.3f}")

# ------------------------------------------------------------------
# Sanity: agreeing with brute-force probability products over valid
# (species, genus, family) triples.
# ------------------------------------------------------------------
ps = np.exp(log_softmax(logits.species))
pg = np.exp(log_softmax(logits.genus))
pf = np.exp(log_softmax(logits.family))
brute = np.log(
    [
        ps[s] * pg[tax.species_to_genus[s]] * pf[tax.species_to_family[s]]
        for s in range(tax.n_species)
    ]
)
print("\nmax |fused - brute force|:", float(np.abs(fused.score - brute).max()))
