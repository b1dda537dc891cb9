"""Small chi-square bins merged one deletion at a time.

ensembles._merge_small_bins merges in one left-to-right pass; this is the
loop it replaced, which rescans from the first bin after every merge and so
takes time quadratic in the number of bins.  Both must give the same bins
and the same sums, bit for bit.
"""

import numpy as np

from sectint.ensembles import MIN_EXPECTED


def merge_small_bins_rescanning(obs: np.ndarray, exp: np.ndarray):
    """Merge adjacent bins until every expected count reaches MIN_EXPECTED."""
    obs, exp = list(obs), list(exp)
    i = 0
    while i < len(exp):
        if exp[i] < MIN_EXPECTED and len(exp) > 1:
            j = i + 1 if i + 1 < len(exp) else i - 1
            exp[j] += exp[i]
            obs[j] += obs[i]
            del exp[i], obs[i]
            i = 0
        else:
            i += 1
    return np.array(obs), np.array(exp)
