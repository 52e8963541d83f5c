"""One pair's confidence width, as its own quadratic form: the reference for
the widths that ``ranker.classify_pairs`` reads off one Gram matrix."""

import numpy as np

from fairexp.ranker import RankerState, _check_dim


def confidence_width(state: RankerState, x_i, x_j, alpha: float) -> float:
    """alpha-scaled Mahalanobis norm of the pair's difference vector.

    The single-pair definition of the width that ``classify_pairs`` reads
    off one Gram matrix; kept as the reference the tests check it against."""
    diff = _check_dim(state, x_i) - _check_dim(state, x_j)
    quad = float(diff @ state.info_inverse() @ diff)
    return alpha * np.sqrt(max(quad, 0.0))
