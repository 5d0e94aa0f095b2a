"""`make_profile` and the closed-form oracles shared by the test modules.

Kept out of ``conftest.py`` so that test modules import them by a name no
other test directory uses.
"""

import numpy as np

from lqnet.model import EffortProfile, IntentProfile, StrategyProfile


def make_profile(efforts, intent_pairs, n):
    return StrategyProfile(
        EffortProfile(np.asarray(efforts, dtype=float)),
        IntentProfile.from_pairs(n, intent_pairs),
    )


# ---------------------------------------------------------------------------
# closed-form oracles, independent of the solver implementations
# ---------------------------------------------------------------------------

def oracle_complete_nash(theta, beta, lam, n):
    """Symmetric fixed point of x = (theta + lam (n-1) x) / beta."""
    return theta / (beta - lam * (n - 1))


def oracle_star_nash(theta, beta, lam, n):
    """(center, periphery) solving the two-type best-response system."""
    center = theta * (beta + lam * (n - 1)) / (beta**2 - lam**2 * (n - 1))
    periphery = (theta + lam * center) / beta
    return center, periphery


def oracle_complete_efficient(theta, beta, lam, n, cap=20.0):
    denom = beta - 2.0 * lam * (n - 1)
    if denom <= 0 or theta / denom > cap:
        return cap
    return theta / denom


def oracle_star_efficient(theta, beta, lam, n):
    """(center, periphery) stationary point of total gross welfare on a star."""
    center = theta * (beta + 2.0 * lam * (n - 1)) / (
        beta**2 - 4.0 * lam**2 * (n - 1)
    )
    periphery = (theta + 2.0 * lam * center) / beta
    return center, periphery


def oracle_gross_payoff(theta, beta, lam, x_own, neighbor_sum):
    return theta * x_own - 0.5 * beta * x_own**2 + lam * x_own * neighbor_sum


def oracle_spectral_radius(adjacency, rel_tol=1e-12, max_iter=1000):
    """Largest adjacency eigenvalue by power iteration from the all-ones vector.

    Iterates on G + I so the dominant eigenvalue is strictly separated in
    magnitude even for bipartite graphs, then shifts back.
    """
    a = adjacency.astype(float) + np.eye(adjacency.shape[0])
    v = np.ones(a.shape[0])
    est = 1.0
    for _ in range(max_iter):
        w = a @ v
        v = w / np.linalg.norm(w)
        new_est = float(v @ (a @ v))
        if abs(new_est - est) <= rel_tol * max(1.0, abs(est)):
            return max(new_est - 1.0, 0.0)
        est = new_est
    return max(est - 1.0, 0.0)
