"""The enhancer's L1 loss and the actor-critic terms aimed at a metric.

The enhancer acting at step t emits a noise prediction; executing it moves
the trajectory to x_{t-1}.  The reward is the metric improvement of that
move measured against the clean signal, so summed over a full walk the
rewards telescope to final-minus-initial quality.  The scorer (critic)
learns discounted future improvement; the actor term pushes the enhancer
toward actions the scorer ranks higher, with gradients flowing only
through the action input.

Every function works on (B, L) batches, one row per trajectory.  The
scorer sees no step index: it judges an action from the latent, the action
and the clean signal alone.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .metric import MetricSpec


def reward(x_prev: np.ndarray, x_t: np.ndarray, x0: np.ndarray,
           metric: MetricSpec) -> np.ndarray:
    """(B,) metric improvement of each row's move x_t -> x_prev."""
    rew = np.empty(len(x_t))
    for b in range(len(x_t)):
        rew[b] = metric.evaluate(x_prev[b], x0[b]) \
            - metric.evaluate(x_t[b], x0[b])
    return rew


def l1_loss(pred: ad.Tensor, target: np.ndarray) -> ad.Tensor:
    """Mean absolute error of the noise prediction, every iteration's loss."""
    return ad.mean_all(ad.abs_(ad.sub(pred, ad.const(target))))


def actor_loss(value_net, params_v, x_t, eps_hat: ad.Tensor,
               x0) -> ad.Tensor:
    """Negated mean scorer output; backward reaches only the enhancer.

    ``eps_hat`` must be the live tape output of the enhancer.  The scorer's
    parameters enter as constants, so its weights get no gradient, which is
    the actor/critic separation.
    """
    v = value_net.forward(params_v, x_t, eps_hat, x0, params_tracked=False)
    return ad.scale(ad.mean_all(v), -1.0)


def critic_target(rew: np.ndarray, t: np.ndarray, gamma: float, value_net,
                  params_v, net_d, params_d, x_prev: np.ndarray,
                  y: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """(B,) bootstrapped scorer targets r + gamma * V(x_{t-1}, D(x_{t-1}), x0).

    Plain floats, no tape: targets are constants to the scorer update.
    Rows that end the walk (t == 1) drop the tail.
    """
    targets = rew.copy()
    mask = t >= 2
    if np.any(mask):
        eps_next = net_d.forward(params_d, x_prev[mask], y[mask],
                                 t[mask] - 1).value
        v_next = value_net.forward(params_v, x_prev[mask], eps_next,
                                   x0[mask]).value
        targets[mask] += gamma * v_next.astype(np.float64)
    return targets


def bellman_loss(value_net, params_v, x_t, eps_t, x0,
                 target: np.ndarray) -> ad.Tensor:
    """Squared regression of the scorer onto fixed targets."""
    v = value_net.forward(params_v, x_t, eps_t, x0, params_tracked=True)
    diff = ad.sub(ad.const(np.asarray(target, dtype=v.value.dtype)), v)
    return ad.mean_all(ad.square(diff))
