"""Tabular Q-learning for the reliability managers (Fig. 1 loop).

The paper's Fig. 1 casts reliability management as an agent observing
*states* (temperature, utilization, error rates), taking *actions*
(knob settings), and maximizing a *reward* built from resiliency models
(MTTF, SER, deadline misses).  A tabular epsilon-greedy Q-learner is the
lightweight choice the survey repeatedly recommends for run-time use.
"""

from __future__ import annotations

import numpy as np


class Discretizer:
    """Maps a continuous observation vector to a discrete state tuple."""

    def __init__(self, bins_per_dim):
        """``bins_per_dim`` is a list of bin-edge arrays, one per dimension."""
        self.edges = [np.asarray(e, dtype=float) for e in bins_per_dim]
        for e in self.edges:
            if np.any(np.diff(e) <= 0):
                raise ValueError("bin edges must be strictly increasing")

    def __call__(self, observation):
        observation = np.asarray(observation, dtype=float)
        if observation.shape != (len(self.edges),):
            raise ValueError(
                f"expected {len(self.edges)} dims, got {observation.shape}"
            )
        return tuple(
            int(np.searchsorted(edges, x)) for edges, x in zip(self.edges, observation)
        )


class QLearningAgent:
    """Epsilon-greedy tabular Q-learning with decaying exploration."""

    def __init__(
        self,
        n_actions,
        alpha=0.2,
        gamma=0.9,
        epsilon=0.3,
        epsilon_decay=0.995,
        epsilon_min=0.02,
        seed=0,
    ):
        if n_actions < 1:
            raise ValueError("need at least one action")
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if not 0 <= gamma < 1:
            raise ValueError("gamma must be in [0, 1)")
        self.n_actions = n_actions
        self.alpha = alpha
        self.gamma = gamma
        self.epsilon = epsilon
        self.epsilon_decay = epsilon_decay
        self.epsilon_min = epsilon_min
        self.rng = np.random.default_rng(seed)
        self.q = {}  # state tuple -> action-value array

    def _values(self, state):
        if state not in self.q:
            self.q[state] = np.zeros(self.n_actions)
        return self.q[state]

    def act(self, state, explore=True):
        """Pick an action; epsilon-greedy when exploring."""
        values = self._values(state)
        if explore and self.rng.random() < self.epsilon:
            return int(self.rng.integers(self.n_actions))
        best = np.flatnonzero(values == values.max())
        return int(self.rng.choice(best))

    def update(self, state, action, reward, next_state):
        """One Q-learning backup; also decays epsilon."""
        values = self._values(state)
        next_best = self._values(next_state).max()
        td_target = reward + self.gamma * next_best
        values[action] += self.alpha * (td_target - values[action])
        self.epsilon = max(self.epsilon * self.epsilon_decay, self.epsilon_min)

    @property
    def n_visited_states(self):
        return len(self.q)
