"""Waived: replaying a historical trace with its original stream."""

import numpy as np


def sample_states(spec, rng):
    return [spec, rng]


def replay_run(spec):
    # repro-lint: disable=RPL001 -- replaying a legacy trace with its recorded stream
    return sample_states(spec, np.random.default_rng(7))
