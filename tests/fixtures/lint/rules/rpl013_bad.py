"""Bad (RPL001): ad-hoc generators built in engine code for an MC entry point."""

import numpy as np


def sample_states(spec, rng):
    return [spec, rng]


def run_direct(spec):
    return sample_states(spec, np.random.default_rng(1234))


def run_via_local(spec):
    rng = np.random.default_rng(42)
    return sample_states(spec, rng)
