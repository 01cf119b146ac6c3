#!/usr/bin/env python3
"""Walkthrough: the three channel families and their diagnostics.

Builds an identity channel, a conditioned channel with a prescribed
singular spectrum, and a time-selective Rayleigh-fading channel, then
prints the spectrum summary for each.  For the fading channel it also
runs the amplitude-distribution fit that the ``inspect-channel``
subcommand exposes.
"""

import numpy as np

from rmoamp import (FadingProfile, gen_conditioned_channel,
                    gen_identity_channel, gen_tdl_fading_channel,
                    rayleigh_fit_statistic, sample_fading_taps)

dim = 64


def summarize(ch, label):
    s = ch.s
    print(f"{label}:")
    print(f"  spectrum       min {s.min():.4f}  max {s.max():.4f}  "
          f"mean power {np.mean(s * s):.4f}")
    print(f"  condition      {ch.condition_number():.2f}")


# 1. identity: the noiseless reference everything else degrades from
summarize(gen_identity_channel(dim, sigma2=0.0), "identity")

# 2. conditioned: geometric singular spectrum, condition number 10
summarize(gen_conditioned_channel(dim, kappa=10.0,
                                  spectrum_shape="geometric", sigma2=0.01,
                                  seed=7), "conditioned (kappa=10)")

# 3. tapped-delay-line fading: correlated Rayleigh taps, each block of
# symbols convolved with its own taps (lower-banded, edge-truncated at the
# start; not circulant)
profile = FadingProfile(num_taps=4, tap_powers=(0.4, 0.3, 0.2, 0.1),
                        doppler_rate=0.05, num_symbols=16)
summarize(gen_tdl_fading_channel(dim, profile, sigma2=0.01, seed=9),
          "tdl-fading")

# 4. the tap process itself: amplitudes should look Rayleigh even though
# consecutive symbols are correlated through the Doppler model
taps = sample_fading_taps(profile, seed=9)
print(f"\ntap matrix {taps.shape}, per-tap power "
      f"{np.round(np.mean(np.abs(taps) ** 2, axis=0), 3)}")

# a near-zero temporal correlation makes the samples effectively
# independent, which is what a textbook distribution test assumes
decorrelated = FadingProfile(num_taps=4, tap_powers=(0.25,) * 4,
                             doppler_rate=0.3828, num_symbols=16)
stat, pvalue = rayleigh_fit_statistic(decorrelated, num_samples=50_000,
                                      seed=5)
print(f"Rayleigh amplitude fit: KS statistic {stat:.4f}, p-value "
      f"{pvalue:.3f} over 50k samples")
