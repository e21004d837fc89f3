"""Loss and excess-noise channels acting on a single mode.

Both channels model a linear coupling to a vacuum bath: attenuation with
quantum efficiency ``eta`` and phase-insensitive amplification with gain
``g``.  They map a mode's ``ModeMoments`` (``<a> -> sqrt(eta) <a>``,
``<a^dag a> -> eta <a^dag a>``, and so on); these moment maps hold for any
input state, Gaussian or not.  ``eta`` and ``g`` may be arrays, one
channel per element, and broadcast against the mode's fields.  A real
times a complex is ``np.multiply``, as in
:func:`~squeezewitness.gaussian.make_state`, so that a scalar and an array
share one rounding.
"""

from __future__ import annotations

import numpy as np

from .gaussian import ModeMoments, require

__all__ = ["apply_loss", "apply_gain_noise"]


def apply_loss(state: ModeMoments, eta: float) -> ModeMoments:
    """Attenuate a mode with quantum efficiency ``eta`` in [0, 1].

    ``alpha -> sqrt(eta) alpha``, ``delta_sq -> eta delta_sq`` and
    ``delta_n -> eta delta_n``.  ``eta = 1`` is the identity, ``eta = 0``
    maps every state to vacuum.
    """
    eta = np.asarray(eta, dtype=float)
    require("eta", eta, (0.0 <= eta) & (eta <= 1.0), "is not in [0, 1]")
    return ModeMoments(alpha=np.multiply(np.sqrt(eta), state.alpha),
                       delta_sq=np.multiply(eta, state.delta_sq),
                       delta_n=eta * state.delta_n)


def apply_gain_noise(state: ModeMoments, g: float) -> ModeMoments:
    """Amplify a mode with a finite gain ``g >= 1``, adding bath-induced
    excess noise.

    ``alpha -> sqrt(g) alpha``, ``delta_sq -> g delta_sq`` and ``delta_n ->
    g delta_n + (g - 1)``: ``g - 1`` thermal photons on top of the amplified
    signal.
    """
    g = np.asarray(g, dtype=float)
    require("g", g, (1.0 <= g) & (g < np.inf), "is not >= 1 and finite")
    return ModeMoments(alpha=np.multiply(np.sqrt(g), state.alpha),
                       delta_sq=np.multiply(g, state.delta_sq),
                       delta_n=g * state.delta_n + (g - 1.0))
