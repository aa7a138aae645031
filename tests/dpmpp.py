"""SDE-DPM-Solver++(3M)'s data estimate in its published D1/D2 form, the
reference the sampler's step and oracle tests compare against."""

import numpy as np


def estimate_3m(sig, i, d, d_1, d_2):
    """The estimate that step i of the 3M chain (eta = 1) hands the
    first-order exponential step, from the denoiser outputs d_i, d_{i-1} and
    d_{i-2} (Lu et al. 2022, arXiv 2211.01095; k-diffusion's
    `sample_dpmpp_3m_sde`). Step 0 is first order and step 1 uses two outputs;
    the outputs a step does not use may be None."""
    h = np.log(sig[:-1] / sig[1:])
    one_minus_r = 1.0 - sig[i + 1] ** 2 / sig[i] ** 2
    phi2 = np.expm1(-2.0 * h[i]) / (2.0 * h[i]) + 1.0
    phi3 = phi2 / (2.0 * h[i]) - 0.5
    if i == 0:
        return d
    r0 = h[i - 1] / h[i]
    if i == 1:
        return d + phi2 * (d - d_1) / (r0 * one_minus_r)
    r1 = h[i - 2] / h[i]
    d1_0, d1_1 = (d - d_1) / r0, (d_1 - d_2) / r1
    d1 = d1_0 + (d1_0 - d1_1) * r0 / (r0 + r1)
    d2 = (d1_0 - d1_1) / (r0 + r1)
    return d + (phi2 * d1 - phi3 * d2) / one_minus_r
