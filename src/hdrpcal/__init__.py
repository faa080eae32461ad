"""Model of the Unity HDRP forward-rendering pipeline, cube-file
tonemapping, display characterization, and gamma-correction tooling."""

from .calibrate import (DeltaSweep, GammaCorrectionSpec, build_correction_cube,
                        estimate_knots_delta, estimate_knots_optimize,
                        estimate_scale_constant, gamma_tonemap)
from .colorspace import (quantize_8bit, srgb_decode, srgb_decode3, srgb_encode,
                         srgb_encode3)
from .cubelut import (CubeLUT, CubeTonemap, KnotGrid, default_knot_grid,
                      make_delta_cube, parse_cube, separable_cube,
                      serialize_cube)
from .display import (AchromaticDisplay, ChromaticDisplay, Measurement,
                      fit_achromatic, fit_chromatic, load_display,
                      save_display, solve_background_weights)
from .harness import (SampleBatch, generate_samples, load_samples,
                      predict_unprocessed, predict_values, save_samples,
                      simulate_characterization, validate_model)
from .scene import light_direction_from_rotation, post_process, unlit_unprocessed

__version__ = "0.1.0"

__all__ = [
    "AchromaticDisplay", "ChromaticDisplay", "CubeLUT", "CubeTonemap",
    "DeltaSweep", "GammaCorrectionSpec", "KnotGrid", "Measurement",
    "SampleBatch", "build_correction_cube", "default_knot_grid",
    "estimate_knots_delta", "estimate_knots_optimize", "estimate_scale_constant",
    "fit_achromatic", "fit_chromatic", "gamma_tonemap", "generate_samples",
    "light_direction_from_rotation", "load_display", "load_samples",
    "make_delta_cube", "parse_cube", "post_process", "predict_unprocessed",
    "predict_values", "quantize_8bit", "save_display", "save_samples",
    "separable_cube", "serialize_cube", "simulate_characterization",
    "solve_background_weights", "srgb_decode", "srgb_decode3", "srgb_encode",
    "srgb_encode3", "unlit_unprocessed", "validate_model",
]
