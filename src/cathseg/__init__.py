"""Model-guided segmentation of thin dark tubular trajectories in 3D volumes."""

__version__ = "0.1.0"

from .bezier import bezier_eval, fit_bezier, resample_polyline, sample_curve
from .engine import (EstimateResult, LocalFrame, SegmentationConfig, Trajectory,
                     estimate_model, gate_candidate, load_trajectory,
                     make_local_frame, propose_model_point, save_trajectory,
                     segment_batch, segment_catheter, walk)
from .evaluation import (CatheterScore, ExperimentReport, hausdorff,
                         run_experiments, write_scores_csv, write_summary_json)
from .features import ConeSpec, FeatureMask, cone_search, line_score
from .phantom import (BenchmarkBundle, BloomSpec, CatheterSpec, DistractorSpec,
                      PhantomSpec, force_for_deflection, generate_phantom,
                      standard_benchmark)
from .spring import (LookupResult, ModelTable, OverDeflectionError,
                     SingularConfigurationError, SpringModelParams, SpringState,
                     build_model_table, find_max_force, lookup,
                     simulate_backward, simulate_forward)
from .volume import (BasePlane, SeedSet, TruncatedVolumeError, Volume3D,
                     VolumeFormatError, distance_to_plane, load_seeds,
                     load_volume, sample_trilinear, save_seeds, save_volume)

__all__ = [name for name in dir() if not name.startswith("_")]
