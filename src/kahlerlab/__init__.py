"""Numerical laboratory for bisectional-curvature comparison geometry.

Closed-form Hermitian metrics on complex charts (models, cones,
orbifolds, planar domains, torsion deformations), curvature tensors by
one finite-difference level of the closed-form metric derivative,
geodesic distances by energy minimization, holomorphic-disk comparison
reports, and subharmonicity certificates, with a scenario-runner CLI on
top.
"""

from .errors import (ConfigError, DomainExceeded, Disconnected, InvalidDisk,
                     KahlerLabError, NonConvergence, NonPositiveDefinite,
                     SingularityTooClose, Unsupported)
from .fields import (ComplexChart, HermitianMetricField, ScalarField,
                     flat_potential, real_to_z, z_to_real)
from .curvature import (CurvatureData, TangentPair, bianchi_check, bisectional,
                        bk_defect, curvature_tensor, hermitian_inner,
                        min_bk_defect)
from .models import (ConeSurface, ModelSpace, QuotientData, cone_distance,
                     dK_transform, link_quotient_distance, model_distance,
                     orbifold_cone)
from .geodesy import (DiscretePath, DiskObstacle, DistanceSolution,
                      PlanarDomain, RectObstacle, chord_lower_bound,
                      domain_length_metric, geodesic_distance,
                      geodesic_distance_many, path_energy)
from .disks import (ComparisonReport, DiskEmbedding, DiskSampler, QuadratureGrid,
                    ScanResult, TorsionSpace, annulus_defect, annulus_tail,
                    area_density, asymptotic_defect, comparison_defect,
                    comparison_defects, log_moment, rprime_value, sample_disks, scan_disks,
                    torsion_contraction, torsion_expected_defect,
                    torsion_metric, violation_disk, worst_defect)
from .psh import (ComplexLine, PshVerdict, check_bk_lower, disk_laplacian,
                  k_threshold, quotient_bk2_check, radial_potential_check)

__version__ = "0.1.0"
