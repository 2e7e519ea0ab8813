"""Traffic-flow models as car-following platoons and continuum fields.

The package pairs every model's two representations: vehicle-indexed
(Lagrangian) car-following dynamics and road-indexed (Eulerian) continuum
PDEs, plus the coordinate transforms, steady-state and stability analysis,
and an equivalence harness that runs both sides on matched scenarios.
"""

from .errors import (CollisionError, ConfigurationError, DomainError,
                     EvaluationError, ParameterError, SingularityError,
                     SolverFault, TrafficLabError)
from .fundamental import (FundamentalDiagram, GreenshieldsDiagram,
                          TabulatedDiagram, TriangularDiagram, cfl_max_dt,
                          diagram_from_config)
from .laws import (MODEL_CATALOG, AccelerationLaw, law_from_config,
                   make_arz_cf, make_aw_rascle_cf, make_fvdm, make_gfm,
                   make_idm, make_idm_alt, make_jwz_cf, make_linear_gm,
                   make_nonlinear_gm, make_ovm, make_third_order, partials_at)
from .transforms import (EulerianField, SpatialGrid, TrajectorySurface,
                         lagrangian_derivatives, to_eulerian, to_trajectories,
                         traveling_wave_surface, verify_transform_identities)
from .steady_state import (EquilibriumResult, EquilibriumStatus,
                           SteadyStateCurve, fundamental_diagram_of,
                           idm_closed_form_density, solve_equilibrium_speed)
from .stability import (Linearisation, StabilityReport, amplification_ratio,
                        continuum_linear_stability, linearise, mode_growth,
                        stability_map, stability_report, string_stability_exact,
                        string_stability_classic)
from .platoon import (ConstantLeader, PiecewiseConstantLeader, PlatoonState,
                      Ring, SinusoidLeader, simulate_continuous,
                      simulate_newell, simulate_pipes_discrete, simulate_platoons,
                      uniform_platoon)
from .continuum import (EulerianScenario, InflowOutflow, Periodic,
                        solve_lwr_godunov, solve_second_order,
                        solve_second_order_batch, total_vehicles)
from .equivalence import (EquivalenceReport, GaussianBumpProfile,
                          LwrEquivalenceReport, RiemannProfile, RingScenario,
                          SuiteEntry, UniformProfile, compare_lwr,
                          compare_second_order, lwr_riemann_density,
                          rankine_hugoniot_speed, run_suite)

__version__ = "0.1.0"
