(** Seeded load generation and SLO reporting for the solver service.

    The arrival schedule (Poisson inter-arrival gaps) and every problem
    instance are pure functions of the seed, so a load run is exactly
    repeatable: same seed, same arrival times, same matrices, same request
    ids — which is what lets a seeded fault storm assert exactly which
    requests were injected.

    Report quantiles are exact sample percentiles over the run's completed
    requests (not the metrics registry's log2-bucket estimates — see
    {!Xsc_obs.Metrics.quantile} for that tradeoff). *)

type kind =
  | Spd  (** SPD solve via Cholesky *)
  | General  (** general solve via partial-pivoting LU *)
  | Product  (** dense GEMM *)
  | Cg  (** CG solve over a 7-point Poisson stencil — bandwidth-bound *)
  | Mg  (** multigrid solve over the 27-point stencil — bandwidth-bound *)

type config = {
  seed : int;
  rate_hz : float;  (** Poisson arrival rate *)
  count : int;  (** total requests offered *)
  n : int;
      (** problem size. Dense kinds: the matrix order. Sparse kinds
          ([Cg]/[Mg]): the GRID EDGE — the operator has [n^3] rows
          ([Mg] needs [n] even, for coarsening). Reusing one field keeps
          every existing full-literal [config] construction site valid. *)
  kinds : kind array;  (** drawn uniformly per arrival *)
  deadline_s : float;  (** per-request deadline *)
}

val default : config
(** seed 42, 500 req/s, 100 requests, n=48 SPD solves, 50 ms deadline. *)

type arrival = { at_s : float; kind : kind; problem_seed : int }

val schedule : config -> arrival array
(** Deterministic: equal configs yield element-wise equal schedules.
    Raises [Invalid_argument] on non-positive [count]/[rate_hz] or empty
    [kinds]. *)

val payload_of : config -> arrival -> Request.payload
(** The problem instance for an arrival — deterministic from
    [problem_seed]. Sparse instances carry fixed tolerance/iteration
    budgets generous enough that a fault-free solve always converges. *)

val reference_routed : ?nb:int -> config -> arrival -> Request.solution
(** {!Route.direct} on the same instance: the oracle for every served
    answer. The packed kernels are bitwise schedule-independent, so a
    completed pool-served answer must equal this bit for bit — under any
    interleaving or seeded fault storm (replays re-run the same plan).
    Sparse instances run the sequential stepper chain and raise
    {!Route.Non_convergence} if the instance cannot meet its tolerance. *)

val solutions_bitwise_equal : Request.solution -> Request.solution -> bool

type report = {
  offered : int;
  admitted : int;
  rejected : int;
  completed : int;
  failed : int;
  retried : int;
  wall_s : float;
  offered_rate : float;  (** offered / wall, req/s *)
  throughput : float;  (** completed / wall, req/s *)
  goodput : float;  (** completed within deadline / wall, req/s *)
  reject_rate : float;  (** rejected / offered *)
  p50_ms : float;  (** exact sample percentiles of total latency *)
  p99_ms : float;
  p999_ms : float;
  mean_batch : float;  (** admitted / batches dispatched during the run *)
}

val run_open : Server.t -> config -> report
(** Open loop: submit at the scheduled arrival times whether or not the
    server keeps up (the honest overload model), await everything
    admitted. *)

val run_burst : Server.t -> config -> report
(** Every payload pre-generated, then offered back-to-back with no pacing:
    an effectively infinite arrival rate against the admission window. The
    deterministic overload point — backpressure must engage whenever
    [count] well exceeds the server's capacity, regardless of host
    speed. *)

val run_closed : Server.t -> outstanding:int -> config -> report
(** Closed loop: at most [outstanding] requests in flight; arrival times
    are ignored. Raises [Invalid_argument] if [outstanding <= 0]. *)

type large = {
  l_n : int;  (** large problem size *)
  l_deadline_s : float;
  l_seed : int;
}

val default_large : large
(** n=768 SPD, 5 s deadline, seed 7. *)

type isolation = {
  smalls : report;  (** the small class — what isolation gates on *)
  pairs : (arrival * Request.completion) list;
      (** every admitted small with its completion, for bitwise checks
          against {!reference_routed} *)
  larges_done : int;  (** large solves completed [Ok] during the run *)
  larges_failed : int;
  large_mean_s : float;  (** mean large total latency, 0 if none *)
}

val run_isolation : Server.t -> ?large:large -> config -> isolation
(** The multi-tenant latency-isolation mix. Smalls are offered open-loop
    at their Poisson times; the large (when given) streams closed-loop
    with exactly one outstanding — as soon as one completes the next is
    submitted, so large work occupies the server for the whole run.
    Without [large] this is the small class alone: the baseline point of
    the three-point isolation comparison. *)

type mixed = {
  m_dense : report;
  m_sparse : report;
  m_dense_pairs : (arrival * Request.completion) list;
      (** every admitted dense request with its completion *)
  m_sparse_pairs : (arrival * Request.completion) list;
      (** every admitted sparse request with its completion, for bitwise
          checks against {!reference_routed} *)
}

val run_mixed : Server.t -> dense:config -> sparse:config -> mixed
(** The mixed-workload run: both classes offered open-loop from one client
    thread, arrivals merged in time order, each submitted with its own
    config's deadline. Generation is deliberately asymmetric: dense
    instances are pre-generated before the clock starts (O(n^3) per
    instance — pricier than the solve, so inline generation would pace
    offered load below the service rate), while sparse instances are
    generated inline at submit time (stencil assembly and rhs are
    O(rows) — cheaper than a single solve chunk, and pre-generating
    hundreds of operators would dwarf the run's memory). Both reports
    share the run's batch total, so [mean_batch] is run-wide. *)

val report_json : report -> string
val report_human : report -> string
