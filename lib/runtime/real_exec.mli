(** Host execution of task DAGs on OCaml 5 domains: the two baselines of
    the paper's scheduling comparison, and the task-body plumbing every
    executor shares.

    - {!run_sequential} — program order on the calling domain: the test
      oracle, and the per-kernel profile with no scheduling noise;
    - {!run_forkjoin} — a bulk-synchronous executor: dependence levels are
      executed one at a time over a fixed pool of domains with a real
      barrier between levels (the classical loop-parallel style; the pool
      is reused across levels so the comparison measures barrier idle time,
      not domain spawn cost).

    The dynamic DAG scheduler they are compared against is {!Pool}: a
    work-stealing runtime that runs one DAG on a pool made for the call
    through {!Pool.run_once}, and the serving layer's requests on a
    long-lived pool through {!Pool.submit}.

    Tasks must carry a body: a [run] closure, or a closure-free {!Task.op}
    when the caller passes an [interp] interpreter (the op wins if both are
    present, so an op-encoded DAG can also carry oracle closures). Bodies of
    independent tasks must be safe to run from different domains — the tile
    kernels are, as they write disjoint tiles. Op dispatch is one branch on
    an immediate tag: no per-task closure allocation.

    {2 Telemetry}

    All timing uses the monotonic {!Xsc_obs.Clock} (wall-clock is not
    monotonic; an NTP step mid-run would corrupt [elapsed]). Executor
    counters feed the {!Xsc_obs.Metrics} registry ([runtime.tasks_executed],
    [runtime.barrier_wait_ns], [runtime.task_failures]; {!Pool} adds the
    steal and park counters).

    With [~trace:true] (or [XSC_TRACE=1] in the environment) each worker
    records task start/finish (and, under fork-join, barrier) events into a
    preallocated domain-local ring ({!Xsc_obs.Tracer}); after the run the
    rings are merged into the returned {!Trace.t}, so {!Trace.gantt},
    {!Trace.to_chrome_json} and {!Trace.by_kernel} work on real runs. With
    tracing off the executors skip recording entirely — the disabled
    overhead is one predictable branch per event site. *)

type stats = {
  elapsed : float;  (** monotonic seconds *)
  tasks : int;
  workers : int;
  steals : int;  (** successful steals ({!Pool.run_once}; 0 for the others) *)
  steal_attempts : int;
      (** all steal attempts, successful + failed ({!Pool.run_once}; 0
          otherwise). [steal_attempts - steals] failed probes distinguishes
          contention (many failures, few parks) from starvation (few
          attempts, long parks). *)
  parks : int;  (** condvar waits by idle workers ({!Pool.run_once}; 0 otherwise) *)
  park_time : float;
      (** cumulative seconds workers spent blocked: on the pool's idle
          condvar ({!Pool.run_once}) or in level barriers (fork-join) *)
  trace : Trace.t option;  (** present iff tracing was enabled for the run *)
}

type failure = {
  failed_task : int;  (** id of the task whose body raised *)
  failed_name : string;
  failed_worker : int;  (** worker (domain index) that ran it *)
  error : exn;  (** the original exception from the task body *)
}

exception Task_failed of failure
(** Raised by every executor when a task body raises, after the run has
    been aborted cleanly: no dependent of the failed task runs, and every
    worker is drained (fork-join: joined; {!Pool}: back to idle) before the
    exception propagates — a fault can never leave a worker blocked on a
    condvar or barrier. Only the first failure is reported (concurrent
    failures race on a CAS; the winner's is kept). The
    [runtime.task_failures] counter tallies every captured failure. *)

val run_forkjoin :
  ?interp:(Task.op -> unit) -> ?trace:bool -> workers:int -> Dag.t -> stats
(** [park_time] reports the cumulative level-barrier wait — the BSP idle
    time the paper's DAG-scheduling argument is about. [trace] defaults to
    [XSC_TRACE] in the environment. Raises [Invalid_argument] if a task
    lacks a body or [workers < 1]. *)

val run_sequential : ?interp:(Task.op -> unit) -> ?trace:bool -> Dag.t -> stats
(** Program-order execution on the calling domain (baseline and test
    oracle). A trace of a sequential run is the per-kernel time breakdown
    with zero scheduling noise. *)

val default_workers : unit -> int
(** [Domain.recommended_domain_count], capped at 8 to stay polite on shared
    CI machines. *)

(** {2 Shared with the pool executor}

    {!Pool} reuses the task-body dispatch, span recording and trace
    merging so every executor behaves identically per task. *)

val exec_body : (Task.op -> unit) option -> Task.t -> unit
(** Run one task body: the op through [interp] when both are present,
    else the [run] closure. Raises [Invalid_argument] when neither
    applies. *)

val check_bodies : (Task.op -> unit) option -> Dag.t -> unit
(** Validate every task is runnable under [interp] (op, or closure). *)

val span_ctx : unit -> Xsc_obs.Span.ctx option
(** The calling domain's ambient span context, when a collector is
    installed; [None] otherwise. *)

val with_task_span :
  Xsc_obs.Span.ctx option -> wid:int -> Task.t -> (unit -> 'a) -> 'a
(** Record a phase-["task"] child span of [ctx] around [f] (recorded even
    when [f] raises); identity when [ctx] is [None]. *)

val task_tracer : ?trace:bool -> workers:int -> Dag.t -> Xsc_obs.Tracer.t option
(** A tracer with one ring per worker, each large enough for every task's
    start and finish, when [trace] (default [XSC_TRACE]) asks for one and
    the DAG is non-empty. *)

val event : Xsc_obs.Tracer.t option -> domain:int -> Xsc_obs.Tracer.kind -> arg:int -> unit
(** Record one event into [domain]'s ring; a no-op on [None]. *)

val trace_of_tracer : Dag.t -> workers:int -> t0_ns:int -> Xsc_obs.Tracer.t -> Trace.t
(** Merge the per-worker rings into a {!Trace.t}: each [Task_start] pairs
    with the next [Task_finish] of the same id in the same ring,
    timestamps rebased to [t0_ns]. Call only after every recording worker
    has finished with the run. *)
