(** Shared execution plumbing for the tiled algorithms. *)

type task = Xsc_runtime.Task.t
type dag = Xsc_runtime.Dag.t

type exec =
  | Sequential
  | Dataflow of int
      (** dynamic DAG scheduling on a pool of [n] workers made for the run:
          the caller and [n - 1] spawned domains
          ({!Xsc_runtime.Pool.run_once}) *)
  | Forkjoin of int  (** level-synchronous executor on [n] domains *)
  | Pooled of Xsc_runtime.Pool.t
      (** submit into the given long-lived pool and block until the job
          drains ({!Xsc_runtime.Pool.run}) *)

val execute : ?interp:(Xsc_runtime.Task.op -> unit) -> exec -> dag -> Xsc_runtime.Real_exec.stats
(** [Dataflow] and [Pooled] order ready tasks by the pool's composite key,
    whose bottom-level tie-break gives every tiled factorization
    (Cholesky, LU, QR, ...) critical-path-first ordering on real domains.
    [Pooled] may not be used from a worker of its own pool (see
    {!Xsc_runtime.Pool.run}). [interp] dispatches closure-free op-encoded
    tasks (see {!Xsc_runtime.Task.op}); without it, tasks must carry [run]
    closures. *)

val execute_exn :
  ?interp:(Xsc_runtime.Task.op -> unit) -> exec -> dag -> Xsc_runtime.Real_exec.stats
(** Like {!execute}, but a {!Xsc_runtime.Real_exec.Task_failed} abort
    re-raises the task body's original exception: [Cholesky.factor] on a
    non-SPD matrix raises [Singular], not the executor wrapper. Use
    {!execute} directly to observe task failures (as {!Ft} does). *)

val tile_bytes : nb:int -> float
(** Footprint of one tile, for task byte weights. *)

val datum : int -> int -> stride:int -> int
